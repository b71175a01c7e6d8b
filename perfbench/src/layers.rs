//! The traced run's layer replays: one served shard's work re-run call by
//! call through each crate's public API, every call inside a span.

use crate::stats::{median, Metric};
use crate::trace::{SpanId, Tracer};
use crate::workload::Request;
use hgnas::autograd::Tape;
use hgnas::core::{Hgnas, LatencyMode, PretrainedPredictor, RunOptions, Supernet};
use hgnas::fleet::wire::{self, ServerFrame};
use hgnas::fleet::{
    prefix_fingerprint, search_fingerprint, ArtifactKey, ArtifactStore, MeasurementOracle,
    OracleConfig, PrefixKey, WireReport,
};
use hgnas::graph::knn_brute;
use hgnas::nn::Optimizer;
use hgnas::predictor::LatencyPredictor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;

/// Where the replay's spans go: children of one root span of one request.
struct Spans<'a> {
    tracer: &'a Tracer,
    root: Option<SpanId>,
    request: u64,
}

impl Spans<'_> {
    /// Runs `f` once inside a span; returns its result and wall time, ms.
    fn time<T>(&self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.tracer.time(name, layer, self.root, self.request, f)
    }

    /// Times `iters` calls of `f` inside one span, `reps` times; returns
    /// the median over reps of the mean time per call, ms.
    fn per_call(
        &self,
        name: &'static str,
        layer: &'static str,
        reps: usize,
        iters: usize,
        mut f: impl FnMut(usize),
    ) -> f64 {
        let means: Vec<f64> = (0..reps)
            .map(|_| {
                let ((), ms) = self.time(name, layer, || (0..iters).for_each(&mut f));
                ms / iters as f64
            })
            .collect();
        median(&means)
    }
}

/// Replays the first shard of `req` (whose served report is `report`)
/// layer by layer and returns the per-layer timings.
pub fn replay(
    req: &Request,
    report: &WireReport,
    store_dir: &Path,
    tracer: &Tracer,
    request: u64,
) -> Result<Vec<Metric>, String> {
    let (task, cfg) = req.shards().swap_remove(0);
    let root = tracer.open("perfbench.replay", "perfbench", None, request);
    let sp = Spans {
        tracer,
        root,
        request,
    };
    let mut m = Vec::new();

    // pointcloud: dataset generation.
    let dataset_ms = sp.per_call("pointcloud.generate", "pointcloud", 3, 1, |_| {
        black_box(task.task().generate(&task.dataset));
    });
    m.push(Metric::new("pointcloud.dataset_ms", dataset_ms, "ms"));
    let ds = task.task().generate(&task.dataset);

    // core: the deterministic prefix, then the search on it.
    let hg = Hgnas::new(task.clone(), cfg.clone());
    let (session, prefix_ms) = sp.time("core.prepare_session", "core", || hg.prepare_session());
    m.push(Metric::new("core.prefix_ms", prefix_ms, "ms"));

    // predictor: training, then queries against the found model.
    let ((predictor, stats), train_ms) = sp.time("predictor.train", "predictor", || {
        LatencyPredictor::train_with_profile(
            &cfg.device_profile(),
            &task.predictor_context(),
            &cfg.predictor,
        )
    });
    m.push(Metric::new("predictor.train_ms", train_ms, "ms"));
    let predictor = Arc::new(predictor);
    let opts = RunOptions {
        session: Some(&session),
        predictor: (cfg.latency_mode == LatencyMode::Predictor).then(|| PretrainedPredictor {
            predictor: Arc::clone(&predictor),
            stats,
        }),
        ..RunOptions::default()
    };
    let (run, search_ms) = sp.time("core.run_with", "core", || hg.run_with(opts));
    m.push(Metric::new("core.search_ms", search_ms, "ms"));
    let outcome = run.outcome.ok_or("replayed search yielded no outcome")?;
    let arch = &outcome.best.architecture;
    let query_ms = sp.per_call("predictor.predict", "predictor", 5, 200, |_| {
        black_box(predictor.predict_ms(black_box(arch)));
    });
    m.push(Metric::new("predictor.query_us", query_ms * 1e3, "us"));

    // core.supernet: forward, backward, a training epoch and one-shot
    // evaluation of a supernet over the session's function sets.
    let functions = session
        .functions()
        .ok_or("replay needs a multi-stage session")?;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Training-mode forwards bind the weights they touch to their tape, so
    // the bare forward/backward replay gets a supernet of its own and the
    // epoch below starts from unbound weights.
    let mut build = || {
        Supernet::for_task(
            &mut rng,
            task.task_kind,
            task.positions,
            task.supernet_hidden,
            task.k,
            task.out_classes(),
            functions.0,
            functions.1,
            &task.head_hidden,
        )
    };
    let (probe, mut sn) = (build(), build());
    let batches = task.task().batches(&ds.train, 8);
    let (mut fwd, mut bwd) = (Vec::new(), Vec::new());
    for batch in batches.iter().cycle().take(batches.len().max(8)) {
        let genome = probe.random_genome(&mut rng);
        let mut tape = Tape::new();
        let (loss, f_ms) = sp.time("core.supernet.forward", "core.supernet", || {
            let logits = probe.forward(&mut tape, batch, &genome, &mut rng);
            tape.softmax_cross_entropy(logits, &batch.labels)
        });
        let ((), b_ms) = sp.time("core.supernet.backward", "core.supernet", || {
            tape.backward(loss);
        });
        fwd.push(f_ms);
        bwd.push(b_ms);
    }
    m.push(Metric::new("core.supernet.forward_ms", median(&fwd), "ms"));
    m.push(Metric::new("core.supernet.backward_ms", median(&bwd), "ms"));
    let mut opt = Optimizer::adam(3e-3);
    let epoch_ms = sp.per_call("core.supernet.train_epoch", "core.supernet", 3, 1, |_| {
        black_box(sn.train_epoch(&batches, &mut opt, &mut rng));
    });
    m.push(Metric::new("core.supernet.train_epoch_ms", epoch_ms, "ms"));
    let eval_batches = task
        .task()
        .batches(&ds.test[..cfg.eval_clouds.min(ds.test.len())], 16);
    let genomes: Vec<_> = (0..6).map(|_| sn.random_genome(&mut rng)).collect();
    let eval_ms = sp.per_call(
        "core.supernet.eval_genome",
        "core.supernet",
        3,
        genomes.len(),
        |i| {
            black_box(sn.eval_genome_batched(&genomes[i], &eval_batches, i as u64));
        },
    );
    m.push(Metric::new("core.supernet.eval_genome_ms", eval_ms, "ms"));

    // graph: brute-force KNN over raw training clouds.
    let clouds = &ds.train[..ds.train.len().min(16)];
    let knn_ms = sp.per_call("graph.knn_brute", "graph", 5, clouds.len(), |i| {
        black_box(knn_brute(&clouds[i].points, 3, task.k));
    });
    m.push(Metric::new("graph.knn_ms", knn_ms, "ms"));

    // device: the simulator's deterministic model and a noisy measurement
    // of the found model, then the same measurement through the oracle.
    let profile = cfg.device_profile();
    let workload = arch.lower(task.points(), &task.head_hidden);
    let exec_ms = sp.per_call("device.execute", "device", 5, 500, |_| {
        black_box(profile.execute(black_box(&workload)));
    });
    m.push(Metric::new("device.execute_us", exec_ms * 1e3, "us"));
    let measure_ms = sp.per_call("device.measure", "device", 5, 500, |i| {
        let _ = black_box(profile.measure_seeded(black_box(&workload), i as u64));
    });
    m.push(Metric::new("device.measure_us", measure_ms * 1e3, "us"));
    let oracle =
        MeasurementOracle::start_profiles(std::slice::from_ref(&profile), &OracleConfig::default());
    let client = oracle.client_for(&profile);
    let oracle_ms = sp.per_call("fleet.oracle.measure", "fleet", 5, 100, |i| {
        let _ = black_box(client.submit(workload.clone(), i as u64).wait());
    });
    drop(client);
    oracle.shutdown();
    m.push(Metric::new("fleet.oracle.measure_ms", oracle_ms, "ms"));

    // fleet: the artifact store's checkpoint and session codecs on disk.
    let _ = std::fs::remove_dir_all(store_dir);
    let store = ArtifactStore::open(store_dir).map_err(|e| format!("replay store: {e}"))?;
    let key = ArtifactKey {
        device: cfg.device,
        fingerprint: search_fingerprint(&task, &cfg),
    };
    let cp = run
        .checkpoint
        .as_ref()
        .and_then(|c| c.as_multi_stage())
        .ok_or("replay needs a multi-stage checkpoint")?;
    let snap = session
        .export()
        .ok_or("replay needs an exportable session")?;
    let pkey = PrefixKey {
        fingerprint: prefix_fingerprint(&task, &cfg),
    };
    let mut failures = 0;
    let mut store_ms = |name: &'static str, op: &dyn Fn() -> bool| {
        let ms = sp.per_call(name, "fleet", 5, 1, |_| failures += usize::from(!op()));
        m.push(Metric::new(format!("{name}_ms"), ms, "ms"));
    };
    store_ms("fleet.store.save_checkpoint", &|| {
        store.save_checkpoint(&key, &task, cp).is_ok()
    });
    store_ms("fleet.store.load_checkpoint", &|| {
        matches!(store.load_checkpoint(&key), Ok(Some(_)))
    });
    store_ms("fleet.store.save_session", &|| {
        store.save_session(&pkey, &snap).is_ok()
    });
    store_ms("fleet.store.load_session", &|| {
        matches!(store.load_session(&pkey), Ok(Some(_)))
    });
    drop(store);
    let _ = std::fs::remove_dir_all(store_dir);
    if failures > 0 {
        return Err(format!("{failures} artifact store round trips failed"));
    }

    // fleet: the report frame's wire codec.
    let frame = ServerFrame::Report {
        request_id: 1,
        report: report.clone(),
    };
    let bytes = wire::encode_server(&frame).len();
    let mut decode_failures = 0;
    let roundtrip_ms = sp.per_call("fleet.wire.roundtrip", "fleet", 5, 20, |_| {
        let b = wire::encode_server(black_box(&frame));
        decode_failures += usize::from(wire::decode_server(&b).is_err());
    });
    if decode_failures > 0 {
        return Err("report frame failed to decode".into());
    }
    m.push(Metric::new(
        "fleet.wire.report_bytes",
        bytes as f64,
        "bytes",
    ));
    m.push(Metric::new(
        "fleet.wire.report_roundtrip_ms",
        roundtrip_ms,
        "ms",
    ));

    tracer.close(root);
    Ok(m)
}
