//! The output check: served reports against direct `run_fleet` runs of the
//! same scenarios, the committed digest of the default seed, and the
//! count signature compared across runs of one seed.

use crate::drive::{EventTally, Record};
use crate::stats::{fnv1a, FNV_OFFSET};
use crate::trace::Tracer;
use crate::workload::{Kind, Request};
use hgnas::fleet::wire::{self, ServerFrame};
use hgnas::fleet::{
    run_fleet_with_events, ArtifactStore, FleetReport, WireReport, WireShardReport,
};
use hgnas::graph::knn_brute_calls;
use hgnas::serve::ServeConfig;
use std::path::Path;

/// `report` with every scheduling-dependent field zeroed (rounds, slices,
/// prefix builds, warm-start and resume markers), encoded as a wire
/// frame: equal bytes mean bit-identical search results.
pub fn canonical(report: &WireReport) -> Vec<u8> {
    let mut r = report.clone();
    r.rounds = 0;
    r.slices = 0;
    for s in &mut r.shards {
        s.warm_predictor = false;
        s.resumed_from_generation = None;
        s.slices = 0;
        s.prefix_builds = 0;
    }
    wire::encode_server(&ServerFrame::Report {
        request_id: 0,
        report: r,
    })
}

/// [`canonical`] of a direct fleet run of `req`.
fn canonical_direct(req: &Request, fleet: FleetReport) -> Vec<u8> {
    let shards = req
        .shards()
        .into_iter()
        .zip(fleet.reports)
        .map(|((task, _), r)| WireShardReport {
            scenario: r.scenario,
            k: task.k,
            out_classes: task.out_classes(),
            device: r.device,
            outcome: r.outcome,
            pareto: r.pareto,
            warm_predictor: false,
            resumed_from_generation: None,
            slices: 0,
            prefix_builds: 0,
        })
        .collect();
    canonical(&WireReport {
        k: req.task.k,
        classes: req.task.classes(),
        shards,
        rounds: 0,
        slices: 0,
    })
}

/// One direct `run_fleet` of a request.
pub struct Direct {
    pub ms: f64,
    pub canonical: Vec<u8>,
    pub tally: EventTally,
    pub prefix_builds: u64,
    pub slices: u64,
    pub knn_builds: usize,
}

/// Runs `req` through `run_fleet` with the daemon's settings on `store`.
pub fn run_direct(
    req: &Request,
    serve: &ServeConfig,
    store: &ArtifactStore,
    tracer: &Tracer,
    span_request: u64,
) -> Result<Direct, String> {
    let (tx, rx) = hgnas::fleet::event_channel();
    let knn0 = knn_brute_calls();
    let (report, ms) = tracer.time("fleet.run_fleet", "fleet", None, span_request, || {
        run_fleet_with_events(
            &req.task,
            &req.base,
            &req.fleet_config(serve),
            Some(store),
            Some(tx),
        )
    });
    let knn_builds = knn_brute_calls() - knn0;
    let report = report.map_err(|e| format!("run_fleet: {e}"))?;
    let mut tally = EventTally::default();
    for ev in rx.try_iter() {
        tally.observe(&ev);
    }
    let prefix_builds = report.reports.iter().map(|r| r.prefix_builds).sum();
    let slices = report.reports.iter().map(|r| r.slices).sum();
    Ok(Direct {
        ms,
        canonical: canonical_direct(req, report),
        tally,
        prefix_builds,
        slices,
        knn_builds,
    })
}

/// The check of one run's served reports.
pub struct Checked {
    /// Direct runs of the checked requests, by position in `checked`.
    pub direct: Vec<Direct>,
    /// Indices into the window's records of the checked requests.
    pub checked: Vec<usize>,
    /// Requests whose report differs from the direct run.
    pub mismatches: Vec<usize>,
    /// FNV-1a over the checked reports, in (client, index) order.
    pub digest: u64,
}

/// Replays the first `kind.checked_per_client()` requests of each client
/// through `run_fleet` on a fresh store (warmed like the daemon's by the
/// warm-up request) and compares reports bit for bit.
pub fn check(
    kind: Kind,
    serve: &ServeConfig,
    records: &[Record],
    store_dir: &Path,
    tracer: &Tracer,
) -> Result<Checked, String> {
    let _ = std::fs::remove_dir_all(store_dir);
    let store = ArtifactStore::open(store_dir).map_err(|e| format!("check store: {e}"))?;
    run_direct(&kind.warmup(), serve, &store, &Tracer::new(false), 0)?;
    let checked: Vec<usize> = records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.index < kind.checked_per_client())
        .map(|(i, _)| i)
        .collect();
    let mut out = Checked {
        direct: Vec::new(),
        checked: Vec::new(),
        mismatches: Vec::new(),
        digest: FNV_OFFSET,
    };
    for i in checked {
        let rec = &records[i];
        let direct = run_direct(&rec.request, serve, &store, tracer, rec.span_request())?;
        let served = rec.outcome.as_ref().ok().map(canonical);
        if served.as_ref() != Some(&direct.canonical) {
            out.mismatches.push(i);
        }
        out.digest = fnv1a(out.digest, &direct.canonical);
        out.direct.push(direct);
        out.checked.push(i);
    }
    drop(store);
    let _ = std::fs::remove_dir_all(store_dir);
    Ok(out)
}

/// The digest committed for `(workload, seed)` in `digests.txt`, if any.
pub fn committed_digest(digests: &str, kind: Kind, seed: u64) -> Option<u64> {
    digests.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        match (f.next(), f.next(), f.next()) {
            (Some(w), Some(s), Some(d)) if w == kind.name() && s == seed.to_string() => {
                u64::from_str_radix(d, 16).ok()
            }
            _ => None,
        }
    })
}

/// The counts that must repeat exactly between runs of one seed, as
/// `name value` lines: the direct runs' prefix builds, slices,
/// preemptions and KNN builds, and for single-client workloads (no
/// contention, so no timing-dependent admission) the daemon's rounds,
/// slices and preemptions. Session hits, restores, evictions and deferrals
/// are left out, and so are the daemon's prefix builds: under a session
/// budget two workers race for the cache, and one request of one seed has
/// been served with 3 builds in one run and 5 in the next.
pub fn count_signature(kind: Kind, records: &[Record], checked: &Checked) -> String {
    let mut s = String::new();
    for (&i, d) in checked.checked.iter().zip(&checked.direct) {
        let r = &records[i];
        let tag = format!("c{}r{}", r.client, r.index);
        s.push_str(&format!(
            "direct.{tag}.prefix_builds {}\ndirect.{tag}.slices {}\n\
             direct.{tag}.preemptions {}\ndirect.{tag}.knn_builds {}\n",
            d.prefix_builds, d.slices, d.tally.preemptions, d.knn_builds
        ));
        if kind.clients().len() == 1 {
            if let Ok(rep) = &r.outcome {
                s.push_str(&format!(
                    "served.{tag}.rounds {}\nserved.{tag}.slices {}\nserved.{tag}.preemptions {}\n",
                    rep.rounds, rep.slices, r.tally.preemptions
                ));
            }
        }
    }
    s
}

/// Lines of `now` whose value differs from the same name in `before`.
pub fn count_drift(before: &str, now: &str) -> Vec<String> {
    let old: std::collections::BTreeMap<&str, &str> =
        before.lines().filter_map(|l| l.split_once(' ')).collect();
    now.lines()
        .filter_map(|l| l.split_once(' '))
        .filter_map(|(name, v)| match old.get(name) {
            Some(&o) if o != v => Some(format!("{name}: {o} -> {v}")),
            _ => None,
        })
        .collect()
}
