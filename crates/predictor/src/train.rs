//! Training and evaluating the latency predictor.

use crate::dataset::{generate_dataset, LabelledArch};
use crate::features::arch_to_graph_with;
use crate::model::PredictorModel;
use hgnas_autograd::Tape;
use hgnas_device::{DeviceKind, DeviceProfile};
use hgnas_nn::metrics::{error_bound_accuracy, mape};
use hgnas_nn::{Module, Optimizer};
use hgnas_ops::Architecture;
use hgnas_tensor::threads::fan_out;
use hgnas_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The task context architectures are measured in (mirrors the search's
/// task configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictorContext {
    /// Supernet positions sampled for training data.
    pub positions: usize,
    /// Points per cloud.
    pub points: usize,
    /// Neighbour fanout.
    pub k: usize,
    /// Classifier classes.
    pub classes: usize,
    /// Classifier hidden widths (needed to lower candidates).
    pub head_hidden: Vec<usize>,
}

impl PredictorContext {
    /// Paper-scale context: 12 positions, 1024 points, k=20, 40 classes.
    pub fn paper() -> Self {
        PredictorContext {
            positions: 12,
            points: 1024,
            k: 20,
            classes: 40,
            head_hidden: vec![128],
        }
    }

    /// Reduced-scale context for fast harnesses.
    pub fn small() -> Self {
        PredictorContext {
            positions: 8,
            points: 128,
            k: 10,
            classes: 10,
            head_hidden: vec![48],
        }
    }
}

/// Predictor training hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictorConfig {
    /// Training samples (paper: 21 000).
    pub train_samples: usize,
    /// Held-out validation samples (paper: 9 000).
    pub val_samples: usize,
    /// Training epochs (paper: 250).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// GCN hidden widths (paper: 256, 512, 512).
    pub gcn_dims: Vec<usize>,
    /// MLP hidden widths (paper: 256, 128).
    pub mlp_hidden: Vec<usize>,
    /// RNG seed for sampling, init and shuffling.
    pub seed: u64,
    /// Include the global node in the architecture graph (paper default).
    /// Disabling it is the sparsity ablation from Sec. III-D.
    pub global_node: bool,
    /// Samples per optimizer step (mini-batch gradient accumulation).
    /// `1` reproduces the original per-sample SGD numerics exactly; larger
    /// batches accumulate (and average) per-sample gradients, which is what
    /// lets the epoch loop fan samples across the kernel thread budget.
    /// Results are bit-identical at any thread count for any batch size.
    pub batch: usize,
}

impl PredictorConfig {
    /// The paper's settings (Sec. IV-A).
    pub fn paper() -> Self {
        PredictorConfig {
            train_samples: 21_000,
            val_samples: 9_000,
            epochs: 250,
            lr: 1e-3,
            gcn_dims: vec![256, 512, 512],
            mlp_hidden: vec![256, 128],
            seed: 0,
            global_node: true,
            batch: 8,
        }
    }

    /// Reduced settings: trains in a few seconds on a CPU while staying
    /// well under 20 % MAPE on the quiet devices.
    pub fn small() -> Self {
        PredictorConfig {
            train_samples: 600,
            val_samples: 200,
            epochs: 30,
            lr: 2e-3,
            gcn_dims: vec![48, 48],
            mlp_hidden: vec![32],
            seed: 0,
            global_node: true,
            batch: 1,
        }
    }
}

/// What training observed.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainStats {
    /// Mean training MAPE of the final epoch.
    pub train_mape: f64,
    /// Validation MAPE (Fig. 8 reports ~0.06 GPU/CPU/TX2, ~0.19 Pi).
    pub val_mape: f64,
    /// Fraction of validation predictions within the 10 % error bound.
    pub val_within_10pct: f64,
    /// Training set size actually used.
    pub train_size: usize,
}

/// Evaluation output: enough to draw a Fig. 8 scatter.
#[derive(Debug, Clone)]
pub struct PredictorEval {
    /// Mean absolute percentage error.
    pub mape: f64,
    /// Fraction within the 10 % relative-error bound.
    pub within_10pct: f64,
    /// `(predicted_ms, measured_ms)` pairs.
    pub pairs: Vec<(f64, f64)>,
}

/// A trained per-device latency predictor.
///
/// Predictions are made in a normalised space (labels divided by the
/// training-set mean) because MAPE is scale-free but optimisation is not;
/// the scale is folded back in [`LatencyPredictor::predict_ms`].
#[derive(Debug)]
pub struct LatencyPredictor {
    device: DeviceKind,
    model: PredictorModel,
    scale_ms: f64,
    context: PredictorContext,
    global_node: bool,
    gcn_dims: Vec<usize>,
    mlp_hidden: Vec<usize>,
}

/// A serialisable image of a trained predictor: geometry, normalisation
/// scale, held-out statistics and raw weight tensors. Round-tripping
/// through a snapshot reproduces predictions bit-for-bit, which is what
/// lets an artifact store skip predictor training on warm starts.
#[derive(Debug, Clone)]
pub struct PredictorSnapshot {
    /// The device the predictor perceives.
    pub device: DeviceKind,
    /// Task context predictions are made in.
    pub context: PredictorContext,
    /// Whether the architecture graph includes the global node.
    pub global_node: bool,
    /// GCN hidden widths.
    pub gcn_dims: Vec<usize>,
    /// MLP hidden widths.
    pub mlp_hidden: Vec<usize>,
    /// Label normalisation scale, ms.
    pub scale_ms: f64,
    /// Held-out statistics observed when the predictor was trained.
    pub stats: TrainStats,
    /// Weight tensors in [`hgnas_nn::Module::params`] order.
    pub weights: Vec<Tensor>,
}

/// Per-sample loss and gradients (in [`hgnas_nn::Module::params`] order)
/// produced by one forward/backward pass.
type SampleGrads = (f64, Vec<Option<Tensor>>);

/// One forward/backward pass for `sample` against `model`, returning the
/// loss and per-parameter gradients. Pure in `model`'s weights, so it can
/// run against the live model or a worker's clone interchangeably.
fn sample_grads(
    model: &PredictorModel,
    sample: &LabelledArch,
    points: usize,
    global_node: bool,
    scale_ms: f64,
) -> SampleGrads {
    let graph = arch_to_graph_with(&sample.arch, points, global_node);
    let target = (sample.latency_ms / scale_ms) as f32;
    let mut tape = Tape::new();
    let out = model.forward(&mut tape, &graph);
    let loss = tape.mape_loss(out, &[target]);
    let l = tape.value(loss).item() as f64;
    tape.backward(loss);
    let grads = model.params().iter().map(|p| p.take_grad(&tape)).collect();
    (l, grads)
}

/// Computes `sample_grads` for every sample of one mini-batch, fanning the
/// samples across up to `threads` threads ([`fan_out`]) whose budget is
/// split between the runs and their matmul kernels exactly as the candidate
/// evaluator splits it. Results come back in submission order regardless
/// of scheduling, so the returned values are bit-identical for any
/// `threads`.
fn batch_grads(
    model: &PredictorModel,
    train: &[LabelledArch],
    chunk: &[usize],
    points: usize,
    global_node: bool,
    scale_ms: f64,
    threads: usize,
) -> Vec<SampleGrads> {
    let mut out: Vec<Option<SampleGrads>> = (0..chunk.len()).map(|_| None).collect();
    fan_out(&mut out, 1, threads, |first, run| {
        // Runs must not share tape bindings: the run at sample 0 binds
        // `model` itself, every other run a private clone.
        let clone;
        let local = if first == 0 {
            model
        } else {
            clone = model.clone();
            &clone
        };
        for (&i, slot) in chunk[first..].iter().zip(run) {
            *slot = Some(sample_grads(
                local,
                &train[i],
                points,
                global_node,
                scale_ms,
            ));
        }
    });
    out.into_iter()
        .map(|s| s.expect("every sample slot is filled by its run"))
        .collect()
}

impl LatencyPredictor {
    /// Generates a labelled dataset on `device` and trains a predictor with
    /// MAPE loss (paper Sec. IV-A). Returns the predictor plus held-out
    /// statistics.
    pub fn train(
        device: DeviceKind,
        ctx: &PredictorContext,
        cfg: &PredictorConfig,
    ) -> (Self, TrainStats) {
        Self::train_with_profile(&device.profile(), ctx, cfg)
    }

    /// Trains against an explicit device profile rather than a builtin
    /// kind — the entry point custom device personas use. The predictor's
    /// perceived [`DeviceKind`] is the profile's base kind (kind-keyed
    /// artifacts keep working); callers that juggle several personas over
    /// one base kind must disambiguate them externally, e.g. via scenario
    /// fingerprints.
    pub fn train_with_profile(
        profile: &DeviceProfile,
        ctx: &PredictorContext,
        cfg: &PredictorConfig,
    ) -> (Self, TrainStats) {
        let device = profile.kind;
        let total = cfg.train_samples + cfg.val_samples;
        let data = generate_dataset(
            profile,
            ctx.positions,
            ctx.points,
            ctx.k,
            ctx.classes,
            &ctx.head_hidden,
            total,
            cfg.seed.wrapping_add(0x5eed),
        );
        let (train, val) = data.split_at(cfg.train_samples.min(data.len()));

        let scale_ms =
            (train.iter().map(|s| s.latency_ms).sum::<f64>() / train.len().max(1) as f64).max(1e-6);

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut model = PredictorModel::new(&mut rng, &cfg.gcn_dims, &cfg.mlp_hidden);
        let mut opt = Optimizer::adam(cfg.lr);

        // The epoch loop works in mini-batches of `cfg.batch` samples:
        // per-sample gradients are computed (in parallel across the ambient
        // kernel thread budget when it is > 1), summed in submission order,
        // averaged, and applied as one optimizer step. Batch 1 degenerates
        // to the classic per-sample SGD loop bit-for-bit.
        let threads = hgnas_tensor::threads::kernel_threads();
        let batch = cfg.batch.max(1);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut train_mape = f64::NAN;
        for _epoch in 0..cfg.epochs {
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for chunk in order.chunks(batch) {
                let results = batch_grads(
                    &model,
                    train,
                    chunk,
                    ctx.points,
                    cfg.global_node,
                    scale_ms,
                    threads,
                );
                // Reduce in submission order: worker count never reorders
                // the floating-point sums.
                for (l, _) in &results {
                    epoch_loss += l;
                }
                let scale = 1.0 / chunk.len() as f32;
                for (pi, p) in model.params_mut().into_iter().enumerate() {
                    let mut acc: Option<Tensor> = None;
                    for (_, grads) in &results {
                        if let Some(g) = &grads[pi] {
                            acc = Some(match acc {
                                Some(a) => a.zip_map(g, |x, y| x + y),
                                None => g.clone(),
                            });
                        }
                    }
                    if let Some(g) = acc {
                        let g = if chunk.len() > 1 { g.scale(scale) } else { g };
                        p.apply_grad(&g, &mut opt);
                    }
                }
            }
            train_mape = epoch_loss / train.len().max(1) as f64;
        }

        let predictor = LatencyPredictor {
            device,
            model,
            scale_ms,
            context: ctx.clone(),
            global_node: cfg.global_node,
            gcn_dims: cfg.gcn_dims.clone(),
            mlp_hidden: cfg.mlp_hidden.clone(),
        };
        let eval = predictor.evaluate(val);
        let stats = TrainStats {
            train_mape,
            val_mape: eval.mape,
            val_within_10pct: eval.within_10pct,
            train_size: train.len(),
        };
        (predictor, stats)
    }

    /// The device this predictor perceives.
    pub fn device(&self) -> DeviceKind {
        self.device
    }

    /// The context (points, k, …) predictions are made in.
    pub fn context(&self) -> &PredictorContext {
        &self.context
    }

    /// Predicts the latency of `arch` on the target device, in
    /// milliseconds. This is the paper's "perceive a candidate in
    /// milliseconds" path — no lowering, no simulation, one GCN forward.
    pub fn predict_ms(&self, arch: &Architecture) -> f64 {
        let graph = arch_to_graph_with(arch, self.context.points, self.global_node);
        let mut tape = Tape::new();
        let out = self.model.forward_frozen(&mut tape, &graph);
        (tape.value(out).item() as f64 * self.scale_ms).max(0.0)
    }

    /// Evaluates against labelled samples, producing Fig. 8 quantities.
    pub fn evaluate(&self, samples: &[LabelledArch]) -> PredictorEval {
        let pairs: Vec<(f64, f64)> = samples
            .iter()
            .map(|s| (self.predict_ms(&s.arch), s.latency_ms))
            .collect();
        let pred: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let truth: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        PredictorEval {
            mape: mape(&pred, &truth),
            within_10pct: error_bound_accuracy(&pred, &truth, 0.10),
            pairs,
        }
    }

    /// Ground-truth measurement helper (used by ablations comparing
    /// predictor-based and measurement-based search).
    pub fn profile(&self) -> DeviceProfile {
        self.device.profile()
    }

    /// Captures everything needed to rebuild this predictor bit-for-bit.
    /// `stats` are the training statistics to travel with the weights (the
    /// artifact store surfaces them on warm starts).
    pub fn snapshot(&self, stats: &TrainStats) -> PredictorSnapshot {
        PredictorSnapshot {
            device: self.device,
            context: self.context.clone(),
            global_node: self.global_node,
            gcn_dims: self.gcn_dims.clone(),
            mlp_hidden: self.mlp_hidden.clone(),
            scale_ms: self.scale_ms,
            stats: stats.clone(),
            weights: self
                .model
                .params()
                .iter()
                .map(|p| p.value().clone())
                .collect(),
        }
    }

    /// Rebuilds a predictor from a snapshot. Predictions are bit-identical
    /// to the snapshotted instance's.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot's weight count or shapes do not match the
    /// model geometry its `gcn_dims`/`mlp_hidden` describe (a corrupt or
    /// hand-edited artifact; the artifact codec's checksum normally rejects
    /// these earlier).
    pub fn from_snapshot(snap: &PredictorSnapshot) -> (Self, TrainStats) {
        let mut init_rng = StdRng::seed_from_u64(0);
        let mut model = PredictorModel::new(&mut init_rng, &snap.gcn_dims, &snap.mlp_hidden);
        let params = model.params_mut();
        assert_eq!(
            params.len(),
            snap.weights.len(),
            "snapshot weight count does not match model geometry"
        );
        for (p, w) in params.into_iter().zip(&snap.weights) {
            p.set_value(w.clone());
        }
        let predictor = LatencyPredictor {
            device: snap.device,
            model,
            scale_ms: snap.scale_ms,
            context: snap.context.clone(),
            global_node: snap.global_node,
            gcn_dims: snap.gcn_dims.clone(),
            mlp_hidden: snap.mlp_hidden.clone(),
        };
        (predictor, snap.stats.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgnas_tensor::threads::with_kernel_threads;

    fn tiny_cfg() -> PredictorConfig {
        PredictorConfig {
            train_samples: 120,
            val_samples: 60,
            epochs: 12,
            lr: 3e-3,
            gcn_dims: vec![24, 24],
            mlp_hidden: vec![16],
            seed: 1,
            global_node: true,
            batch: 1,
        }
    }

    fn tiny_ctx() -> PredictorContext {
        PredictorContext {
            positions: 6,
            points: 128,
            k: 10,
            classes: 4,
            head_hidden: vec![16],
        }
    }

    #[test]
    fn predictor_learns_better_than_mean_baseline() {
        let (p, stats) = LatencyPredictor::train(DeviceKind::Rtx3080, &tiny_ctx(), &tiny_cfg());
        // Baseline: always predicting the training mean. Its MAPE on the
        // validation set bounds what "learned nothing" looks like.
        let profile = DeviceKind::Rtx3080.profile();
        let val = generate_dataset(&profile, 6, 128, 10, 4, &[16], 60, 999);
        let mean_pred: Vec<f64> = vec![p.scale_ms; val.len()];
        let truth: Vec<f64> = val.iter().map(|s| s.latency_ms).collect();
        let baseline = mape(&mean_pred, &truth);
        let eval = p.evaluate(&val);
        assert!(
            eval.mape < baseline,
            "predictor {:.3} not better than mean baseline {:.3} (train stats {stats:?})",
            eval.mape,
            baseline
        );
    }

    #[test]
    fn predictions_positive_and_finite() {
        let (p, _) = LatencyPredictor::train(DeviceKind::JetsonTx2, &tiny_ctx(), &tiny_cfg());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let a = Architecture::random(&mut rng, 6, 10, 4);
            let ms = p.predict_ms(&a);
            assert!(ms.is_finite() && ms >= 0.0, "prediction {ms}");
        }
    }

    #[test]
    fn batched_training_is_bit_identical_across_thread_budgets() {
        let mut cfg = tiny_cfg();
        cfg.batch = 4;
        cfg.epochs = 4;
        let probe_archs: Vec<Architecture> = {
            let mut rng = StdRng::seed_from_u64(9);
            (0..8)
                .map(|_| Architecture::random(&mut rng, 6, 10, 4))
                .collect()
        };
        let predict_all = |threads: usize| -> Vec<u64> {
            let (p, stats) = with_kernel_threads(threads, || {
                LatencyPredictor::train(DeviceKind::Rtx3080, &tiny_ctx(), &cfg)
            });
            let mut bits: Vec<u64> = probe_archs
                .iter()
                .map(|a| p.predict_ms(a).to_bits())
                .collect();
            bits.push(stats.train_mape.to_bits());
            bits.push(stats.val_mape.to_bits());
            bits
        };
        let t1 = predict_all(1);
        let t2 = predict_all(2);
        let t8 = predict_all(8);
        assert_eq!(t1, t2);
        assert_eq!(t1, t8);
    }

    #[test]
    fn batch_one_matches_per_sample_reference() {
        // The per-sample loop and the accumulation path at batch 1 must be
        // the same algorithm: same weights, same stats, bit-for-bit.
        let cfg = tiny_cfg();
        let (a, sa) = LatencyPredictor::train(DeviceKind::JetsonTx2, &tiny_ctx(), &cfg);
        let (b, sb) = LatencyPredictor::train(DeviceKind::JetsonTx2, &tiny_ctx(), &cfg);
        assert_eq!(sa, sb);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..5 {
            let arch = Architecture::random(&mut rng, 6, 10, 4);
            assert_eq!(a.predict_ms(&arch).to_bits(), b.predict_ms(&arch).to_bits());
        }
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let (p, stats) =
            LatencyPredictor::train(DeviceKind::RaspberryPi3B, &tiny_ctx(), &tiny_cfg());
        let snap = p.snapshot(&stats);
        let (q, qstats) = LatencyPredictor::from_snapshot(&snap);
        assert_eq!(stats, qstats);
        assert_eq!(q.device(), p.device());
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let arch = Architecture::random(&mut rng, 6, 10, 4);
            assert_eq!(
                p.predict_ms(&arch).to_bits(),
                q.predict_ms(&arch).to_bits(),
                "snapshot round-trip changed a prediction"
            );
        }
    }

    #[test]
    fn prediction_is_fast_single_forward() {
        let (p, _) = LatencyPredictor::train(DeviceKind::Rtx3080, &tiny_ctx(), &tiny_cfg());
        let mut rng = StdRng::seed_from_u64(6);
        let a = Architecture::random(&mut rng, 6, 10, 4);
        let t0 = std::time::Instant::now();
        for _ in 0..100 {
            p.predict_ms(&a);
        }
        let per_call = t0.elapsed().as_secs_f64() / 100.0;
        // Paper claim: "within milliseconds". Allow generous CI headroom.
        assert!(per_call < 0.05, "predict_ms took {per_call:.4}s");
    }
}
