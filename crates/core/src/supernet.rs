//! The single-path one-shot (SPOS) supernet (paper Sec. III-B/C).
//!
//! Every position holds all four operation choices with *shared weights*;
//! a training step samples one operation type per position (a "path"),
//! runs it, and updates only the touched weights. Operations that cannot
//! set their output width (sample, aggregate) get an appended alignment
//! linear so every position produces the same hidden width — the paper's
//! dimension-alignment trick; those transforms are disposed of in finalised
//! architectures.

use hgnas_autograd::{Tape, Var};
use hgnas_graph::{knn_brute_segments, random_neighbors_segments};
use hgnas_nn::{Activation, Linear, Mlp, Module, Optimizer, Param};
use hgnas_ops::{ConnectFn, FunctionSet, OpType, SampleFn};
use hgnas_pointcloud::{fresh_cache_source, Batch, PointCloud, TaskKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A weight-sharing supernet over the operation space, with the function
/// space fixed to an (upper, lower) pair of [`FunctionSet`]s.
#[derive(Debug)]
pub struct Supernet {
    positions: usize,
    hidden: usize,
    k: usize,
    classes: usize,
    task: TaskKind,
    upper: FunctionSet,
    lower: FunctionSet,
    stem: Linear,
    aligns: Vec<Linear>,
    combines: Vec<Linear>,
    head: Mlp,
    /// Cache-source token identifying the current weight version (see
    /// [`fresh_cache_source`]). Frozen forwards key per-batch neighbor
    /// caches under it; the token is re-drawn by every code path that
    /// mutates weights ([`Supernet::train_epoch`],
    /// [`Supernet::import_weights`]), which retires all stale entries.
    version: u64,
}

impl Supernet {
    /// Builds a classification supernet with `positions` slots of width
    /// `hidden`. Weight initialisation (and hence every downstream number)
    /// is bit-identical to the pre-task-trait constructor.
    ///
    /// # Panics
    ///
    /// Panics if `positions == 0`.
    // One over clippy's budget; the args are the supernet's geometry and
    // all are mandatory, so a builder would only add ceremony.
    #[allow(clippy::too_many_arguments)]
    pub fn new<R: Rng>(
        rng: &mut R,
        positions: usize,
        hidden: usize,
        k: usize,
        classes: usize,
        upper: FunctionSet,
        lower: FunctionSet,
        head_hidden: &[usize],
    ) -> Self {
        Self::for_task(
            rng,
            TaskKind::Classification,
            positions,
            hidden,
            k,
            classes,
            upper,
            lower,
            head_hidden,
        )
    }

    /// Builds a supernet for an arbitrary task. Per-cloud tasks get the
    /// classic max‖mean-pooled head (in-width `2·hidden`); per-point tasks
    /// keep per-point features and concatenate the pooled global descriptor
    /// onto every row, so the head reads `3·hidden` and emits one logit row
    /// per point. `classes` is the task's output width
    /// ([`hgnas_pointcloud::Task::out_classes`]), not necessarily the
    /// dataset's class count.
    ///
    /// # Panics
    ///
    /// Panics if `positions == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn for_task<R: Rng>(
        rng: &mut R,
        task: TaskKind,
        positions: usize,
        hidden: usize,
        k: usize,
        classes: usize,
        upper: FunctionSet,
        lower: FunctionSet,
        head_hidden: &[usize],
    ) -> Self {
        assert!(positions > 0, "need at least one position");
        let per_point = task.task().per_point();
        let stem = Linear::new(rng, 3, hidden);
        let half = positions / 2;
        let mut aligns = Vec::with_capacity(positions);
        let mut combines = Vec::with_capacity(positions);
        for p in 0..positions {
            let fs = if p < half { upper } else { lower };
            aligns.push(Linear::new(rng, fs.message.width(hidden), hidden));
            combines.push(Linear::new(rng, hidden, hidden));
        }
        let mut head_dims = vec![if per_point { 3 * hidden } else { 2 * hidden }];
        head_dims.extend_from_slice(head_hidden);
        head_dims.push(classes);
        let head = Mlp::new(rng, &head_dims, Activation::Relu);
        Supernet {
            positions,
            hidden,
            k,
            classes,
            task,
            upper,
            lower,
            stem,
            aligns,
            combines,
            head,
            version: fresh_cache_source(),
        }
    }

    /// The task this supernet's head was built for.
    pub fn task_kind(&self) -> TaskKind {
        self.task
    }

    /// Number of positions.
    pub fn positions(&self) -> usize {
        self.positions
    }

    /// The function set governing position `p`.
    pub fn function_set(&self, p: usize) -> FunctionSet {
        if p < self.positions / 2 {
            self.upper
        } else {
            self.lower
        }
    }

    /// Samples a uniformly random path (one op type per position).
    pub fn random_genome<R: Rng>(&self, rng: &mut R) -> Vec<OpType> {
        (0..self.positions)
            .map(|_| OpType::ALL[rng.gen_range(0..OpType::ALL.len())])
            .collect()
    }

    /// Forward pass along the path `genome`, returning `[clouds, classes]`
    /// logits.
    ///
    /// # Panics
    ///
    /// Panics if `genome.len() != positions`.
    pub fn forward(
        &self,
        tape: &mut Tape,
        batch: &Batch,
        genome: &[OpType],
        rng: &mut StdRng,
    ) -> Var {
        self.forward_impl(tape, batch, genome, rng, false)
    }

    /// Forward pass with weights entering the tape as plain inputs (no
    /// gradient tracking, no parameter bindings mutated). Numerically
    /// identical to [`Supernet::forward`]; safe to call from many threads
    /// sharing `&self`, which is what the parallel candidate evaluator does.
    pub fn forward_frozen(
        &self,
        tape: &mut Tape,
        batch: &Batch,
        genome: &[OpType],
        rng: &mut StdRng,
    ) -> Var {
        self.forward_impl(tape, batch, genome, rng, true)
    }

    fn forward_impl(
        &self,
        tape: &mut Tape,
        batch: &Batch,
        genome: &[OpType],
        rng: &mut StdRng,
        frozen: bool,
    ) -> Var {
        assert_eq!(genome.len(), self.positions, "genome length mismatch");
        let lin = |layer: &Linear, tape: &mut Tape, x: Var| {
            if frozen {
                layer.forward_frozen(tape, x)
            } else {
                layer.forward(tape, x)
            }
        };
        let h0 = tape.input(batch.points.clone());
        let mut h = lin(&self.stem, tape, h0);
        h = tape.relu(h);
        let mut skip = h;
        let mut neighbors: Option<Arc<Vec<usize>>> = None;
        // The `h` that `neighbors` is the KNN graph of, if it is one: a
        // `Sample(Knn)` over the same `h` (say `Sample, Sample`, or
        // `Sample, Connect(Identity), Sample`) keeps the graph it would
        // rebuild bit for bit. A random graph is never kept, since every
        // `Sample(Random)` draws from `rng`.
        let mut knn_of: Option<Var> = None;
        let hd = self.hidden;
        let k = self.k;
        // While true, `h` is exactly `relu(stem(points))` — a pure function
        // of (batch, current weights). Under a *frozen* forward the weights
        // are pinned to `self.version`, so KNN graphs over pristine `h` are
        // cacheable per batch under that token. Training-mode forwards
        // mutate weights step to step and never consult the cache.
        let mut h_pristine = true;
        let knn_graph = |tape: &Tape, h: Var, h_pristine: bool| {
            let build = || knn_brute_segments(tape.value(h).data(), &batch.segments, hd, k);
            if frozen && h_pristine {
                batch.cached_neighbors(self.version, k, build)
            } else {
                Arc::new(build())
            }
        };

        for (p, &ty) in genome.iter().enumerate() {
            let fs = self.function_set(p);
            match ty {
                OpType::Sample => match fs.sample {
                    SampleFn::Knn => {
                        if knn_of != Some(h) {
                            neighbors = Some(knn_graph(tape, h, h_pristine));
                            knn_of = Some(h);
                        }
                    }
                    SampleFn::Random => {
                        neighbors =
                            Some(Arc::new(random_neighbors_segments(rng, &batch.segments, k)));
                        knn_of = None;
                    }
                },
                OpType::Aggregate => {
                    let idx = neighbors.get_or_insert_with(|| knn_graph(tape, h, h_pristine));
                    let agg = tape.edge_aggregate(
                        h,
                        Arc::clone(idx),
                        k,
                        fs.message.edge_message(),
                        fs.aggregator.reduction(),
                    );
                    h = lin(&self.aligns[p], tape, agg);
                    h = tape.relu(h);
                    h_pristine = false;
                }
                OpType::Combine => {
                    h = lin(&self.combines[p], tape, h);
                    h = tape.relu(h);
                    h_pristine = false;
                }
                OpType::Connect => match fs.connect {
                    ConnectFn::Identity => {}
                    ConnectFn::Skip => {
                        h = tape.add(h, skip);
                        skip = h;
                        h_pristine = false;
                    }
                },
            }
        }

        let mx = tape.segment_pool(h, &batch.segments, hgnas_autograd::Reduction::Max);
        let mn = tape.segment_pool(h, &batch.segments, hgnas_autograd::Reduction::Mean);
        let pooled = tape.concat_cols(&[mx, mn]);
        let feat = if self.task.task().per_point() {
            // Per-point head: broadcast each cloud's pooled global
            // descriptor back onto its rows and append it to the per-point
            // features (the PointNet-style segmentation head shape).
            let mut cloud_of_row = Vec::with_capacity(batch.points.dims()[0]);
            for (ci, &n) in batch.segments.iter().enumerate() {
                cloud_of_row.extend(std::iter::repeat_n(ci, n));
            }
            let global = tape.gather_rows(pooled, &cloud_of_row);
            tape.concat_cols(&[h, global])
        } else {
            pooled
        };
        if frozen {
            self.head.forward_frozen(tape, feat)
        } else {
            self.head.forward(tape, feat)
        }
    }

    /// The label vector a batch is scored against under this supernet's
    /// task: per-cloud labels, or per-point labels for per-point tasks.
    ///
    /// # Panics
    ///
    /// Panics if the task is per-point but the batch was stacked without
    /// point labels (i.e. not via the task's own
    /// [`hgnas_pointcloud::Task::batches`]).
    fn targets<'b>(&self, batch: &'b Batch) -> &'b [usize] {
        if self.task.task().per_point() {
            assert!(
                !batch.point_labels.is_empty(),
                "per-point task scored against a batch with no point labels; \
                 stack batches via the task's `batches`"
            );
            &batch.point_labels
        } else {
            &batch.labels
        }
    }

    /// The weight tensors in [`Module::params`] order — what a session
    /// spill persists so a pre-trained supernet can be rebuilt without
    /// retraining. Optimizer state (moments, timestep) is deliberately
    /// excluded: a session snapshot is only taken after pre-training ends,
    /// when the optimizer is already gone.
    pub fn export_weights(&self) -> Vec<hgnas_tensor::Tensor> {
        self.params().iter().map(|p| p.value().clone()).collect()
    }

    /// Overwrites every parameter with weights captured by
    /// [`Supernet::export_weights`] from a supernet of the same geometry.
    /// Frozen forward passes (the only thing a restored session runs) are
    /// bit-identical to the exporting supernet's.
    ///
    /// # Panics
    ///
    /// Panics on a parameter-count or shape mismatch.
    pub fn import_weights(&mut self, weights: &[hgnas_tensor::Tensor]) {
        let mut params = self.params_mut();
        assert_eq!(
            params.len(),
            weights.len(),
            "supernet weight count mismatch"
        );
        for (p, w) in params.iter_mut().zip(weights) {
            p.set_value(w.clone());
        }
        self.version = fresh_cache_source();
    }

    /// One SPOS training epoch: a fresh random path per batch. Returns the
    /// mean batch loss.
    pub fn train_epoch(&mut self, batches: &[Batch], opt: &mut Optimizer, rng: &mut StdRng) -> f32 {
        let mut total = 0.0f32;
        for batch in batches {
            let genome = self.random_genome(rng);
            let mut tape = Tape::new();
            let logits = self.forward(&mut tape, batch, &genome, rng);
            let loss = tape.softmax_cross_entropy(logits, self.targets(batch));
            total += tape.value(loss).item();
            tape.backward(loss);
            self.apply_updates(&tape, opt);
        }
        // Weights changed: retire every frozen-graph cache entry keyed under
        // the old version token.
        self.version = fresh_cache_source();
        total / batches.len().max(1) as f32
    }

    /// One-shot accuracy of a fixed path on an evaluation split.
    ///
    /// Stacks the clouds into fresh batches on every call; candidate loops
    /// scoring many genomes against the same split should pre-build batches
    /// once and use [`Supernet::eval_genome_batched`], which also lets the
    /// per-batch frozen-graph caches pay off across candidates.
    pub fn eval_genome(&self, genome: &[OpType], clouds: &[PointCloud], seed: u64) -> f64 {
        self.eval_genome_batched(genome, &self.task.task().batches(clouds, 16), seed)
    }

    /// [`Supernet::eval_genome`] over pre-built batches. Frozen forwards
    /// only, so pristine-stem KNN graphs land in each batch's neighbor cache
    /// keyed by the current weight version — shared across every candidate
    /// (and every thread) evaluated against the same batches.
    pub fn eval_genome_batched(&self, genome: &[OpType], batches: &[Batch], seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut pred = Vec::new();
        let mut truth = Vec::new();
        for batch in batches {
            let mut tape = Tape::new();
            let logits = self.forward_frozen(&mut tape, batch, genome, &mut rng);
            pred.extend(hgnas_nn::metrics::predictions(
                tape.value(logits).data(),
                self.classes,
            ));
            truth.extend_from_slice(self.targets(batch));
        }
        hgnas_nn::metrics::overall_accuracy(&pred, &truth)
    }
}

impl Module for Supernet {
    fn params(&self) -> Vec<&Param> {
        let mut p = self.stem.params();
        p.extend(self.aligns.iter().flat_map(Module::params));
        p.extend(self.combines.iter().flat_map(Module::params));
        p.extend(self.head.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = self.stem.params_mut();
        p.extend(self.aligns.iter_mut().flat_map(Module::params_mut));
        p.extend(self.combines.iter_mut().flat_map(Module::params_mut));
        p.extend(self.head.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgnas_ops::MessageType;
    use hgnas_pointcloud::{DatasetConfig, SynthNet40};

    fn tiny_supernet(seed: u64) -> (Supernet, SynthNet40) {
        let ds = SynthNet40::generate(&DatasetConfig::tiny(seed));
        let mut rng = StdRng::seed_from_u64(seed);
        let sn = Supernet::new(
            &mut rng,
            6,
            16,
            8,
            ds.classes,
            FunctionSet::dgcnn_like(16),
            FunctionSet::dgcnn_like(16),
            &[16],
        );
        (sn, ds)
    }

    #[test]
    fn any_path_produces_logits() {
        let (sn, ds) = tiny_supernet(1);
        let batch = SynthNet40::batches(&ds.train[..4], 4).remove(0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..6 {
            let genome = sn.random_genome(&mut rng);
            let mut tape = Tape::new();
            let logits = sn.forward(&mut tape, &batch, &genome, &mut rng);
            assert_eq!(tape.value(logits).dims(), &[4, ds.classes]);
        }
    }

    #[test]
    fn spos_training_reduces_loss() {
        let (mut sn, ds) = tiny_supernet(3);
        let batches = SynthNet40::batches(&ds.train, 8);
        let mut opt = Optimizer::adam(3e-3);
        let mut rng = StdRng::seed_from_u64(4);
        let first = sn.train_epoch(&batches, &mut opt, &mut rng);
        let mut last = first;
        for _ in 0..6 {
            last = sn.train_epoch(&batches, &mut opt, &mut rng);
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn eval_genome_deterministic_for_knn_paths() {
        let (sn, ds) = tiny_supernet(5);
        let genome = vec![
            OpType::Sample,
            OpType::Aggregate,
            OpType::Combine,
            OpType::Connect,
            OpType::Aggregate,
            OpType::Combine,
        ];
        let a = sn.eval_genome(&genome, &ds.test, 1);
        let b = sn.eval_genome(&genome, &ds.test, 99);
        assert_eq!(a, b);
    }

    #[test]
    fn exported_weights_rebuild_a_bit_identical_supernet() {
        let (mut sn, ds) = tiny_supernet(8);
        let batches = SynthNet40::batches(&ds.train, 8);
        let mut opt = Optimizer::adam(3e-3);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..2 {
            sn.train_epoch(&batches, &mut opt, &mut rng);
        }
        let weights = sn.export_weights();

        // A freshly initialised clone of the geometry, overwritten with the
        // trained weights, evaluates every path bit-identically.
        let (mut other, _) = tiny_supernet(999);
        other.import_weights(&weights);
        let mut path_rng = StdRng::seed_from_u64(10);
        for _ in 0..4 {
            let genome = sn.random_genome(&mut path_rng);
            assert_eq!(
                sn.eval_genome(&genome, &ds.test, 0).to_bits(),
                other.eval_genome(&genome, &ds.test, 0).to_bits()
            );
        }
    }

    #[test]
    fn for_task_classification_matches_new_bit_for_bit() {
        let mut a_rng = StdRng::seed_from_u64(31);
        let mut b_rng = StdRng::seed_from_u64(31);
        let fs = FunctionSet::dgcnn_like(16);
        let a = Supernet::new(&mut a_rng, 6, 16, 8, 4, fs, fs, &[16]);
        let b = Supernet::for_task(
            &mut b_rng,
            TaskKind::Classification,
            6,
            16,
            8,
            4,
            fs,
            fs,
            &[16],
        );
        for (x, y) in a.export_weights().iter().zip(&b.export_weights()) {
            assert_eq!(x.dims(), y.dims());
            for (u, v) in x.data().iter().zip(y.data()) {
                assert_eq!(u.to_bits(), v.to_bits());
            }
        }
    }

    #[test]
    fn per_point_supernet_learns_the_octant_task() {
        let ds = SynthNet40::generate(&DatasetConfig::tiny(21));
        let task = TaskKind::Segmentation;
        let parts = hgnas_pointcloud::SEGMENTATION_PARTS;
        let mut rng = StdRng::seed_from_u64(21);
        let fs = FunctionSet::dgcnn_like(16);
        let mut sn = Supernet::for_task(&mut rng, task, 6, 16, 8, parts, fs, fs, &[16]);
        let batches = task.task().batches(&ds.train, 8);

        // Per-point logits: one row per stacked point, one column per part.
        let genome = vec![
            OpType::Sample,
            OpType::Aggregate,
            OpType::Combine,
            OpType::Connect,
            OpType::Aggregate,
            OpType::Combine,
        ];
        let mut tape = Tape::new();
        let mut f_rng = StdRng::seed_from_u64(0);
        let logits = sn.forward_frozen(&mut tape, &batches[0], &genome, &mut f_rng);
        assert_eq!(
            tape.value(logits).dims(),
            &[batches[0].points.dims()[0], parts]
        );

        let mut opt = Optimizer::adam(1e-2);
        let mut t_rng = StdRng::seed_from_u64(22);
        let first = sn.train_epoch(&batches, &mut opt, &mut t_rng);
        let mut last = first;
        for _ in 0..24 {
            last = sn.train_epoch(&batches, &mut opt, &mut t_rng);
        }
        assert!(last < first, "seg loss {first} -> {last}");

        // Octants are sign patterns of xyz — a few epochs beat chance, and
        // the KNN-only path evaluates deterministically.
        let acc = sn.eval_genome(&genome, &ds.test, 0);
        assert!(acc > 1.5 / parts as f64, "octant accuracy {acc}");
        assert_eq!(
            acc.to_bits(),
            sn.eval_genome(&genome, &ds.test, 5).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "no point labels")]
    fn per_point_eval_rejects_unlabelled_batches() {
        let ds = SynthNet40::generate(&DatasetConfig::tiny(23));
        let mut rng = StdRng::seed_from_u64(23);
        let fs = FunctionSet::dgcnn_like(16);
        let sn = Supernet::for_task(
            &mut rng,
            TaskKind::Segmentation,
            4,
            16,
            8,
            hgnas_pointcloud::SEGMENTATION_PARTS,
            fs,
            fs,
            &[16],
        );
        // Plain classification batches lack point labels.
        let batches = SynthNet40::batches(&ds.test, 16);
        let genome = vec![
            OpType::Sample,
            OpType::Aggregate,
            OpType::Combine,
            OpType::Connect,
        ];
        sn.eval_genome_batched(&genome, &batches, 0);
    }

    #[test]
    fn different_halves_different_align_widths() {
        let mut rng = StdRng::seed_from_u64(6);
        let upper = FunctionSet {
            message: MessageType::Full,
            ..FunctionSet::dgcnn_like(16)
        };
        let lower = FunctionSet {
            message: MessageType::Distance,
            ..FunctionSet::dgcnn_like(16)
        };
        let sn = Supernet::new(&mut rng, 4, 16, 8, 4, upper, lower, &[8]);
        // Upper positions align from 3*16, lower from width-1 messages.
        assert_eq!(sn.aligns[0].in_dim(), 48);
        assert_eq!(sn.aligns[3].in_dim(), 1);
    }
}
