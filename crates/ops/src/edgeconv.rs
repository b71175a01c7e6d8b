//! The EdgeConv model family: DGCNN and its manually simplified variants.
//!
//! DGCNN applies its MLP *per edge* before max-aggregation — the expensive
//! pattern the HGNAS design space escapes (which does per-node combines).
//! Implementing it faithfully matters for both accuracy (it is the accuracy
//! reference in Tab. II) and cost (its per-edge GEMMs dominate the Pi's
//! combine share in Fig. 3).

use crate::baselines::DgcnnConfig;
use hgnas_autograd::{Reduction, Tape, Var};
use hgnas_graph::knn_brute_segments;
use hgnas_nn::{Activation, Linear, Mlp, Module, Param};
use hgnas_pointcloud::Batch;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// DGCNN-style model: a stack of EdgeConv layers (per-edge MLP on
/// `x_i ‖ (x_j − x_i)`, max aggregation), per-node embedding over the
/// concatenated layer outputs, pooled classifier head.
#[derive(Debug)]
pub struct EdgeConvModel {
    cfg: DgcnnConfig,
    layers: Vec<Linear>,
    emb: Linear,
    head: Mlp,
}

impl EdgeConvModel {
    /// Instantiates the model described by `cfg`.
    pub fn new<R: Rng>(rng: &mut R, cfg: DgcnnConfig) -> Self {
        let layers = cfg
            .layer_dims
            .iter()
            .map(|&(ci, co)| Linear::new(rng, 2 * ci, co))
            .collect();
        let cat_dim: usize = cfg.layer_dims.iter().map(|&(_, co)| co).sum();
        let emb = Linear::new(rng, cat_dim, cfg.emb_dim);
        let mut head_dims = vec![2 * cfg.emb_dim];
        head_dims.extend_from_slice(&cfg.head_hidden);
        head_dims.push(cfg.classes);
        let head = Mlp::new(rng, &head_dims, Activation::Relu);
        EdgeConvModel {
            cfg,
            layers,
            emb,
            head,
        }
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &DgcnnConfig {
        &self.cfg
    }

    /// Forward pass over a stacked batch, returning `[clouds, classes]`
    /// logits.
    ///
    /// Layer 0's graph is a function of the immutable `batch.points` only, so
    /// it comes from the batch's neighbor cache — a multi-epoch train loop
    /// (or a `dynamic == false` config, whose *only* graph is layer 0's) pays
    /// the O(n²) KNN once per batch, not once per forward.
    pub fn forward(&self, tape: &mut Tape, batch: &Batch, _rng: &mut StdRng) -> Var {
        let k = self.cfg.k;
        let mut h = tape.input(batch.points.clone());
        let mut cur_dim = 3usize;
        let mut neighbors: Option<Arc<Vec<usize>>> = None;
        let mut outputs = Vec::with_capacity(self.layers.len());

        for (li, ((ci, co), lin)) in self.cfg.layer_dims.iter().zip(&self.layers).enumerate() {
            debug_assert_eq!(*ci, cur_dim, "layer {li} input width mismatch");
            if li == 0 {
                neighbors = Some(batch.cached_neighbors(Batch::RAW_POINTS_SOURCE, k, || {
                    knn_brute_segments(batch.points.data(), &batch.segments, cur_dim, k)
                }));
            } else if self.cfg.dynamic && li < self.cfg.reuse_after {
                // Dynamic graphs depend on the evolving features (and thus
                // the weights) — never cacheable across forwards.
                let data = tape.value(h).data();
                neighbors = Some(Arc::new(knn_brute_segments(
                    data,
                    &batch.segments,
                    cur_dim,
                    k,
                )));
            }
            let idx: &[usize] = neighbors.as_ref().expect("graph built at layer 0");
            let nbr = tape.gather_rows(h, idx);
            let ctr = tape.repeat_rows(h, k);
            let rel = tape.sub(nbr, ctr);
            let msg = tape.concat_cols(&[ctr, rel]);
            let e = lin.forward(tape, msg);
            let e = tape.relu(e);
            h = tape.reduce_mid(e, k, Reduction::Max);
            cur_dim = *co;
            outputs.push(h);
        }

        let cat = if outputs.len() == 1 {
            outputs[0]
        } else {
            tape.concat_cols(&outputs)
        };
        let embedded = self.emb.forward(tape, cat);
        let embedded = tape.relu(embedded);
        let mx = tape.segment_pool(embedded, &batch.segments, Reduction::Max);
        let mn = tape.segment_pool(embedded, &batch.segments, Reduction::Mean);
        let pooled = tape.concat_cols(&[mx, mn]);
        self.head.forward(tape, pooled)
    }
}

impl Module for EdgeConvModel {
    fn params(&self) -> Vec<&Param> {
        let mut p: Vec<&Param> = self.layers.iter().flat_map(Module::params).collect();
        p.extend(self.emb.params());
        p.extend(self.head.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p: Vec<&mut Param> = self
            .layers
            .iter_mut()
            .flat_map(Module::params_mut)
            .collect();
        p.extend(self.emb.params_mut());
        p.extend(self.head.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgnas_pointcloud::{DatasetConfig, SynthNet40};
    use rand::SeedableRng;

    fn toy_batch() -> Batch {
        let ds = SynthNet40::generate(&DatasetConfig::tiny(11));
        SynthNet40::batches(&ds.train[..3], 3).remove(0)
    }

    #[test]
    fn dgcnn_small_forward_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let model = EdgeConvModel::new(&mut rng, DgcnnConfig::small(4));
        let batch = toy_batch();
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &batch, &mut rng);
        assert_eq!(tape.value(logits).dims(), &[3, 4]);
    }

    #[test]
    fn static_graph_variant_runs() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut cfg = DgcnnConfig::small(4);
        cfg.dynamic = false;
        let model = EdgeConvModel::new(&mut rng, cfg);
        let batch = toy_batch();
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &batch, &mut rng);
        assert_eq!(tape.value(logits).dims(), &[3, 4]);
    }

    #[test]
    fn paper_scale_param_count_near_1_8mb() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = EdgeConvModel::new(&mut rng, DgcnnConfig::paper(40));
        // The paper reports DGCNN at 1.81 MB.
        let mb = model.size_mb();
        assert!((1.2..2.6).contains(&mb), "size {mb} MB");
    }

    #[test]
    fn training_step_reduces_loss() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut model = EdgeConvModel::new(&mut rng, DgcnnConfig::small(4));
        let batch = toy_batch();
        let mut opt = hgnas_nn::Optimizer::adam(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..8 {
            let mut tape = Tape::new();
            let logits = model.forward(&mut tape, &batch, &mut rng);
            let loss = tape.softmax_cross_entropy(logits, &batch.labels);
            last = tape.value(loss).item();
            first.get_or_insert(last);
            tape.backward(loss);
            model.apply_updates(&tape, &mut opt);
        }
        assert!(last < first.unwrap(), "loss {first:?} -> {last}");
    }
}
