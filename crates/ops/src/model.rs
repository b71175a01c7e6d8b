//! The trainable executor for fine-grained architectures.

use crate::ir::{Architecture, ConnectFn, Operation, SampleFn};
use hgnas_autograd::{Reduction, Tape, Var};
use hgnas_graph::{knn_brute_segments, random_neighbors_segments};
use hgnas_nn::{Activation, Linear, Mlp, Module, Param};
use hgnas_pointcloud::Batch;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;

/// A concrete, trainable instantiation of an [`Architecture`]: one
/// [`Linear`] per combine op plus a pooled classifier head.
///
/// Execution semantics (mirrored exactly by
/// [`Architecture::dim_trace`]):
///
/// - `Sample` rebuilds the neighbour graph from the *current* features
///   (KNN) or uniformly at random;
/// - `Aggregate` with no prior sample implicitly builds a KNN graph on the
///   raw input coordinates;
/// - `Combine` applies `Linear` + ReLU per node;
/// - `Connect(Skip)` merges a skip register (elementwise add when widths
///   match, feature concat otherwise), then re-arms the register;
/// - the head concatenates per-cloud max and mean pooling and applies an
///   MLP down to class logits.
#[derive(Debug)]
pub struct GnnModel {
    arch: Architecture,
    combines: Vec<Linear>,
    head: Mlp,
    in_dim: usize,
}

impl GnnModel {
    /// Instantiates parameters for `arch` on 3-D point input.
    ///
    /// `head_hidden` are the classifier's hidden widths (e.g. `[128]`).
    pub fn new<R: Rng>(rng: &mut R, arch: Architecture, head_hidden: &[usize]) -> Self {
        let in_dim = 3;
        let dims = arch.dim_trace(in_dim);
        let mut combines = Vec::new();
        let mut cur = in_dim;
        for (op, &after) in arch.ops.iter().zip(&dims) {
            if let Operation::Combine { dim } = op {
                combines.push(Linear::new(rng, cur, *dim));
            }
            cur = after;
        }
        let out = arch.out_dim(in_dim);
        let mut head_dims = vec![2 * out];
        head_dims.extend_from_slice(head_hidden);
        head_dims.push(arch.classes);
        let head = Mlp::new(rng, &head_dims, Activation::Relu);
        GnnModel {
            arch,
            combines,
            head,
            in_dim,
        }
    }

    /// The architecture this model realises.
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// Forward pass over a stacked batch, returning `[clouds, classes]`
    /// logits.
    ///
    /// # Panics
    ///
    /// Panics if any cloud has `≤ k` points.
    pub fn forward(&self, tape: &mut Tape, batch: &Batch, rng: &mut StdRng) -> Var {
        let k = self.arch.k;
        let mut h = tape.input(batch.points.clone());
        let mut cur_dim = self.in_dim;
        let mut skip = h;
        let mut skip_dim = cur_dim;
        let mut neighbors: Option<Arc<Vec<usize>>> = None;
        let mut combine_idx = 0usize;
        // True until an op overwrites `h`: while it holds, `h` is exactly
        // `batch.points`, so a KNN over it is a pure function of the batch
        // and comes from the per-batch cache.
        let mut h_is_raw = true;

        for op in &self.arch.ops {
            match *op {
                Operation::Sample(func) => {
                    neighbors = Some(match func {
                        SampleFn::Knn if h_is_raw => {
                            batch.cached_neighbors(Batch::RAW_POINTS_SOURCE, k, || {
                                knn_brute_segments(batch.points.data(), &batch.segments, cur_dim, k)
                            })
                        }
                        SampleFn::Knn => Arc::new(knn_brute_segments(
                            tape.value(h).data(),
                            &batch.segments,
                            cur_dim,
                            k,
                        )),
                        SampleFn::Random => {
                            Arc::new(random_neighbors_segments(rng, &batch.segments, k))
                        }
                    });
                }
                Operation::Aggregate { agg, msg } => {
                    // Implicit graph on raw input coordinates — always a
                    // pure function of the batch, so always cacheable.
                    let idx = neighbors.get_or_insert_with(|| {
                        batch.cached_neighbors(Batch::RAW_POINTS_SOURCE, k, || {
                            knn_brute_segments(batch.points.data(), &batch.segments, self.in_dim, k)
                        })
                    });
                    h = tape.edge_aggregate(
                        h,
                        Arc::clone(idx),
                        k,
                        msg.edge_message(),
                        agg.reduction(),
                    );
                    cur_dim = msg.width(cur_dim);
                    h_is_raw = false;
                }
                Operation::Combine { dim } => {
                    let lin = &self.combines[combine_idx];
                    combine_idx += 1;
                    h = lin.forward(tape, h);
                    h = tape.relu(h);
                    cur_dim = dim;
                    h_is_raw = false;
                }
                Operation::Connect(ConnectFn::Identity) => {}
                Operation::Connect(ConnectFn::Skip) => {
                    if cur_dim == skip_dim {
                        h = tape.add(h, skip);
                    } else {
                        h = tape.concat_cols(&[h, skip]);
                        cur_dim += skip_dim;
                    }
                    skip = h;
                    skip_dim = cur_dim;
                    h_is_raw = false;
                }
            }
        }

        let mx = tape.segment_pool(h, &batch.segments, Reduction::Max);
        let mn = tape.segment_pool(h, &batch.segments, Reduction::Mean);
        let pooled = tape.concat_cols(&[mx, mn]);
        self.head.forward(tape, pooled)
    }
}

impl Module for GnnModel {
    fn params(&self) -> Vec<&Param> {
        let mut p: Vec<&Param> = self.combines.iter().flat_map(Module::params).collect();
        p.extend(self.head.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p: Vec<&mut Param> = self
            .combines
            .iter_mut()
            .flat_map(Module::params_mut)
            .collect();
        p.extend(self.head.params_mut());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Aggregator, FunctionSet, MessageType, OpType};
    use hgnas_pointcloud::{DatasetConfig, SynthNet40};
    use rand::SeedableRng;

    fn toy_batch() -> Batch {
        let ds = SynthNet40::generate(&DatasetConfig::tiny(1));
        SynthNet40::batches(&ds.train[..4], 4).remove(0)
    }

    fn toy_arch() -> Architecture {
        Architecture::new(
            vec![
                Operation::Sample(SampleFn::Knn),
                Operation::Combine { dim: 16 },
                Operation::Aggregate {
                    agg: Aggregator::Max,
                    msg: MessageType::TargetRel,
                },
                Operation::Connect(ConnectFn::Skip),
                Operation::Combine { dim: 32 },
            ],
            8,
            4,
        )
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(2);
        let model = GnnModel::new(&mut rng, toy_arch(), &[24]);
        let batch = toy_batch();
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &batch, &mut rng);
        assert_eq!(tape.value(logits).dims(), &[4, 4]);
    }

    #[test]
    fn implicit_graph_when_aggregate_first() {
        let arch = Architecture::new(
            vec![Operation::Aggregate {
                agg: Aggregator::Mean,
                msg: MessageType::RelPos,
            }],
            8,
            4,
        );
        let mut rng = StdRng::seed_from_u64(3);
        let model = GnnModel::new(&mut rng, arch, &[8]);
        let batch = toy_batch();
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &batch, &mut rng);
        assert_eq!(tape.value(logits).dims(), &[4, 4]);
    }

    #[test]
    fn genome_built_model_runs() {
        let types = vec![
            OpType::Sample,
            OpType::Combine,
            OpType::Aggregate,
            OpType::Connect,
            OpType::Combine,
            OpType::Aggregate,
        ];
        let arch = Architecture::from_genome(
            &types,
            FunctionSet::dgcnn_like(32),
            FunctionSet::dgcnn_like(64),
            8,
            4,
        );
        let mut rng = StdRng::seed_from_u64(4);
        let model = GnnModel::new(&mut rng, arch, &[16]);
        let batch = toy_batch();
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &batch, &mut rng);
        assert_eq!(tape.value(logits).dims()[1], 4);
    }

    #[test]
    fn gradients_reach_all_params() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut model = GnnModel::new(&mut rng, toy_arch(), &[24]);
        let batch = toy_batch();
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &batch, &mut rng);
        let loss = tape.softmax_cross_entropy(logits, &batch.labels);
        tape.backward(loss);
        let mut opt = hgnas_nn::Optimizer::adam(1e-3);
        let before: Vec<f32> = model.params().iter().map(|p| p.value().sq_norm()).collect();
        model.apply_updates(&tape, &mut opt);
        let after: Vec<f32> = model.params().iter().map(|p| p.value().sq_norm()).collect();
        let changed = before
            .iter()
            .zip(&after)
            .filter(|(b, a)| (*b - *a).abs() > 0.0)
            .count();
        assert!(
            changed >= before.len() - 1,
            "only {changed}/{} params updated",
            before.len()
        );
    }

    #[test]
    fn distance_message_width_one() {
        let arch = Architecture::new(
            vec![
                Operation::Sample(SampleFn::Random),
                Operation::Aggregate {
                    agg: Aggregator::Sum,
                    msg: MessageType::Distance,
                },
                Operation::Combine { dim: 8 },
            ],
            8,
            4,
        );
        let mut rng = StdRng::seed_from_u64(6);
        let model = GnnModel::new(&mut rng, arch, &[8]);
        let batch = toy_batch();
        let mut tape = Tape::new();
        let logits = model.forward(&mut tape, &batch, &mut rng);
        assert_eq!(tape.value(logits).dims(), &[4, 4]);
    }
}
