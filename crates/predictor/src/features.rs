//! Architecture → graph abstraction and node-feature encoding.
//!
//! Layout of the per-node feature vector (width [`FEATURE_WIDTH`] = 39):
//!
//! | slots | meaning |
//! |-------|---------|
//! | 0–6   | node-kind one-hot: Input, Output, Global, Sample, Aggregate, Combine, Connect (the paper's 7-dim op encoding) |
//! | 7–22  | function descriptor (16): aggregator one-hot (7–10), message one-hot (11–17), sample fn (18–19), connect fn (20–21), combine width / 256 (22) |
//! | 23–38 | graph/data properties (16), non-zero only on the global node |
//!
//! The paper uses a 9-dim function one-hot, which cannot distinguish the
//! 28 aggregate combinations; we widen to a 16-dim multi-hot. The
//! global-property vector is 16-dim as in the paper.

use hgnas_graph::{AdjNorm, DiGraph};
use hgnas_ops::{Architecture, ConnectFn, Operation};
use hgnas_tensor::Tensor;

/// Width of every node feature vector.
pub const FEATURE_WIDTH: usize = 39;

const KIND_INPUT: usize = 0;
const KIND_OUTPUT: usize = 1;
const KIND_GLOBAL: usize = 2;
const KIND_SAMPLE: usize = 3;
const KIND_AGGREGATE: usize = 4;
const KIND_COMBINE: usize = 5;
const KIND_CONNECT: usize = 6;

const FUNC_BASE: usize = 7;
const PROP_BASE: usize = 23;

/// An abstracted architecture graph ready for the GCN predictor.
#[derive(Debug, Clone)]
pub struct ArchGraph {
    /// The dataflow graph (input, ops…, output, global — in that node
    /// order).
    pub graph: DiGraph,
    /// `[nodes, FEATURE_WIDTH]` node features.
    pub features: Tensor,
}

impl ArchGraph {
    /// Dense symmetric-normalised adjacency with self loops, as the GCN
    /// layers consume it.
    pub fn adjacency(&self) -> Tensor {
        let n = self.graph.len();
        Tensor::from_vec(self.graph.adjacency(AdjNorm::Symmetric, true), &[n, n])
    }
}

/// Data/context properties encoded into the global node: everything the
/// latency of an architecture depends on besides the ops themselves.
fn global_properties(arch: &Architecture, points: usize) -> [f32; 16] {
    let mut p = [0.0f32; 16];
    let n_ops = arch.len() as f32;
    p[0] = points as f32 / 2048.0;
    p[1] = arch.k as f32 / 32.0;
    p[2] = n_ops / 16.0;
    p[3] = arch.count(hgnas_ops::OpType::Sample) as f32 / n_ops;
    p[4] = arch.count(hgnas_ops::OpType::Aggregate) as f32 / n_ops;
    p[5] = arch.count(hgnas_ops::OpType::Combine) as f32 / n_ops;
    p[6] = arch.count(hgnas_ops::OpType::Connect) as f32 / n_ops;
    p[7] = (points as f32).ln() / 8.0;
    p[8] = arch.classes as f32 / 40.0;
    // Feature-width trace summary: mean and max width relative to 256, a
    // strong latency covariate.
    let dims = arch.dim_trace(3);
    let max_w = dims.iter().copied().max().unwrap_or(3) as f32;
    let mean_w = dims.iter().sum::<usize>() as f32 / dims.len() as f32;
    p[9] = (max_w / 256.0).min(4.0);
    p[10] = (mean_w / 256.0).min(4.0);
    p[11] = (points * arch.k) as f32 / 65536.0;
    p[12] = 1.0; // bias
    p
}

/// Abstracts an architecture into the predictor's input graph.
///
/// Nodes: `input`, one per operation (in pipeline order), `output`, and the
/// `global` node wired to every other node in both directions. Edges follow
/// dataflow: the sequential chain plus one extra edge per skip connection
/// from its merge source.
pub fn arch_to_graph(arch: &Architecture, points: usize) -> ArchGraph {
    arch_to_graph_with(arch, points, true)
}

/// [`arch_to_graph`] with the global node optionally removed — the ablation
/// behind the paper's claim that "the plain abstraction … is too sparse for
/// the predictor" (Sec. III-D). Without the global node the graph keeps only
/// the sequential dataflow chain and loses the input-data properties.
pub fn arch_to_graph_with(arch: &Architecture, points: usize, global_node: bool) -> ArchGraph {
    if global_node {
        return build(arch, points, true);
    }
    build(arch, points, false)
}

fn build(arch: &Architecture, points: usize, with_global: bool) -> ArchGraph {
    let n_ops = arch.len();
    let n_nodes = n_ops + 2 + usize::from(with_global);
    let input = 0usize;
    let output = n_ops + 1;
    let global = n_ops + 2; // only a valid node when `with_global`

    let mut g = DiGraph::new(n_nodes);
    // Sequential dataflow chain.
    for i in 0..n_ops {
        g.add_edge(if i == 0 { input } else { i }, i + 1);
    }
    g.add_edge(n_ops, output);
    // Skip connections: each Connect(Skip) additionally receives dataflow
    // from the previous skip merge point (or the input).
    let mut skip_src = input;
    for (i, op) in arch.ops.iter().enumerate() {
        if matches!(op, Operation::Connect(ConnectFn::Skip)) {
            let node = i + 1;
            if skip_src + 1 < node {
                g.add_edge(skip_src, node);
            }
            skip_src = node;
        }
    }
    // Global node, bidirectional to improve connectivity (paper Fig. 5).
    if with_global {
        for v in 0..n_nodes - 1 {
            g.add_edge(global, v);
            g.add_edge(v, global);
        }
    }

    let mut feats = vec![0.0f32; n_nodes * FEATURE_WIDTH];
    let mut set = |node: usize, slot: usize, v: f32| {
        feats[node * FEATURE_WIDTH + slot] = v;
    };
    set(input, KIND_INPUT, 1.0);
    set(output, KIND_OUTPUT, 1.0);
    if with_global {
        set(global, KIND_GLOBAL, 1.0);
    }
    for (i, op) in arch.ops.iter().enumerate() {
        let node = i + 1;
        match *op {
            Operation::Sample(f) => {
                set(node, KIND_SAMPLE, 1.0);
                set(node, FUNC_BASE + 11 + f.index(), 1.0);
            }
            Operation::Aggregate { agg, msg } => {
                set(node, KIND_AGGREGATE, 1.0);
                set(node, FUNC_BASE + agg.index(), 1.0);
                set(node, FUNC_BASE + 4 + msg.index(), 1.0);
            }
            Operation::Combine { dim } => {
                set(node, KIND_COMBINE, 1.0);
                set(node, FUNC_BASE + 15, dim as f32 / 256.0);
            }
            Operation::Connect(c) => {
                set(node, KIND_CONNECT, 1.0);
                set(node, FUNC_BASE + 13 + c.index(), 1.0);
            }
        }
    }
    if with_global {
        for (j, v) in global_properties(arch, points).iter().enumerate() {
            set(global, PROP_BASE + j, *v);
        }
    }

    ArchGraph {
        graph: g,
        features: Tensor::from_vec(feats, &[n_nodes, FEATURE_WIDTH]),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hgnas_ops::{Aggregator, MessageType, SampleFn};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn arch() -> Architecture {
        Architecture::new(
            vec![
                Operation::Sample(SampleFn::Knn),
                Operation::Combine { dim: 64 },
                Operation::Aggregate {
                    agg: Aggregator::Max,
                    msg: MessageType::TargetRel,
                },
                Operation::Connect(ConnectFn::Skip),
            ],
            10,
            4,
        )
    }

    #[test]
    fn node_count_is_ops_plus_three() {
        let ag = arch_to_graph(&arch(), 128);
        assert_eq!(ag.graph.len(), 4 + 3);
        assert_eq!(ag.features.dims(), &[7, FEATURE_WIDTH]);
    }

    #[test]
    fn global_node_connects_everything() {
        let ag = arch_to_graph(&arch(), 128);
        let global = ag.graph.len() - 1;
        // out-degree counts the global->v edges.
        assert_eq!(ag.graph.out_degree(global), ag.graph.len() - 1);
        assert_eq!(ag.graph.in_degree(global), ag.graph.len() - 1);
    }

    #[test]
    fn features_one_hot_per_kind() {
        let ag = arch_to_graph(&arch(), 128);
        // Node 1 is the sample op.
        let row = &ag.features.data()[FEATURE_WIDTH..2 * FEATURE_WIDTH];
        assert_eq!(row[KIND_SAMPLE], 1.0);
        assert_eq!(row[FUNC_BASE + 11 + SampleFn::Knn.index()], 1.0);
        // Combine node encodes width/256.
        let row = &ag.features.data()[2 * FEATURE_WIDTH..3 * FEATURE_WIDTH];
        assert_eq!(row[FUNC_BASE + 15], 0.25);
    }

    #[test]
    fn properties_change_with_points() {
        let a = arch();
        let g1 = arch_to_graph(&a, 128);
        let g2 = arch_to_graph(&a, 1024);
        assert_ne!(g1.features.data(), g2.features.data());
        // Op encodings identical, only the global row differs.
        let w = FEATURE_WIDTH;
        let n = g1.graph.len();
        assert_eq!(
            &g1.features.data()[..(n - 1) * w],
            &g2.features.data()[..(n - 1) * w]
        );
    }

    #[test]
    fn random_archs_encode_without_panic() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let a = Architecture::random(&mut rng, 12, 20, 40);
            let g = arch_to_graph(&a, 1024);
            assert!(g.features.data().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn adjacency_is_normalised_and_symmetric() {
        let ag = arch_to_graph(&arch(), 256);
        let a = ag.adjacency();
        let n = ag.graph.len();
        for i in 0..n {
            for j in 0..n {
                assert!((a.at2(i, j) - a.at2(j, i)).abs() < 1e-6);
            }
            assert!(a.at2(i, i) > 0.0, "self loop row {i}");
        }
    }
}
