//! The autograd tape: forward op recording and reverse-mode gradient flow.
//!
//! Neighbour aggregation has two forms. [`Tape::edge_aggregate`] is the one
//! the supernet and the searched models run: one op builds each target
//! node's `k` messages in a `k`-row scratch block and reduces the block
//! with [`reduce_block`], so the edge path never builds an `[n·k, c]`
//! tensor, forward or backward. The unfused ops it replaces —
//! [`Tape::gather_rows`], [`Tape::repeat_rows`], [`Tape::sub`],
//! [`Tape::row_norms`] / [`Tape::concat_cols`], [`Tape::reduce_mid`] — stay
//! for EdgeConv (a linear layer sits between its message and its max), for
//! the segmentation head, and as the fused op's test oracle.
//!
//! The fused op returns the chain's bits. Its backward replays the chain's
//! per-element operations edge by edge and keeps the chain's accumulation
//! order into `x`'s gradient: first the target-side fold (what the repeat
//! node adds), then the source-side scatter in edge order (what the gather
//! node adds). `crates/autograd/tests/edge_aggregate.rs` pins both on both
//! lane paths.

use hgnas_tensor::kernels::{
    concat_cols, fold_rows, gather_rows, repeat_rows, row_norms, scatter_add_rows, split_cols,
};
use hgnas_tensor::reduce::{reduce_block, reduce_row_groups, segment_reduce_rows, Reduction};
use hgnas_tensor::{simd, Tensor};
use std::sync::Arc;

/// Handle to a value recorded on a [`Tape`].
///
/// `Var` is a cheap copyable index; it is only meaningful for the tape that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(usize);

impl Var {
    /// Reconstructs a var from a raw tape index (crate-internal; used by the
    /// gradient checker to scan a tape's leaves).
    pub(crate) fn from_index(i: usize) -> Var {
        Var(i)
    }
}

/// Epsilon guarding divisions in norm and MAPE backward passes.
const EPS: f32 = 1e-8;

/// The message [`Tape::edge_aggregate`] builds on the edge from a source
/// node `j` to a target node `i`, from `ctr = x[i]`, `nbr = x[j]` and
/// `rel = nbr − ctr` (the paper's Tab. I message functions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeMessage {
    /// `nbr`.
    Source,
    /// `ctr`.
    Target,
    /// `rel`.
    Rel,
    /// `‖rel‖₂`, one column.
    Distance,
    /// `nbr ‖ rel`.
    SourceRel,
    /// `ctr ‖ rel`.
    TargetRel,
    /// `ctr ‖ nbr ‖ rel`.
    Full,
}

/// Where `ctr`, `nbr` and `rel` sit in a concatenated message, as part
/// indices: part `p` spans columns `p·c..(p+1)·c`.
struct Parts {
    ctr: Option<usize>,
    nbr: Option<usize>,
    rel: Option<usize>,
}

impl EdgeMessage {
    /// All messages, in Tab. I order.
    pub const ALL: [EdgeMessage; 7] = [
        EdgeMessage::Source,
        EdgeMessage::Target,
        EdgeMessage::Rel,
        EdgeMessage::Distance,
        EdgeMessage::SourceRel,
        EdgeMessage::TargetRel,
        EdgeMessage::Full,
    ];

    /// Message width for `c`-wide node features.
    pub fn width(self, c: usize) -> usize {
        match self {
            EdgeMessage::Source | EdgeMessage::Target | EdgeMessage::Rel => c,
            EdgeMessage::Distance => 1,
            EdgeMessage::SourceRel | EdgeMessage::TargetRel => 2 * c,
            EdgeMessage::Full => 3 * c,
        }
    }

    /// The concatenated parts. `Distance` has none: its one column is a
    /// function of `rel`.
    fn parts(self) -> Parts {
        let (ctr, nbr, rel) = match self {
            EdgeMessage::Source => (None, Some(0), None),
            EdgeMessage::Target => (Some(0), None, None),
            EdgeMessage::Rel => (None, None, Some(0)),
            EdgeMessage::Distance => (None, None, None),
            EdgeMessage::SourceRel => (None, Some(0), Some(1)),
            EdgeMessage::TargetRel => (Some(0), None, Some(1)),
            EdgeMessage::Full => (Some(0), Some(1), Some(2)),
        };
        Parts { ctr, nbr, rel }
    }

    /// Writes one edge's message into `row`, leaving `rel` (scratch, `c`
    /// wide) holding `nbr − ctr` when the message reads it.
    fn write(self, ctr: &[f32], nbr: &[f32], rel: &mut [f32], row: &mut [f32]) {
        let c = ctr.len();
        let parts = self.parts();
        if self == EdgeMessage::Distance || parts.rel.is_some() {
            rel.copy_from_slice(nbr);
            simd::sub_assign(rel, ctr);
        }
        if self == EdgeMessage::Distance {
            row[0] = simd::dot(rel, rel).sqrt();
            return;
        }
        for (part, src) in [(parts.ctr, ctr), (parts.nbr, nbr), (parts.rel, &*rel)] {
            if let Some(p) = part {
                row[p * c..(p + 1) * c].copy_from_slice(src);
            }
        }
    }

    /// Splits one edge's message gradient `g` into the gradients of its
    /// source row and its target row, returned as `(src, tgt)` slices of
    /// `scratch` (`4·c` floats; `src` is stale for `Target`, `tgt` for
    /// `Source`). Replays the unfused chain's per-element operations: the
    /// concat split, `g·rel / max(‖rel‖, ε)` for the distance, the sub's
    /// negation of the `rel` gradient, and each concat part first with the
    /// `rel` term added to it.
    fn backward<'s>(
        self,
        g: &[f32],
        ctr: &[f32],
        nbr: &[f32],
        scratch: &'s mut [f32],
    ) -> (&'s [f32], &'s [f32]) {
        let c = ctr.len();
        let (rel, rest) = scratch.split_at_mut(c);
        let (neg, rest) = rest.split_at_mut(c);
        let (src, tgt) = rest.split_at_mut(c);
        let parts = self.parts();
        let part = |p: usize| &g[p * c..(p + 1) * c];
        let grel: Option<&[f32]> = if self == EdgeMessage::Distance {
            rel.copy_from_slice(nbr);
            simd::sub_assign(rel, ctr);
            let nv = simd::dot(rel, rel).sqrt().max(EPS);
            for r in rel.iter_mut() {
                *r = g[0] * *r / nv;
            }
            Some(&*rel)
        } else {
            parts.rel.map(part)
        };
        if self != EdgeMessage::Target {
            sum_into(src, parts.nbr.map(part), grel);
        }
        if self != EdgeMessage::Source {
            let gneg = grel.map(|d| {
                for (n, &v) in neg.iter_mut().zip(d) {
                    *n = -v;
                }
                &*neg
            });
            sum_into(tgt, parts.ctr.map(part), gneg);
        }
        (src, tgt)
    }
}

/// `out = a + b` with `a` as the first operand, the order the chain
/// accumulates a concat part and then the sub's term; a missing term is
/// left out.
fn sum_into(out: &mut [f32], a: Option<&[f32]>, b: Option<&[f32]>) {
    match (a, b) {
        (Some(a), Some(b)) => {
            out.copy_from_slice(a);
            simd::add_assign(out, b);
        }
        (Some(t), None) | (None, Some(t)) => out.copy_from_slice(t),
        (None, None) => unreachable!("every edge side gets a concat part or a rel term"),
    }
}

/// Writes the gradient of a `k`-row block that reduced to one row `g` into
/// `block` (`[k, g.len()]`): every row gets `g` for a sum and `g·(1/k)` for
/// a mean; for max/min each column's winning row (`args`) gets `g` and
/// every other row `0.0`. Zero rows are written, not skipped, so whatever
/// consumes the block sees the same `0.0` operands the chain does.
fn expand_reduce_grad(g: &[f32], k: usize, how: Reduction, args: &[usize], block: &mut [f32]) {
    let c = g.len();
    match how {
        Reduction::Sum | Reduction::Mean => {
            block[..c].copy_from_slice(g);
            if how == Reduction::Mean {
                simd::scale(&mut block[..c], 1.0 / k as f32);
            }
            for r in 1..k {
                block.copy_within(..c, r * c);
            }
        }
        Reduction::Max | Reduction::Min => {
            block.fill(0.0);
            for (j, (&gj, &r)) in g.iter().zip(args).enumerate() {
                block[r * c + j] = gj;
            }
        }
    }
}

/// What the fused aggregation saves for its backward.
struct EdgeAggregate {
    x: Var,
    neighbors: Arc<Vec<usize>>,
    k: usize,
    message: EdgeMessage,
    how: Reduction,
    /// Winner indices for max/min, empty for sum/mean.
    args: Vec<usize>,
}

impl EdgeAggregate {
    /// `x`'s gradient contributions from the output gradient `g`, as a
    /// target-side fold (`None` for `Source`) and a source-side scatter
    /// (`None` for `Target`): each a fresh zeroed `[n, c]` buffer that edge
    /// rows are added to in edge order — what the chain's repeat and
    /// gather nodes add.
    fn backward(&self, x: &[f32], c: usize, g: &[f32]) -> (Option<Vec<f32>>, Option<Vec<f32>>) {
        let (k, message) = (self.k, self.message);
        let n = self.neighbors.len() / k;
        let w = message.width(c);
        let mut fold = (message != EdgeMessage::Source).then(|| vec![0.0f32; n * c]);
        let mut scatter = (message != EdgeMessage::Target).then(|| vec![0.0f32; n * c]);
        if w == 0 {
            return (fold, scatter);
        }
        let mut block = vec![0.0f32; k * w];
        let mut scratch = vec![0.0f32; 4 * c];
        for i in 0..n {
            let block_args = self.args.get(i * w..(i + 1) * w).unwrap_or_default();
            expand_reduce_grad(&g[i * w..(i + 1) * w], k, self.how, block_args, &mut block);
            let ctr = &x[i * c..(i + 1) * c];
            let sources = &self.neighbors[i * k..(i + 1) * k];
            for (ge, &j) in block.chunks_exact(w).zip(sources) {
                let (src, tgt) = message.backward(ge, ctr, &x[j * c..(j + 1) * c], &mut scratch);
                if let Some(fold) = &mut fold {
                    simd::add_assign(&mut fold[i * c..(i + 1) * c], tgt);
                }
                if let Some(scatter) = &mut scatter {
                    simd::add_assign(&mut scatter[j * c..(j + 1) * c], src);
                }
            }
        }
        (fold, scatter)
    }
}

/// The recorded operation for one tape node, including everything the
/// backward pass needs.
enum Op {
    /// Leaf: an input or parameter.
    Leaf,
    /// `a @ b`.
    Matmul(Var, Var),
    /// `x + bias_row` (bias broadcast over rows).
    AddBias(Var, Var),
    /// `a + b`, same shape.
    Add(Var, Var),
    /// `a - b`, same shape.
    Sub(Var, Var),
    /// `a ∘ b`, same shape.
    Mul(Var, Var),
    /// `x * s`.
    Scale(Var, f32),
    /// `relu(x)` with saved input sign mask handled via value lookup.
    Relu(Var),
    /// `leaky_relu(x, slope)`.
    LeakyRelu(Var, f32),
    /// `tanh(x)` — backward uses the saved output.
    Tanh(Var),
    /// Row gather: `out[i] = x[idx[i]]`.
    Gather(Var, Vec<usize>),
    /// Row repeat: each row duplicated `k` times.
    Repeat(Var, usize),
    /// Column concat of several vars with saved widths.
    Concat(Vec<Var>, Vec<usize>),
    /// `[n*k, c]` viewed as `[n,k,c]`, reduced over `k`; saves winner args
    /// for max/min.
    ReduceMid {
        x: Var,
        k: usize,
        how: Reduction,
        args: Vec<usize>,
    },
    /// Fused neighbour aggregation (see [`Tape::edge_aggregate`]).
    EdgeAggregate(EdgeAggregate),
    /// Segment pooling over rows with saved segment offsets and winner args.
    SegmentPool {
        x: Var,
        segments: Vec<usize>,
        how: Reduction,
        args: Vec<usize>,
    },
    /// Per-row L2 norm `[n,c] -> [n,1]`.
    RowNorms(Var),
    /// Mean of all elements -> scalar.
    MeanAll(Var),
    /// Sum of all elements -> scalar.
    SumAll(Var),
    /// Mean softmax cross-entropy against integer labels; saves softmax.
    SoftmaxCrossEntropy {
        logits: Var,
        labels: Vec<usize>,
        softmax: Tensor,
    },
    /// Mean absolute percentage error against constant targets.
    MapeLoss { pred: Var, target: Vec<f32> },
    /// Mean squared error against constant targets.
    MseLoss { pred: Var, target: Vec<f32> },
}

struct Node {
    value: Tensor,
    grad: Option<Tensor>,
    op: Op,
    requires_grad: bool,
}

/// A define-by-run autograd tape.
///
/// Values are recorded in topological order as ops execute, so the backward
/// pass is a single reverse sweep. See the crate docs for a usage example.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Tape { nodes: Vec::new() }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(&mut self, value: Tensor, op: Op, requires_grad: bool) -> Var {
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            requires_grad,
        });
        Var(self.nodes.len() - 1)
    }

    fn requires(&self, v: Var) -> bool {
        self.nodes[v.0].requires_grad
    }

    /// Records a constant input (no gradient tracked).
    pub fn input(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Records a trainable parameter (gradient tracked).
    pub fn param(&mut self, value: Tensor) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// Returns the forward value of `v`.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// Returns the gradient of `v` if it was computed by [`Tape::backward`].
    ///
    /// After `backward`, gradients are kept for leaves ([`Tape::param`])
    /// only: the sweep moves each intermediate node's gradient into its
    /// op's backward instead of copying it, so `grad` of a non-leaf is
    /// `None`.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        self.nodes[v.0].grad.as_ref()
    }

    // ---- forward ops -----------------------------------------------------

    /// Matrix product (2-D × 2-D).
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).matmul(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Matmul(a, b), rg)
    }

    /// Adds a 1-D bias row to every row of a 2-D tensor.
    pub fn add_bias(&mut self, x: Var, bias: Var) -> Var {
        let value = self.value(x).add(self.value(bias));
        let rg = self.requires(x) || self.requires(bias);
        self.push(value, Op::AddBias(x, bias), rg)
    }

    /// Elementwise sum of two same-shaped tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ (the broadcast form is [`Tape::add_bias`]).
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        assert_eq!(
            self.value(a).shape(),
            self.value(b).shape(),
            "add requires same shapes"
        );
        let value = self.value(a).add(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Add(a, b), rg)
    }

    /// Elementwise difference of two same-shaped tensors.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).sub(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Sub(a, b), rg)
    }

    /// Elementwise product of two same-shaped tensors.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let value = self.value(a).mul(self.value(b));
        let rg = self.requires(a) || self.requires(b);
        self.push(value, Op::Mul(a, b), rg)
    }

    /// Multiplies by a compile-time constant.
    pub fn scale(&mut self, x: Var, s: f32) -> Var {
        let value = self.value(x).scale(s);
        let rg = self.requires(x);
        self.push(value, Op::Scale(x, s), rg)
    }

    /// Rectified linear unit (anything not strictly positive — NaN
    /// included — maps to `+0.0`, matching the backward mask).
    pub fn relu(&mut self, x: Var) -> Var {
        let value = self.value(x).relu();
        let rg = self.requires(x);
        self.push(value, Op::Relu(x), rg)
    }

    /// Leaky ReLU with the given negative slope.
    pub fn leaky_relu(&mut self, x: Var, slope: f32) -> Var {
        let value = self.value(x).leaky_relu(slope);
        let rg = self.requires(x);
        self.push(value, Op::LeakyRelu(x, slope), rg)
    }

    /// Hyperbolic tangent.
    pub fn tanh(&mut self, x: Var) -> Var {
        let value = self.value(x).map(f32::tanh);
        let rg = self.requires(x);
        self.push(value, Op::Tanh(x), rg)
    }

    /// Gathers rows by index: `out[i] = x[idx[i]]`.
    pub fn gather_rows(&mut self, x: Var, idx: &[usize]) -> Var {
        let value = gather_rows(self.value(x), idx);
        let rg = self.requires(x);
        self.push(value, Op::Gather(x, idx.to_vec()), rg)
    }

    /// Repeats each row `k` times consecutively.
    pub fn repeat_rows(&mut self, x: Var, k: usize) -> Var {
        let value = repeat_rows(self.value(x), k);
        let rg = self.requires(x);
        self.push(value, Op::Repeat(x, k), rg)
    }

    /// Concatenates 2-D tensors along columns.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols needs at least one part");
        let tensors: Vec<&Tensor> = parts.iter().map(|&p| self.value(p)).collect();
        let widths: Vec<usize> = tensors.iter().map(|t| t.dims()[1]).collect();
        let value = concat_cols(&tensors);
        let rg = parts.iter().any(|&p| self.requires(p));
        self.push(value, Op::Concat(parts.to_vec(), widths), rg)
    }

    /// Reduces each group of `k` consecutive rows of `[n*k, c]` (the `k`
    /// axis of its `[n, k, c]` view, read in place), producing `[n, c]`.
    /// This is neighbour aggregation with a fixed fanout.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the row count of `x` is not a multiple of `k`.
    pub fn reduce_mid(&mut self, x: Var, k: usize, how: Reduction) -> Var {
        let r = reduce_row_groups(self.value(x), k, how);
        let rg = self.requires(x);
        self.push(
            r.values,
            Op::ReduceMid {
                x,
                k,
                how,
                args: r.args,
            },
            rg,
        )
    }

    /// Neighbour aggregation in one op: for every target row `i` of the
    /// `[n, c]` input, builds the messages of its `k` edges from the sources
    /// `neighbors[i·k..(i+1)·k]` and reduces them with `how`, producing
    /// `[n, message.width(c)]`. Returns the bits of the unfused chain
    /// (`gather_rows`, `repeat_rows`, `sub`, `row_norms` or `concat_cols`,
    /// then `reduce_mid`) and gives `x` the same gradient bits, without
    /// building any `[n·k, c]` tensor: the forward allocates the output
    /// (and the winner indices for max/min), the backward two `[n, c]`
    /// accumulators and `k`-row scratch. The neighbour list is shared, not
    /// copied.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 2-D, `k == 0`, `neighbors` does not hold `k`
    /// sources per row of `x`, or a source is out of bounds.
    pub fn edge_aggregate(
        &mut self,
        x: Var,
        neighbors: Arc<Vec<usize>>,
        k: usize,
        message: EdgeMessage,
        how: Reduction,
    ) -> Var {
        let xt = self.value(x);
        assert_eq!(xt.shape().rank(), 2, "edge_aggregate requires [n,c]");
        let (n, c) = (xt.dims()[0], xt.dims()[1]);
        assert!(
            k > 0 && neighbors.len() == n * k,
            "edge_aggregate: {} neighbors for {n} rows and k={k}",
            neighbors.len()
        );
        let w = message.width(c);
        let mut values = vec![0.0f32; n * w];
        let mut args = match how {
            Reduction::Max | Reduction::Min => vec![0usize; n * w],
            Reduction::Sum | Reduction::Mean => Vec::new(),
        };
        if w > 0 {
            let d = xt.data();
            let mut block = vec![0.0f32; k * w];
            let mut rel = vec![0.0f32; c];
            for i in 0..n {
                let ctr = &d[i * c..(i + 1) * c];
                for (row, &j) in block
                    .chunks_exact_mut(w)
                    .zip(&neighbors[i * k..(i + 1) * k])
                {
                    assert!(j < n, "neighbor {j} out of bounds for {n} rows");
                    message.write(ctr, &d[j * c..(j + 1) * c], &mut rel, row);
                }
                // Sum/mean keep no args: an empty slice stands in.
                let block_args = args.get_mut(i * w..(i + 1) * w).unwrap_or_default();
                reduce_block(&block, how, &mut values[i * w..(i + 1) * w], block_args);
            }
        }
        let rg = self.requires(x);
        self.push(
            Tensor::from_vec(values, &[n, w]),
            Op::EdgeAggregate(EdgeAggregate {
                x,
                neighbors,
                k,
                message,
                how,
                args,
            }),
            rg,
        )
    }

    /// Pools rows per contiguous segment (e.g. one segment per point cloud in
    /// a batch), producing `[segments.len(), c]`.
    pub fn segment_pool(&mut self, x: Var, segments: &[usize], how: Reduction) -> Var {
        let r = segment_reduce_rows(self.value(x), segments, how);
        let rg = self.requires(x);
        self.push(
            r.values,
            Op::SegmentPool {
                x,
                segments: segments.to_vec(),
                how,
                args: r.args,
            },
            rg,
        )
    }

    /// Per-row Euclidean norm `[n,c] -> [n,1]`.
    pub fn row_norms(&mut self, x: Var) -> Var {
        let value = row_norms(self.value(x));
        let rg = self.requires(x);
        self.push(value, Op::RowNorms(x), rg)
    }

    /// Mean over all elements, producing a scalar.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let value = Tensor::scalar(self.value(x).mean());
        let rg = self.requires(x);
        self.push(value, Op::MeanAll(x), rg)
    }

    /// Sum over all elements, producing a scalar.
    pub fn sum_all(&mut self, x: Var) -> Var {
        let value = Tensor::scalar(self.value(x).sum());
        let rg = self.requires(x);
        self.push(value, Op::SumAll(x), rg)
    }

    /// Mean softmax cross-entropy of `[n, classes]` logits against integer
    /// labels; returns a scalar loss.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the logit row count or a label
    /// is out of range.
    pub fn softmax_cross_entropy(&mut self, logits: Var, labels: &[usize]) -> Var {
        let t = self.value(logits);
        assert_eq!(t.shape().rank(), 2, "logits must be [n, classes]");
        let (n, c) = (t.dims()[0], t.dims()[1]);
        assert_eq!(labels.len(), n, "label count must match logit rows");
        let d = t.data();
        let mut softmax = vec![0.0f32; n * c];
        let mut loss = 0.0f32;
        for i in 0..n {
            assert!(
                labels[i] < c,
                "label {} out of range for {c} classes",
                labels[i]
            );
            let row = &d[i * c..(i + 1) * c];
            let m = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let exps: Vec<f32> = row.iter().map(|v| (v - m).exp()).collect();
            let z: f32 = exps.iter().sum();
            for j in 0..c {
                softmax[i * c + j] = exps[j] / z;
            }
            loss -= (softmax[i * c + labels[i]] + EPS).ln();
        }
        let value = Tensor::scalar(loss / n as f32);
        let rg = self.requires(logits);
        self.push(
            value,
            Op::SoftmaxCrossEntropy {
                logits,
                labels: labels.to_vec(),
                softmax: Tensor::from_vec(softmax, &[n, c]),
            },
            rg,
        )
    }

    /// Mean absolute percentage error `mean(|p - t| / max(|t|, ε))` — the
    /// loss the paper trains its latency predictor with.
    ///
    /// # Panics
    ///
    /// Panics if the prediction element count differs from `target.len()`.
    pub fn mape_loss(&mut self, pred: Var, target: &[f32]) -> Var {
        let p = self.value(pred);
        assert_eq!(p.numel(), target.len(), "pred/target length mismatch");
        let loss: f32 = p
            .data()
            .iter()
            .zip(target)
            .map(|(&pi, &ti)| (pi - ti).abs() / ti.abs().max(EPS))
            .sum::<f32>()
            / target.len() as f32;
        let rg = self.requires(pred);
        self.push(
            Tensor::scalar(loss),
            Op::MapeLoss {
                pred,
                target: target.to_vec(),
            },
            rg,
        )
    }

    /// Mean squared error against constant targets.
    ///
    /// # Panics
    ///
    /// Panics if the prediction element count differs from `target.len()`.
    pub fn mse_loss(&mut self, pred: Var, target: &[f32]) -> Var {
        let p = self.value(pred);
        assert_eq!(p.numel(), target.len(), "pred/target length mismatch");
        let loss: f32 = p
            .data()
            .iter()
            .zip(target)
            .map(|(&pi, &ti)| (pi - ti) * (pi - ti))
            .sum::<f32>()
            / target.len() as f32;
        let rg = self.requires(pred);
        self.push(
            Tensor::scalar(loss),
            Op::MseLoss {
                pred,
                target: target.to_vec(),
            },
            rg,
        )
    }

    // ---- backward --------------------------------------------------------

    fn accumulate(&mut self, v: Var, g: Tensor) {
        if !self.nodes[v.0].requires_grad {
            return;
        }
        match &mut self.nodes[v.0].grad {
            // In-place lane-kernel accumulate: elementwise `+` in the same
            // per-element order as the zip_map it replaced, minus the
            // intermediate allocation.
            Some(existing) => simd::add_assign(existing.data_mut(), g.data()),
            slot @ None => *slot = Some(g),
        }
    }

    /// Runs the reverse sweep from `loss` (which must be scalar), populating
    /// gradients for every leaf with `requires_grad`. Each intermediate
    /// node's gradient is moved into its op's backward, not copied, so only
    /// leaves keep theirs (see [`Tape::grad`]).
    ///
    /// # Panics
    ///
    /// Panics if `loss` is not a scalar (single-element) value.
    pub fn backward(&mut self, loss: Var) {
        assert_eq!(
            self.nodes[loss.0].value.numel(),
            1,
            "backward requires a scalar loss"
        );
        self.nodes[loss.0].grad = Some(Tensor::full(self.nodes[loss.0].value.dims(), 1.0));
        for i in (0..=loss.0).rev() {
            // Leaves keep their gradient: optimizers read it after the sweep.
            if !self.nodes[i].requires_grad || matches!(self.nodes[i].op, Op::Leaf) {
                continue;
            }
            let Some(gout) = self.nodes[i].grad.take() else {
                continue;
            };
            // Op context is borrowed; each arm computes its input gradients
            // before accumulating them.
            match &self.nodes[i].op {
                Op::Leaf => {}
                Op::Matmul(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = hgnas_tensor::matmul::matmul_bt(&gout, self.value(b));
                    let db = hgnas_tensor::matmul::matmul_at(self.value(a), &gout);
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::AddBias(x, bias) => {
                    let (x, bias) = (*x, *bias);
                    let cols = self.value(bias).dims()[0];
                    // Row-at-a-time lane accumulate: visits every element in
                    // the same order as the old `db[idx % cols] += g` loop, so
                    // the per-slot addition sequence is unchanged.
                    let mut db = vec![0.0f32; cols];
                    for row in gout.data().chunks_exact(cols) {
                        simd::add_assign(&mut db, row);
                    }
                    self.accumulate(x, gout);
                    self.accumulate(bias, Tensor::from_vec(db, &[cols]));
                }
                Op::Add(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate(a, gout.clone());
                    self.accumulate(b, gout);
                }
                Op::Sub(a, b) => {
                    let (a, b) = (*a, *b);
                    self.accumulate(a, gout.clone());
                    // A negation, not `scale(-1.0)`: a NaN's sign after a
                    // multiply is up to the compiler, after `-` it is not.
                    self.accumulate(b, gout.map(|v| -v));
                }
                Op::Mul(a, b) => {
                    let (a, b) = (*a, *b);
                    let da = gout.mul(self.value(b));
                    let db = gout.mul(self.value(a));
                    self.accumulate(a, da);
                    self.accumulate(b, db);
                }
                Op::Scale(x, s) => {
                    let (x, s) = (*x, *s);
                    self.accumulate(x, gout.scale(s));
                }
                Op::Relu(x) => {
                    let x = *x;
                    // Fused mask-multiply lane kernel — one pass instead of a
                    // mask tensor plus a Hadamard product, same g·{1,0} bits.
                    let mut dx = gout;
                    simd::relu_grad(dx.data_mut(), self.nodes[x.0].value.data());
                    self.accumulate(x, dx);
                }
                Op::LeakyRelu(x, slope) => {
                    let (x, slope) = (*x, *slope);
                    let mut dx = gout;
                    simd::leaky_relu_grad(dx.data_mut(), self.nodes[x.0].value.data(), slope);
                    self.accumulate(x, dx);
                }
                Op::Tanh(x) => {
                    let x = *x;
                    let y = &self.nodes[i].value;
                    let dx = gout.zip_map(y, |g, t| g * (1.0 - t * t));
                    self.accumulate(x, dx);
                }
                Op::Gather(x, idx) => {
                    let x = *x;
                    let dx = scatter_add_rows(&gout, idx, self.value(x).dims()[0]);
                    self.accumulate(x, dx);
                }
                Op::Repeat(x, k) => {
                    let (x, k) = (*x, *k);
                    self.accumulate(x, fold_rows(&gout, k));
                }
                Op::Concat(parts, widths) => {
                    let parts = parts.clone();
                    let widths = widths.clone();
                    let grads = split_cols(&gout, &widths);
                    for (p, g) in parts.into_iter().zip(grads) {
                        self.accumulate(p, g);
                    }
                }
                Op::ReduceMid { x, k, how, args } => {
                    let (x, k, how) = (*x, *k, *how);
                    let (n, c) = (gout.dims()[0], gout.dims()[1]);
                    let mut dx = vec![0.0f32; n * k * c];
                    for i2 in 0..n {
                        expand_reduce_grad(
                            &gout.data()[i2 * c..(i2 + 1) * c],
                            k,
                            how,
                            args.get(i2 * c..(i2 + 1) * c).unwrap_or_default(),
                            &mut dx[i2 * k * c..(i2 + 1) * k * c],
                        );
                    }
                    self.accumulate(x, Tensor::from_vec(dx, &[n * k, c]));
                }
                Op::EdgeAggregate(op) => {
                    let x = op.x;
                    let xt = self.value(x);
                    let (n, c) = (xt.dims()[0], xt.dims()[1]);
                    let (fold, scatter) = op.backward(xt.data(), c, gout.data());
                    // The chain's order: its repeat node (target side) is
                    // swept before its gather node (source side).
                    if let Some(fold) = fold {
                        self.accumulate(x, Tensor::from_vec(fold, &[n, c]));
                    }
                    if let Some(scatter) = scatter {
                        self.accumulate(x, Tensor::from_vec(scatter, &[n, c]));
                    }
                }
                Op::SegmentPool {
                    x,
                    segments,
                    how,
                    args,
                } => {
                    let x = *x;
                    let how = *how;
                    let c = gout.dims()[1];
                    let total: usize = segments.iter().sum();
                    let mut dx = vec![0.0f32; total * c];
                    let mut row0 = 0usize;
                    let mut scaled = vec![0.0f32; c];
                    for (si, &len) in segments.iter().enumerate() {
                        match how {
                            // Sum broadcast copies the segment's row (the old
                            // `g · 1.0` multiply is a bitwise no-op for the
                            // quiet values gradients carry); Mean scales the
                            // row once on the lane layer, then copies it.
                            Reduction::Sum | Reduction::Mean => {
                                scaled.copy_from_slice(&gout.data()[si * c..(si + 1) * c]);
                                if how == Reduction::Mean {
                                    simd::scale(&mut scaled, 1.0 / len as f32);
                                }
                                for r in row0..row0 + len {
                                    dx[r * c..(r + 1) * c].copy_from_slice(&scaled);
                                }
                            }
                            Reduction::Max | Reduction::Min => {
                                for j in 0..c {
                                    let off = args[si * c + j];
                                    dx[(row0 + off) * c + j] = gout.data()[si * c + j];
                                }
                            }
                        }
                        row0 += len;
                    }
                    self.accumulate(x, Tensor::from_vec(dx, &[total, c]));
                }
                Op::RowNorms(x) => {
                    let x = *x;
                    let xt = self.value(x);
                    let (n, c) = (xt.dims()[0], xt.dims()[1]);
                    let norms = &self.nodes[i].value;
                    let mut dx = vec![0.0f32; n * c];
                    for i2 in 0..n {
                        let nv = norms.data()[i2].max(EPS);
                        let g = gout.data()[i2];
                        for j in 0..c {
                            dx[i2 * c + j] = g * xt.data()[i2 * c + j] / nv;
                        }
                    }
                    self.accumulate(x, Tensor::from_vec(dx, &[n, c]));
                }
                Op::MeanAll(x) => {
                    let x = *x;
                    let n = self.value(x).numel() as f32;
                    let g = gout.item() / n;
                    let dx = Tensor::full(self.value(x).dims(), g);
                    self.accumulate(x, dx);
                }
                Op::SumAll(x) => {
                    let x = *x;
                    let dx = Tensor::full(self.value(x).dims(), gout.item());
                    self.accumulate(x, dx);
                }
                Op::SoftmaxCrossEntropy {
                    logits,
                    labels,
                    softmax,
                } => {
                    let logits = *logits;
                    let labels = labels.clone();
                    let mut dx = softmax.clone();
                    let (n, c) = (dx.dims()[0], dx.dims()[1]);
                    let scale = gout.item() / n as f32;
                    let d = dx.data_mut();
                    for (i2, &lab) in labels.iter().enumerate() {
                        d[i2 * c + lab] -= 1.0;
                    }
                    for v in d.iter_mut() {
                        *v *= scale;
                    }
                    self.accumulate(logits, dx);
                }
                Op::MapeLoss { pred, target } => {
                    let pred = *pred;
                    let p = self.value(pred);
                    let n = target.len() as f32;
                    let scale = gout.item() / n;
                    let data: Vec<f32> = p
                        .data()
                        .iter()
                        .zip(target)
                        .map(|(&pi, &ti)| {
                            let s = if pi > ti {
                                1.0
                            } else if pi < ti {
                                -1.0
                            } else {
                                0.0
                            };
                            scale * s / ti.abs().max(EPS)
                        })
                        .collect();
                    let dx = Tensor::from_vec(data, p.dims());
                    self.accumulate(pred, dx);
                }
                Op::MseLoss { pred, target } => {
                    let pred = *pred;
                    let p = self.value(pred);
                    let n = target.len() as f32;
                    let scale = 2.0 * gout.item() / n;
                    let data: Vec<f32> = p
                        .data()
                        .iter()
                        .zip(target)
                        .map(|(&pi, &ti)| scale * (pi - ti))
                        .collect();
                    let dx = Tensor::from_vec(data, p.dims());
                    self.accumulate(pred, dx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_chain_grads() {
        // loss = sum(A @ B); dA = 1 @ B^T, dB = A^T @ 1.
        let mut tape = Tape::new();
        let a = tape.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let b = tape.param(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]));
        let c = tape.matmul(a, b);
        let loss = tape.sum_all(c);
        tape.backward(loss);
        assert_eq!(tape.grad(a).unwrap().data(), &[11.0, 15.0, 11.0, 15.0]);
        assert_eq!(tape.grad(b).unwrap().data(), &[4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn relu_masks_gradient() {
        let mut tape = Tape::new();
        let x = tape.param(Tensor::from_vec(vec![-1.0, 2.0], &[1, 2]));
        let y = tape.relu(x);
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(x).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero_per_row() {
        let mut tape = Tape::new();
        let x = tape.param(Tensor::from_vec(
            vec![2.0, -1.0, 0.5, 0.0, 0.0, 0.0],
            &[2, 3],
        ));
        let loss = tape.softmax_cross_entropy(x, &[0, 2]);
        tape.backward(loss);
        let g = tape.grad(x).unwrap();
        let row0: f32 = g.data()[0..3].iter().sum();
        let row1: f32 = g.data()[3..6].iter().sum();
        assert!(row0.abs() < 1e-6 && row1.abs() < 1e-6);
        // Gradient at the true label is negative.
        assert!(g.data()[0] < 0.0);
        assert!(g.data()[5] < 0.0);
    }

    #[test]
    fn gather_routes_gradient() {
        let mut tape = Tape::new();
        let x = tape.param(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]));
        let g = tape.gather_rows(x, &[1, 1, 0]);
        let loss = tape.sum_all(g);
        tape.backward(loss);
        assert_eq!(tape.grad(x).unwrap().data(), &[1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn reduce_mid_max_routes_to_winner() {
        let mut tape = Tape::new();
        // n=1, k=2, c=2: rows [1,9] and [5,3]; max = [5,9].
        let x = tape.param(Tensor::from_vec(vec![1.0, 9.0, 5.0, 3.0], &[2, 2]));
        let r = tape.reduce_mid(x, 2, Reduction::Max);
        assert_eq!(tape.value(r).data(), &[5.0, 9.0]);
        let loss = tape.sum_all(r);
        tape.backward(loss);
        assert_eq!(tape.grad(x).unwrap().data(), &[0.0, 1.0, 1.0, 0.0]);
    }

    #[test]
    fn mape_is_scale_invariant_at_value() {
        let mut tape = Tape::new();
        let p = tape.param(Tensor::from_vec(vec![110.0, 90.0], &[2, 1]));
        let loss = tape.mape_loss(p, &[100.0, 100.0]);
        assert!((tape.value(loss).item() - 0.1).abs() < 1e-6);
        tape.backward(loss);
        let g = tape.grad(p).unwrap();
        assert!(g.data()[0] > 0.0 && g.data()[1] < 0.0);
    }

    #[test]
    fn grad_accumulates_across_uses() {
        let mut tape = Tape::new();
        let x = tape.param(Tensor::from_vec(vec![3.0], &[1, 1]));
        let y = tape.add(x, x); // y = 2x
        let loss = tape.sum_all(y);
        tape.backward(loss);
        assert_eq!(tape.grad(x).unwrap().data(), &[2.0]);
    }

    #[test]
    #[should_panic(expected = "scalar loss")]
    fn non_scalar_backward_panics() {
        let mut tape = Tape::new();
        let x = tape.param(Tensor::zeros(&[2, 2]));
        tape.backward(x);
    }
}
