//! Axis reductions with argument tracking.
//!
//! The GNN executor reduces each node's `k` neighbour messages to one row,
//! and pools per-cloud node features `[n, c]` over the rows. Max/min
//! reductions also return the winning indices so that the autograd layer
//! can route gradients.
//!
//! Every reduction here runs one per-block body, [`reduce_block`], over the
//! kernels in [`crate::simd`]: sum/mean accumulate rows with
//! `add_assign` from `+0.0` (then `scale` for the mean), max/min run
//! [`simd::arg_extremum_rows`], which keeps the running winner and its row
//! index in registers across a block's rows. Both kernels are elementwise
//! over the feature axis, so every value and winner index is independent
//! of the lane path. [`reduce_row_groups`] and [`segment_reduce_rows`]
//! apply it to contiguous row blocks of a tensor; the autograd tape's fused
//! edge aggregation applies it to one node's `k` messages at a time, built
//! in a `k`-row scratch block, so the edge path never holds an `[n·k, c]`
//! message tensor. The arg-tracked max is the aggregation of EdgeConv and
//! of most searched GNN layers; with KNN sampling it is among the costliest
//! steps of a supernet train epoch on CPU, in line with the paper's Fig. 3
//! finding that sample and aggregate, not the matmuls, dominate point-cloud
//! GNN latency there.

use crate::simd::{self, Extremum};
use crate::Tensor;

/// Result of an arg-tracked reduction: the reduced values plus, for max/min,
/// the flat index (into the reduced axis) of each winning element.
#[derive(Debug, Clone)]
pub struct ArgReduce {
    /// The reduced tensor.
    pub values: Tensor,
    /// For each output element, the index along the reduced axis that won.
    pub args: Vec<usize>,
}

/// Which reduction to apply over an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// Sum of elements.
    Sum,
    /// Arithmetic mean.
    Mean,
    /// Maximum (arg-tracked).
    Max,
    /// Minimum (arg-tracked).
    Min,
}

impl Reduction {
    /// All supported reductions, in a stable order.
    pub const ALL: [Reduction; 4] = [
        Reduction::Sum,
        Reduction::Mean,
        Reduction::Max,
        Reduction::Min,
    ];
}

impl std::fmt::Display for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Reduction::Sum => "sum",
            Reduction::Mean => "mean",
            Reduction::Max => "max",
            Reduction::Min => "min",
        };
        f.write_str(s)
    }
}

/// Reduces one row-major block of `rows.len() / out.len()` rows into
/// `out`: sum/mean fold the rows into `out` from `+0.0` with `add_assign`
/// (then `scale` by `1/rows` for the mean); max/min keep each column's
/// first strict winner and write its row index to `args`, which sum/mean
/// leave alone. The per-block body of every reduction here and of the
/// autograd tape's fused edge aggregation.
///
/// # Panics
///
/// Panics if `out` is empty, `rows` is not a non-zero multiple of
/// `out.len()` floats, or (max/min) `args` differs from `out` in length.
pub fn reduce_block(rows: &[f32], how: Reduction, out: &mut [f32], args: &mut [usize]) {
    let c = out.len();
    assert!(
        c > 0 && !rows.is_empty() && rows.len().is_multiple_of(c),
        "reduce_block needs [len, {c}] rows with len >= 1, got {} floats",
        rows.len()
    );
    match how {
        Reduction::Sum | Reduction::Mean => {
            out.fill(0.0);
            for row in rows.chunks_exact(c) {
                simd::add_assign(out, row);
            }
            if how == Reduction::Mean {
                simd::scale(out, 1.0 / (rows.len() / c) as f32);
            }
        }
        Reduction::Max | Reduction::Min => {
            let which = if how == Reduction::Max {
                Extremum::Max
            } else {
                Extremum::Min
            };
            simd::arg_extremum_rows(rows, which, out, args);
        }
    }
}

/// Reduces consecutive row blocks of a row-major buffer with `c` columns —
/// block `b` spans the next `lens[b]` rows — to one output row each.
fn reduce_blocks(
    d: &[f32],
    c: usize,
    lens: impl ExactSizeIterator<Item = usize>,
    how: Reduction,
) -> (Vec<f32>, Vec<usize>) {
    let blocks = lens.len();
    let mut values = vec![0.0f32; blocks * c];
    let mut args = match how {
        Reduction::Max | Reduction::Min => vec![0usize; blocks * c],
        Reduction::Sum | Reduction::Mean => Vec::new(),
    };
    if c == 0 {
        return (values, args);
    }
    let mut row0 = 0usize;
    for (b, len) in lens.enumerate() {
        // Sum/mean keep no args: an empty slice stands in for the block's.
        let block_args = args.get_mut(b * c..(b + 1) * c).unwrap_or_default();
        reduce_block(
            &d[row0 * c..(row0 + len) * c],
            how,
            &mut values[b * c..(b + 1) * c],
            block_args,
        );
        row0 += len;
    }
    (values, args)
}

/// Reduces each group of `k` consecutive rows of a `[n·k, c]` tensor —
/// the middle axis of its `[n, k, c]` view, e.g. one node's `k` neighbour
/// messages — producing `[n, c]`.
///
/// For `Max`/`Min` the returned [`ArgReduce::args`] holds, for every `(n, c)`
/// output element, the winning index within the group; for `Sum`/`Mean` it
/// is empty.
///
/// # Panics
///
/// Panics if `t` is not 2-D, `k == 0`, or the row count is not a multiple
/// of `k`.
pub fn reduce_row_groups(t: &Tensor, k: usize, how: Reduction) -> ArgReduce {
    assert_eq!(
        t.shape().rank(),
        2,
        "reduce_row_groups requires [n*k,c], got {}",
        t.shape()
    );
    let (rows, c) = (t.dims()[0], t.dims()[1]);
    assert!(
        k > 0 && rows.is_multiple_of(k),
        "reduce_row_groups: {rows} rows not divisible by k={k}"
    );
    let n = rows / k;
    let (values, args) = reduce_blocks(t.data(), c, std::iter::repeat_n(k, n), how);
    ArgReduce {
        values: Tensor::from_vec(values, &[n, c]),
        args,
    }
}

/// Segment-reduces the rows of a `[n, c]` tensor according to contiguous
/// segment lengths (e.g. pooling a batched cloud tensor per cloud),
/// producing `[segments.len(), c]`. For `Max`/`Min` the args index rows
/// within each segment; one segment of all `n` rows pools the whole
/// tensor.
///
/// # Panics
///
/// Panics if `t` is not 2-D, any segment is empty, or the lengths do not sum
/// to `n`.
pub fn segment_reduce_rows(t: &Tensor, segments: &[usize], how: Reduction) -> ArgReduce {
    assert_eq!(t.shape().rank(), 2, "segment_reduce_rows requires [n,c]");
    let (n, c) = (t.dims()[0], t.dims()[1]);
    assert_eq!(
        segments.iter().sum::<usize>(),
        n,
        "segment lengths must sum to row count"
    );
    assert!(
        segments.iter().all(|&s| s > 0),
        "segments must be non-empty"
    );
    let (values, args) = reduce_blocks(t.data(), c, segments.iter().copied(), how);
    ArgReduce {
        values: Tensor::from_vec(values, &[segments.len(), c]),
        args,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn groups() -> Tensor {
        // n=2 groups of k=3 rows, c=2
        Tensor::from_vec(
            vec![
                1.0, 9.0, 2.0, 8.0, 3.0, 7.0, // node 0
                -1.0, 0.0, -2.0, 5.0, -3.0, 2.0, // node 1
            ],
            &[6, 2],
        )
    }

    #[test]
    fn mid_axis_sum_mean() {
        let r = reduce_row_groups(&groups(), 3, Reduction::Sum);
        assert_eq!(r.values.data(), &[6.0, 24.0, -6.0, 7.0]);
        let r = reduce_row_groups(&groups(), 3, Reduction::Mean);
        assert!(r.values.allclose(
            &Tensor::from_vec(vec![2.0, 8.0, -2.0, 7.0 / 3.0], &[2, 2]),
            1e-6
        ));
        assert!(r.args.is_empty());
    }

    #[test]
    fn mid_axis_max_tracks_args() {
        let r = reduce_row_groups(&groups(), 3, Reduction::Max);
        assert_eq!(r.values.data(), &[3.0, 9.0, -1.0, 5.0]);
        assert_eq!(r.args, vec![2, 0, 0, 1]);
    }

    #[test]
    fn mid_axis_min_tracks_args() {
        let r = reduce_row_groups(&groups(), 3, Reduction::Min);
        assert_eq!(r.values.data(), &[1.0, 7.0, -3.0, 0.0]);
        assert_eq!(r.args, vec![0, 2, 2, 0]);
    }

    #[test]
    fn rows_pooling() {
        let t = Tensor::from_vec(vec![1.0, 5.0, 3.0, 2.0], &[2, 2]);
        let r = segment_reduce_rows(&t, &[2], Reduction::Max);
        assert_eq!(r.values.data(), &[3.0, 5.0]);
        assert_eq!(r.args, vec![1, 0]);
    }

    #[test]
    fn segments_match_manual() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0], &[3, 2]);
        let r = segment_reduce_rows(&t, &[2, 1], Reduction::Mean);
        assert_eq!(r.values.data(), &[2.0, 3.0, 10.0, 20.0]);
        let r = segment_reduce_rows(&t, &[2, 1], Reduction::Max);
        assert_eq!(r.values.data(), &[3.0, 4.0, 10.0, 20.0]);
        assert_eq!(r.args, vec![1, 1, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "sum to row count")]
    fn bad_segments_panic() {
        segment_reduce_rows(&Tensor::zeros(&[3, 2]), &[2, 2], Reduction::Sum);
    }
}
