//! Row gather/scatter and layout kernels used by graph message passing.
//!
//! The accumulating kernels ([`scatter_add_rows`], [`fold_rows`]) run their
//! per-row feature loop through [`crate::simd::add_assign`], elementwise
//! over the feature axis. [`row_norms`] contracts with
//! [`crate::simd::dot`]'s fixed multi-accumulator schedule. The pure-copy
//! kernels
//! ([`gather_rows`], [`repeat_rows`], [`concat_cols`], [`split_cols`])
//! append straight into uninitialised capacity (`extend_from_slice`) — a
//! single `memcpy` pass per row instead of a zero-fill followed by a copy.

use crate::simd;
use crate::Tensor;

/// Gathers rows of a `[n, c]` tensor: `out[i] = t[idx[i]]`, producing
/// `[idx.len(), c]`.
///
/// This is the forward of neighbour-feature lookup; its adjoint is
/// [`scatter_add_rows`].
///
/// # Panics
///
/// Panics if `t` is not 2-D or any index is out of bounds.
pub fn gather_rows(t: &Tensor, idx: &[usize]) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "gather_rows requires [n,c]");
    let (n, c) = (t.dims()[0], t.dims()[1]);
    let d = t.data();
    let mut out = Vec::with_capacity(idx.len() * c);
    for &src in idx {
        assert!(src < n, "gather index {src} out of bounds for {n} rows");
        out.extend_from_slice(&d[src * c..(src + 1) * c]);
    }
    Tensor::from_vec(out, &[idx.len(), c])
}

/// Scatter-adds rows of `src` (`[idx.len(), c]`) into a fresh `[n, c]`
/// accumulator: `out[idx[i]] += src[i]`. Adjoint of [`gather_rows`].
///
/// # Panics
///
/// Panics if `src` is not 2-D, `src` row count differs from `idx.len()`, or
/// any index is out of bounds.
pub fn scatter_add_rows(src: &Tensor, idx: &[usize], n: usize) -> Tensor {
    assert_eq!(src.shape().rank(), 2, "scatter_add_rows requires [m,c]");
    assert_eq!(src.dims()[0], idx.len(), "row count must equal index count");
    let c = src.dims()[1];
    let d = src.data();
    let mut out = vec![0.0f32; n * c];
    for (i, &dst) in idx.iter().enumerate() {
        assert!(dst < n, "scatter index {dst} out of bounds for {n} rows");
        simd::add_assign(&mut out[dst * c..(dst + 1) * c], &d[i * c..(i + 1) * c]);
    }
    Tensor::from_vec(out, &[n, c])
}

/// Repeats each row of a `[n, c]` tensor `k` times consecutively, producing
/// `[n*k, c]`. This is the "target" side of an edge-feature expansion with a
/// fixed neighbourhood size `k`; its adjoint is [`fold_rows`].
///
/// # Panics
///
/// Panics if `t` is not 2-D or `k == 0`.
pub fn repeat_rows(t: &Tensor, k: usize) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "repeat_rows requires [n,c]");
    assert!(k > 0, "k must be positive");
    let (n, c) = (t.dims()[0], t.dims()[1]);
    let d = t.data();
    let mut out = Vec::with_capacity(n * k * c);
    for i in 0..n {
        let row = &d[i * c..(i + 1) * c];
        for _ in 0..k {
            out.extend_from_slice(row);
        }
    }
    Tensor::from_vec(out, &[n * k, c])
}

/// Sums every group of `k` consecutive rows of a `[n*k, c]` tensor, producing
/// `[n, c]`. Adjoint of [`repeat_rows`].
///
/// # Panics
///
/// Panics if `t` is not 2-D or its row count is not a multiple of `k`.
pub fn fold_rows(t: &Tensor, k: usize) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "fold_rows requires [m,c]");
    assert!(
        k > 0 && t.dims()[0].is_multiple_of(k),
        "row count must be a multiple of k"
    );
    let n = t.dims()[0] / k;
    let c = t.dims()[1];
    let d = t.data();
    let mut out = vec![0.0f32; n * c];
    for i in 0..n {
        let acc = &mut out[i * c..(i + 1) * c];
        for kk in 0..k {
            simd::add_assign(acc, &d[(i * k + kk) * c..(i * k + kk + 1) * c]);
        }
    }
    Tensor::from_vec(out, &[n, c])
}

/// Concatenates 2-D tensors along the feature (column) axis.
///
/// # Panics
///
/// Panics if `parts` is empty, any part is not 2-D, or row counts differ.
pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
    assert!(!parts.is_empty(), "concat_cols needs at least one part");
    let n = parts[0].dims()[0];
    for p in parts {
        assert_eq!(p.shape().rank(), 2, "concat_cols requires 2-D parts");
        assert_eq!(p.dims()[0], n, "concat_cols row counts differ");
    }
    let total_c: usize = parts.iter().map(|p| p.dims()[1]).sum();
    let mut out = Vec::with_capacity(n * total_c);
    for i in 0..n {
        for p in parts {
            let c = p.dims()[1];
            out.extend_from_slice(&p.data()[i * c..(i + 1) * c]);
        }
    }
    Tensor::from_vec(out, &[n, total_c])
}

/// Splits a 2-D tensor column-wise into chunks of the given widths. Inverse
/// of [`concat_cols`].
///
/// # Panics
///
/// Panics if `t` is not 2-D or the widths do not sum to the column count.
pub fn split_cols(t: &Tensor, widths: &[usize]) -> Vec<Tensor> {
    assert_eq!(t.shape().rank(), 2, "split_cols requires [n,c]");
    let (n, c) = (t.dims()[0], t.dims()[1]);
    assert_eq!(
        widths.iter().sum::<usize>(),
        c,
        "widths must sum to column count"
    );
    let d = t.data();
    let mut outs = Vec::with_capacity(widths.len());
    let mut off = 0usize;
    for &w in widths {
        let mut data = Vec::with_capacity(n * w);
        for i in 0..n {
            data.extend_from_slice(&d[i * c + off..i * c + off + w]);
        }
        outs.push(Tensor::from_vec(data, &[n, w]));
        off += w;
    }
    outs
}

/// Per-row Euclidean norm of a `[n, c]` tensor, producing `[n, 1]`.
///
/// # Panics
///
/// Panics if `t` is not 2-D.
pub fn row_norms(t: &Tensor) -> Tensor {
    assert_eq!(t.shape().rank(), 2, "row_norms requires [n,c]");
    let (n, c) = (t.dims()[0], t.dims()[1]);
    let d = t.data();
    let mut out = vec![0.0f32; n];
    for i in 0..n {
        let row = &d[i * c..(i + 1) * c];
        out[i] = simd::dot(row, row).sqrt();
    }
    Tensor::from_vec(out, &[n, 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m23() -> Tensor {
        Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3])
    }

    #[test]
    fn gather_then_scatter_is_count_weighted_identity() {
        let t = m23();
        let idx = [1, 0, 1];
        let g = gather_rows(&t, &idx);
        assert_eq!(g.dims(), &[3, 3]);
        assert_eq!(&g.data()[0..3], &[4.0, 5.0, 6.0]);
        let s = scatter_add_rows(&g, &idx, 2);
        // Row 0 appears once, row 1 twice.
        assert_eq!(s.data(), &[1.0, 2.0, 3.0, 8.0, 10.0, 12.0]);
    }

    #[test]
    fn repeat_fold_adjoint_pair() {
        let t = m23();
        let r = repeat_rows(&t, 4);
        assert_eq!(r.dims(), &[8, 3]);
        let f = fold_rows(&r, 4);
        assert!(f.allclose(&t.scale(4.0), 1e-6));
    }

    #[test]
    fn concat_split_round_trip() {
        let a = m23();
        let b = Tensor::from_vec(vec![9.0, 8.0], &[2, 1]);
        let cat = concat_cols(&[&a, &b]);
        assert_eq!(cat.dims(), &[2, 4]);
        assert_eq!(cat.at2(0, 3), 9.0);
        let parts = split_cols(&cat, &[3, 1]);
        assert!(parts[0].allclose(&a, 0.0));
        assert!(parts[1].allclose(&b, 0.0));
    }

    #[test]
    fn norms_match_hand_math() {
        let t = Tensor::from_vec(vec![3.0, 4.0, 0.0, 0.0], &[2, 2]);
        let n = row_norms(&t);
        assert_eq!(n.data(), &[5.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn gather_oob_panics() {
        gather_rows(&m23(), &[5]);
    }
}
