//! K-nearest-neighbour graph construction.
//!
//! [`knn_brute`] is the one KNN the pipeline runs: the raw-point (3-D)
//! graph of EdgeConv's first layer and of a GNN's leading `Sample(Knn)`,
//! and every dynamic feature-space graph a searched layer rebuilds on its
//! hidden features (16 or 24 dimensions at the `tiny` and `small` widths,
//! 64 at paper scale). It transposes the cloud once into a column layout
//! and, per query point, sweeps all `n` distances through
//! [`simd::squared_distances_cols`] — lane-parallel over points for any
//! dimension, each distance folded over the coordinates in order from
//! `0.0`, so the bits match a sequential scalar fold on both lane paths.
//! An allocation-free bounded insertion-select then keeps the `k` nearest,
//! first-seen first among exact ties, writing straight into the neighbour
//! list.
//!
//! It is the only builder. An accelerated one (a grid or a k-d tree over
//! 3-D points) would have to return exact ties in index order, as this
//! one does, or it would move the neighbour lists the golden tests pin.

use crate::neighbors::NeighborList;
use hgnas_tensor::simd;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide count of [`knn_brute`] invocations. Purely observational —
/// the ops layer's graph-reuse tests pin "the static KNN graph is built once
/// per batch, not once per epoch" against this counter.
static KNN_BRUTE_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Number of times [`knn_brute`] has run in this process. Purely
/// observational; tests sampling it must own their process (a dedicated
/// integration-test binary), since parallel tests all bump the same counter.
pub fn knn_brute_calls() -> usize {
    KNN_BRUTE_CALLS.load(Ordering::Relaxed)
}

/// Keeps the `k = out.len()` nearest of the points scored by `dists`
/// (point `i` itself excluded): indices in `out`, their distances in
/// `best` (scratch), nearest first. A bounded insertion sort, fast for the
/// small `k` (≈20) GNNs use: a point is skipped unless it beats the
/// current `k`-th, and lands after every kept entry it does not beat, so
/// exact ties keep index order. While no NaN is kept the list is sorted
/// and the insertion shifts down from the end; once a NaN is kept the list
/// is no longer ordered, and the insertion point comes from the
/// `partition_point` binary search the selection has always used, so NaN
/// features keep their established neighbour order.
fn select_k(i: usize, dists: &[f32], best: &mut [f32], out: &mut [usize]) {
    let k = out.len();
    let mut len = 0;
    let mut sorted = true;
    for (j, &d) in dists.iter().enumerate() {
        if j == i || (len == k && d >= best[k - 1]) {
            continue;
        }
        sorted &= !d.is_nan();
        let at = if sorted {
            0
        } else {
            best[..len].partition_point(|&bd| bd <= d)
        };
        if at == k {
            continue;
        }
        // A full list drops its last entry to make room.
        let mut pos = len.min(k - 1);
        while pos > at && (!sorted || best[pos - 1] > d) {
            best[pos] = best[pos - 1];
            out[pos] = out[pos - 1];
            pos -= 1;
        }
        best[pos] = d;
        out[pos] = j;
        len = (len + 1).min(k);
    }
}

/// Brute-force exact KNN over `n` points of dimension `dim`.
///
/// Each point's `k` nearest *other* points, nearest first; exact ties keep
/// index order.
///
/// # Panics
///
/// Panics if the buffer is ragged, `k == 0`, or `n <= k`.
pub fn knn_brute(points: &[f32], dim: usize, k: usize) -> NeighborList {
    KNN_BRUTE_CALLS.fetch_add(1, Ordering::Relaxed);
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(points.len() % dim, 0, "point buffer not a multiple of dim");
    let n = points.len() / dim;
    assert!(k > 0, "k must be positive");
    assert!(n > k, "need more than k={k} points, got {n}");
    let mut cols = vec![0.0f32; n * dim];
    for (j, p) in points.chunks_exact(dim).enumerate() {
        for (d, &v) in p.iter().enumerate() {
            cols[d * n + j] = v;
        }
    }
    let mut idx = vec![0usize; n * k];
    let mut dists = vec![0.0f32; n];
    let mut best = vec![0.0f32; k];
    for (i, (q, out)) in points
        .chunks_exact(dim)
        .zip(idx.chunks_exact_mut(k))
        .enumerate()
    {
        simd::squared_distances_cols(q, &cols, &mut dists);
        select_k(i, &dists, &mut best, out);
    }
    NeighborList::new(n, k, idx)
}

/// [`knn_brute`] over every cloud of a stacked batch: `segments` holds the
/// clouds' point counts in row order, and each cloud's neighbour indices
/// are offset by its first row, so the flat table (`k` entries per row)
/// indexes the stacked rows.
///
/// # Panics
///
/// As [`knn_brute`], for any cloud; also if `segments` sums past the rows
/// in `points`.
pub fn knn_brute_segments(points: &[f32], segments: &[usize], dim: usize, k: usize) -> Vec<usize> {
    per_segment(segments, k, |row0, n| {
        knn_brute(&points[row0 * dim..(row0 + n) * dim], dim, k)
    })
}

/// Builds each segment's neighbour list from `(first row, points)` in row
/// order and concatenates them, offset into the stacked rows.
fn per_segment(
    segments: &[usize],
    k: usize,
    mut build: impl FnMut(usize, usize) -> NeighborList,
) -> Vec<usize> {
    let mut flat = Vec::with_capacity(segments.iter().sum::<usize>() * k);
    let mut row0 = 0;
    for &n in segments {
        flat.extend(build(row0, n).flat().iter().map(|&j| j + row0));
        row0 += n;
    }
    flat
}

/// The *Random* sampling function from the design space (Tab. I): `k`
/// uniformly chosen neighbours per node, distinct from the node itself
/// (duplicates among the k are allowed, as in sampled GNN training).
///
/// # Panics
///
/// Panics if `k == 0` or `n < 2`.
pub fn random_neighbors<R: Rng>(rng: &mut R, n: usize, k: usize) -> NeighborList {
    assert!(k > 0, "k must be positive");
    assert!(n >= 2, "need at least two nodes");
    let mut idx = vec![0usize; n * k];
    for i in 0..n {
        for slot in 0..k {
            let mut j = rng.gen_range(0..n - 1);
            if j >= i {
                j += 1;
            }
            idx[i * k + slot] = j;
        }
    }
    NeighborList::new(n, k, idx)
}

/// [`random_neighbors`] over every cloud of a stacked batch, drawing the
/// clouds in row order; indices are offset into the stacked rows as in
/// [`knn_brute_segments`].
///
/// # Panics
///
/// As [`random_neighbors`], for any cloud.
pub fn random_neighbors_segments<R: Rng>(rng: &mut R, segments: &[usize], k: usize) -> Vec<usize> {
    per_segment(segments, k, |_, n| random_neighbors(rng, n, k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_cloud(rng: &mut StdRng, n: usize) -> Vec<f32> {
        (0..n * 3).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn line_cloud_nearest_first() {
        let pts = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 10.0, 0.0, 0.0];
        let nl = knn_brute(&pts, 3, 2);
        assert_eq!(nl.neighbors(0), &[1, 2]);
        assert_eq!(nl.neighbors(3), &[2, 1]);
    }

    #[test]
    fn no_self_loops() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = random_cloud(&mut rng, 50);
        let nl = knn_brute(&pts, 3, 5);
        for i in 0..50 {
            assert!(!nl.neighbors(i).contains(&i), "self loop at {i}");
        }
    }

    #[test]
    fn random_neighbors_excludes_self() {
        let mut rng = StdRng::seed_from_u64(3);
        let nl = random_neighbors(&mut rng, 10, 4);
        for i in 0..10 {
            assert!(!nl.neighbors(i).contains(&i));
        }
    }

    #[test]
    #[should_panic(expected = "more than k")]
    fn too_few_points_panics() {
        knn_brute(&[0.0; 9], 3, 4);
    }

    #[test]
    fn lane_and_scalar_paths_build_identical_graphs() {
        // The KNN distance loop runs through the lane kernels; neighbour
        // sets (exact indices, ties included) must not depend on the path.
        use hgnas_tensor::simd::{with_path, LanePath};
        let mut rng = StdRng::seed_from_u64(9);
        for n in [30usize, 97, 300] {
            let pts = random_cloud(&mut rng, n);
            let scalar = with_path(LanePath::Scalar, || knn_brute(&pts, 3, 7));
            let lane = with_path(LanePath::Avx2, || knn_brute(&pts, 3, 7));
            assert_eq!(scalar, lane, "n={n} diverged across lane paths");
        }
    }
}
