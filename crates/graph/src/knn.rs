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
//! `knn_grid` (uniform-grid shells, 3-D only) and `knn_kdtree` are
//! alternative exact builders without a production caller. Both return
//! the same neighbour sets as `knn_brute` (modulo exact-tie ordering); the
//! tests below compare them, and the kernels bench times the grid against
//! the brute sweep at 1024 points.

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

fn validate(points: &[f32], dim: usize, k: usize) -> usize {
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(points.len() % dim, 0, "point buffer not a multiple of dim");
    let n = points.len() / dim;
    assert!(k > 0, "k must be positive");
    assert!(n > k, "need more than k={k} points, got {n}");
    n
}

/// Merges pre-scored `(index, distance)` candidates (excluding `i` itself)
/// into the running `k` nearest, `k = out.len()`: the first `len` entries
/// of `best` (distances) and `out` (indices), nearest first. Returns the
/// new length. A bounded insertion sort, fast for the small `k` (≈20)
/// GNNs use: a candidate is skipped unless it beats the current `k`-th,
/// and lands after every kept entry it does not beat, so exact ties keep
/// candidate order. While no NaN is kept the list is sorted and the
/// insertion shifts down from the end; once a NaN is kept the list is no
/// longer ordered, and the insertion point comes from the `partition_point`
/// binary search the selection has always used, so NaN features keep
/// their established neighbour order.
fn select_k_scored(
    i: usize,
    scored: impl Iterator<Item = (usize, f32)>,
    mut len: usize,
    best: &mut [f32],
    out: &mut [usize],
) -> usize {
    let k = out.len();
    let mut sorted = !best[..len].iter().any(|d| d.is_nan());
    for (j, d) in scored {
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
    len
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
    let n = validate(points, dim, k);
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
        select_k_scored(i, dists.iter().copied().enumerate(), 0, &mut best, out);
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

/// Grid-accelerated exact KNN for 3-D points.
///
/// Buckets points into a uniform grid sized so the expected occupancy is a
/// few points per cell, then for each query expands cell shells until the
/// current k-th distance is provably correct (shell lower bound exceeds it).
///
/// # Panics
///
/// Panics if `dim != 3`, the buffer is ragged, `k == 0`, or `n <= k`.
pub fn knn_grid(points: &[f32], dim: usize, k: usize) -> NeighborList {
    assert_eq!(dim, 3, "knn_grid is specialised for 3-D point clouds");
    let n = validate(points, dim, k);

    // Bounding box.
    let mut lo = [f32::INFINITY; 3];
    let mut hi = [f32::NEG_INFINITY; 3];
    for p in points.chunks(3) {
        for d in 0..3 {
            lo[d] = lo[d].min(p[d]);
            hi[d] = hi[d].max(p[d]);
        }
    }
    let extent: f32 = (0..3).map(|d| hi[d] - lo[d]).fold(0.0, f32::max).max(1e-6);
    // Aim for ~4 points per occupied cell on average.
    let cells_per_axis = ((n as f32 / 4.0).cbrt().ceil() as usize).clamp(1, 64);
    let cell = extent / cells_per_axis as f32;

    let cell_of = |p: &[f32]| -> [usize; 3] {
        let mut c = [0usize; 3];
        for d in 0..3 {
            c[d] = (((p[d] - lo[d]) / cell) as usize).min(cells_per_axis - 1);
        }
        c
    };

    let ncells = cells_per_axis * cells_per_axis * cells_per_axis;
    let flat = |c: [usize; 3]| (c[0] * cells_per_axis + c[1]) * cells_per_axis + c[2];
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); ncells];
    for i in 0..n {
        buckets[flat(cell_of(&points[i * 3..i * 3 + 3]))].push(i);
    }

    let mut idx = vec![0usize; n * k];
    let mut candidates: Vec<usize> = Vec::new();
    let mut cand_dists: Vec<f32> = Vec::new();
    let mut best = vec![0.0f32; k];
    for (i, out) in idx.chunks_exact_mut(k).enumerate() {
        let pi = &points[i * 3..i * 3 + 3];
        let ci = cell_of(pi);
        let mut len = 0;
        for ring in 0..=cells_per_axis {
            // Lower bound on distance to any point in a cell at Chebyshev
            // ring distance `ring` from the query's cell.
            if len == k {
                let bound = (ring.saturating_sub(1)) as f32 * cell;
                if bound * bound > best[k - 1] {
                    break;
                }
            }
            candidates.clear();
            let r = ring as isize;
            let range = |c: usize| -> (isize, isize) {
                (
                    (c as isize - r).max(0),
                    (c as isize + r).min(cells_per_axis as isize - 1),
                )
            };
            let (x0, x1) = range(ci[0]);
            let (y0, y1) = range(ci[1]);
            let (z0, z1) = range(ci[2]);
            for x in x0..=x1 {
                for y in y0..=y1 {
                    for z in z0..=z1 {
                        // Only the shell surface — interior rings were done.
                        let cheb = (x - ci[0] as isize)
                            .abs()
                            .max((y - ci[1] as isize).abs())
                            .max((z - ci[2] as isize).abs());
                        if cheb != r {
                            continue;
                        }
                        candidates.extend(&buckets[flat([x as usize, y as usize, z as usize])]);
                    }
                }
            }
            if candidates.is_empty() {
                continue;
            }
            cand_dists.resize(candidates.len(), 0.0);
            simd::squared_distances_3d_indexed(pi, points, &candidates, &mut cand_dists);
            len = select_k_scored(
                i,
                candidates.iter().copied().zip(cand_dists.iter().copied()),
                len,
                &mut best,
                out,
            );
        }
        debug_assert_eq!(len, k);
    }
    NeighborList::new(n, k, idx)
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

    fn dist2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
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
        for (builder, name) in [
            (
                knn_brute as fn(&[f32], usize, usize) -> NeighborList,
                "brute",
            ),
            (knn_grid, "grid"),
        ] {
            let nl = builder(&pts, 3, 5);
            for i in 0..50 {
                assert!(
                    !nl.neighbors(i).contains(&i),
                    "{name} produced self loop at {i}"
                );
            }
        }
    }

    #[test]
    fn grid_matches_brute_distances() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in [30usize, 100, 257] {
            let pts = random_cloud(&mut rng, n);
            let a = knn_brute(&pts, 3, 8);
            let b = knn_grid(&pts, 3, 8);
            for i in 0..n {
                // Compare distances, not indices, to be robust to exact ties.
                let da: Vec<f32> = a
                    .neighbors(i)
                    .iter()
                    .map(|&j| {
                        let (p, q) = (&pts[i * 3..i * 3 + 3], &pts[j * 3..j * 3 + 3]);
                        dist2(p, q)
                    })
                    .collect();
                let db: Vec<f32> = b
                    .neighbors(i)
                    .iter()
                    .map(|&j| {
                        let (p, q) = (&pts[i * 3..i * 3 + 3], &pts[j * 3..j * 3 + 3]);
                        dist2(p, q)
                    })
                    .collect();
                for (x, y) in da.iter().zip(&db) {
                    assert!((x - y).abs() < 1e-9, "n={n} node {i}: {da:?} vs {db:?}");
                }
            }
        }
    }

    #[test]
    fn selection_resumes_a_partial_list() {
        // Merging the candidates in two calls, as the grid does shell by
        // shell, keeps the list of one call, NaN distances included: the
        // second call must see that a NaN is already kept.
        let mut rng = StdRng::seed_from_u64(5);
        for trial in 0..300 {
            let n = 30;
            let k = 1 + trial % 10;
            let dists: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0..6) {
                    0 => f32::NAN,
                    1 => 0.5,
                    _ => rng.gen_range(0.0f32..1.0),
                })
                .collect();
            let split = rng.gen_range(0..n);
            let scored = || dists.iter().copied().enumerate();
            let (mut best, mut whole) = (vec![0.0; k], vec![0; k]);
            select_k_scored(0, scored(), 0, &mut best, &mut whole);
            let mut parts = vec![0; k];
            let len = select_k_scored(0, scored().take(split), 0, &mut best, &mut parts);
            select_k_scored(0, scored().skip(split), len, &mut best, &mut parts);
            assert_eq!(whole, parts, "k={k} split={split} dists={dists:?}");
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
            for (builder, name) in [
                (
                    knn_brute as fn(&[f32], usize, usize) -> NeighborList,
                    "brute",
                ),
                (knn_grid, "grid"),
            ] {
                let scalar = with_path(LanePath::Scalar, || builder(&pts, 3, 7));
                let lane = with_path(LanePath::Avx2, || builder(&pts, 3, 7));
                assert_eq!(scalar, lane, "{name} n={n} diverged across lane paths");
            }
        }
    }
}
