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
//! `select_k` then keeps the `k` nearest, nearest first and exact ties in
//! index order: a bound from 16 strided lane minima screens the row down
//! to the few points that can be neighbours (about 14 of 127 at 128 points
//! of 24 dimensions, k = 10), and only those are sorted. Rows the bound
//! cannot serve — a NaN distance, `k` above 16, fewer than 32 points —
//! keep the bounded insertion loop the selection has always run.
//! [`knn_brute_segments`] builds every cloud of a stacked batch into one
//! table, with one set of buffers for the whole batch.
//!
//! It is the only builder. An accelerated one (a grid or a k-d tree over
//! 3-D points) would have to return exact ties in index order, as this
//! one does, or it would move the neighbour lists the golden tests pin.

use crate::neighbors::NeighborList;
use hgnas_tensor::simd;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide count of per-cloud [`knn_brute`] builds (a
/// [`knn_brute_segments`] call counts one per cloud). Purely observational —
/// the ops layer's graph-reuse tests pin "the static KNN graph is built once
/// per batch, not once per epoch" against this counter.
static KNN_BRUTE_CALLS: AtomicUsize = AtomicUsize::new(0);

/// Number of clouds [`knn_brute`] and [`knn_brute_segments`] have built in
/// this process. Purely observational; tests sampling it must own their
/// process (a dedicated integration-test binary), since parallel tests all
/// bump the same counter.
pub fn knn_brute_calls() -> usize {
    KNN_BRUTE_CALLS.load(Ordering::Relaxed)
}

/// Strided lanes the selection screen takes its bound from: lane `l` holds
/// the points `j ≡ l (mod SCREEN_LANES)`.
const SCREEN_LANES: usize = 16;

/// Keeps the `k = out.len()` nearest of the points scored by `dists`
/// (point `i` itself excluded): indices in `out`, nearest first, exact
/// ties in index order. `dists[i]` is overwritten; `best` (`k` entries) and
/// `keys` (one per point) are scratch.
///
/// **The screen.** Read the query's own slot as +∞ and take the minimum of
/// each of the [`SCREEN_LANES`] strided lanes. Each lane's minimum is
/// reached by a point of that lane, so the `k`-th smallest lane minimum is
/// reached by `k` distinct other points: the `k`-th nearest distance, and
/// so every neighbour's, lies at or under it. Only the points at or under
/// that bound go on. Each is keyed as `(d + 0.0).to_bits() << 32 | j`: a
/// distance is a fold of squares from `+0.0`, so it is never negative, and
/// for such values (`+∞` included) the bits order exactly as the values, so
/// the keys sort as `(d, j)`. Sorting the survivors and writing the first
/// `k` returns what the insertion loop below returns.
///
/// **Rows that keep the insertion loop** ([`insert_k`]):
/// - a NaN at some `j ≠ i`. A NaN compares false, so the insertion loop
///   keeps it in an order no sort by `(d, j)` reproduces, and the graph
///   tests pin that order. The lane pass sums each lane as well as taking
///   its minimum: a sum of distances in `[0, +∞]` is NaN only when one of
///   them is;
/// - `k` above [`SCREEN_LANES`], which has no `k`-th lane minimum;
/// - fewer than two lanes' worth of points, where the screen saves little
///   (and a point count past `u32::MAX`, which the key cannot hold).
fn select_k(i: usize, dists: &mut [f32], best: &mut [f32], keys: &mut [u64], out: &mut [usize]) {
    let k = out.len();
    dists[i] = f32::INFINITY;
    let Some(bound) = screen_bound(dists, k) else {
        return insert_k(i, dists, best, out);
    };
    // NaN fails `<=`, so the query drops out even when the bound is +∞.
    dists[i] = f32::NAN;
    let mut kept = 0;
    for (j, &d) in dists.iter().enumerate() {
        // Branch-free: every key is written, and only a survivor is kept.
        keys[kept] = u64::from((d + 0.0).to_bits()) << 32 | j as u64;
        kept += usize::from(d <= bound);
    }
    let kept = &mut keys[..kept];
    kept.sort_unstable();
    for (o, &key) in out.iter_mut().zip(&kept[..k]) {
        *o = (key & u64::from(u32::MAX)) as usize;
    }
}

/// The `k`-th smallest of the [`SCREEN_LANES`] strided lane minima of
/// `dists` (see [`select_k`]), or `None` for a row that keeps the insertion
/// loop.
fn screen_bound(dists: &[f32], k: usize) -> Option<f32> {
    let n = dists.len();
    if k > SCREEN_LANES || n < 2 * SCREEN_LANES || u32::try_from(n).is_err() {
        return None;
    }
    let mut mins = [f32::INFINITY; SCREEN_LANES];
    let mut sums = [0.0f32; SCREEN_LANES];
    let mut lanes = dists.chunks_exact(SCREEN_LANES);
    for chunk in &mut lanes {
        for ((m, s), &d) in mins.iter_mut().zip(&mut sums).zip(chunk) {
            *m = if d < *m { d } else { *m };
            *s += d;
        }
    }
    for ((m, s), &d) in mins.iter_mut().zip(&mut sums).zip(lanes.remainder()) {
        *m = if d < *m { d } else { *m };
        *s += d;
    }
    if sums.iter().any(|s| s.is_nan()) {
        return None;
    }
    // The k-th smallest lane minimum is the least one that has at least k
    // lane minima at or under it (a rank count, cheaper than a sort).
    let mut rank = [0u32; SCREEN_LANES];
    for &m in &mins {
        for (r, &t) in rank.iter_mut().zip(&mins) {
            *r += u32::from(m <= t);
        }
    }
    let mut bound = f32::INFINITY;
    for (&r, &t) in rank.iter().zip(&mins) {
        if r as usize >= k && t < bound {
            bound = t;
        }
    }
    Some(bound)
}

/// The bounded insertion-select [`select_k`] falls back to: a point is
/// skipped unless it beats the current `k`-th, and lands after every kept
/// entry it does not beat, so exact ties keep index order. `best` holds the
/// kept distances. While no NaN is kept the list is sorted and the
/// insertion shifts down from the end; once a NaN is kept the list is no
/// longer ordered, and the insertion point comes from the
/// `partition_point` binary search the selection has always used, so NaN
/// features keep their established neighbour order.
fn insert_k(i: usize, dists: &[f32], best: &mut [f32], out: &mut [usize]) {
    let k = out.len();
    // As long as `out`, so the shifts below need no bounds checks.
    let best = &mut best[..k];
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

/// The buffers of a KNN build, sized for its largest cloud: the column
/// copy, one distance row, the insertion loop's kept distances and the
/// screen's keys.
struct Scratch {
    cols: Vec<f32>,
    dists: Vec<f32>,
    best: Vec<f32>,
    keys: Vec<u64>,
}

impl Scratch {
    fn new(n: usize, dim: usize, k: usize) -> Self {
        Scratch {
            cols: vec![0.0; n * dim],
            dists: vec![0.0; n],
            best: vec![0.0; k],
            keys: vec![0; n],
        }
    }
}

/// Builds one cloud's lists into `out` (`k` entries per point), each index
/// offset by `row0`.
fn build_into(
    points: &[f32],
    dim: usize,
    k: usize,
    row0: usize,
    scratch: &mut Scratch,
    out: &mut [usize],
) {
    KNN_BRUTE_CALLS.fetch_add(1, Ordering::Relaxed);
    assert!(dim > 0, "dimension must be positive");
    let n = points.len() / dim;
    assert!(k > 0, "k must be positive");
    assert!(n > k, "need more than k={k} points, got {n}");
    let cols = &mut scratch.cols[..n * dim];
    for (j, p) in points.chunks_exact(dim).enumerate() {
        for (d, &v) in p.iter().enumerate() {
            cols[d * n + j] = v;
        }
    }
    let dists = &mut scratch.dists[..n];
    let keys = &mut scratch.keys[..n];
    for (i, (q, row)) in points
        .chunks_exact(dim)
        .zip(out.chunks_exact_mut(k))
        .enumerate()
    {
        simd::squared_distances_cols(q, cols, dists);
        select_k(i, dists, &mut scratch.best, keys, row);
        for j in row {
            *j += row0;
        }
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
    assert!(dim > 0, "dimension must be positive");
    assert_eq!(points.len() % dim, 0, "point buffer not a multiple of dim");
    let n = points.len() / dim;
    let mut idx = vec![0usize; n * k];
    build_into(points, dim, k, 0, &mut Scratch::new(n, dim, k), &mut idx);
    NeighborList::new(n, k, idx)
}

/// [`knn_brute`] over every cloud of a stacked batch: `segments` holds the
/// clouds' point counts in row order, and each cloud's neighbour indices
/// are offset by its first row, so the flat table (`k` entries per row)
/// indexes the stacked rows. Every cloud builds straight into the table,
/// and the build buffers are allocated once per batch.
///
/// # Panics
///
/// As [`knn_brute`], for any cloud; also if `segments` sums past the rows
/// in `points`.
pub fn knn_brute_segments(points: &[f32], segments: &[usize], dim: usize, k: usize) -> Vec<usize> {
    let rows: usize = segments.iter().sum();
    let mut flat = vec![0usize; rows * k];
    let largest = segments.iter().copied().max().unwrap_or(0);
    let mut scratch = Scratch::new(largest, dim, k);
    let mut row0 = 0;
    for &n in segments {
        build_into(
            &points[row0 * dim..(row0 + n) * dim],
            dim,
            k,
            row0,
            &mut scratch,
            &mut flat[row0 * k..(row0 + n) * k],
        );
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
    let mut flat = Vec::with_capacity(segments.iter().sum::<usize>() * k);
    let mut row0 = 0;
    for &n in segments {
        flat.extend(random_neighbors(rng, n, k).flat().iter().map(|&j| j + row0));
        row0 += n;
    }
    flat
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

    #[test]
    fn screened_rows_match_the_insertion_loop() {
        // Distance rows the screen serves: coarse values that tie exactly,
        // zeros, +∞, and a NaN in the query's own slot (an infinite
        // coordinate's self-distance). The screen must return the insertion
        // loop's lists, ties in index order.
        let mut rng = StdRng::seed_from_u64(21);
        let mut screened = 0;
        for _ in 0..2000 {
            let n = rng.gen_range(2 * SCREEN_LANES..200);
            let k = rng.gen_range(1..SCREEN_LANES + 1);
            let i = rng.gen_range(0..n);
            let row: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0..10) {
                    0 => 0.0,
                    1 => f32::INFINITY,
                    _ => rng.gen_range(0..40) as f32 * 0.25,
                })
                .collect();
            let mut dists = row.clone();
            dists[i] = if rng.gen() { f32::NAN } else { row[i] };
            screened += usize::from(screen_bound(&row, k).is_some());
            let (mut best, mut keys) = (vec![0.0; k], vec![0; n]);
            let (mut got, mut want) = (vec![0; k], vec![0; k]);
            select_k(i, &mut dists, &mut best, &mut keys, &mut got);
            insert_k(i, &row, &mut best, &mut want);
            assert_eq!(got, want, "n={n} k={k} i={i}");
        }
        assert_eq!(screened, 2000, "every row should take the screen");
    }

    #[test]
    fn segments_build_into_one_table() {
        // Clouds of falling and rising sizes share one set of buffers; each
        // cloud's lists are its own graph, offset by its first row.
        let mut rng = StdRng::seed_from_u64(22);
        let segments = [40usize, 9, 33, 12];
        let rows: usize = segments.iter().sum();
        let pts = random_cloud(&mut rng, rows);
        let flat = knn_brute_segments(&pts, &segments, 3, 6);
        let mut row0 = 0;
        for &n in &segments {
            let own = knn_brute(&pts[row0 * 3..(row0 + n) * 3], 3, 6);
            let offset: Vec<usize> = own.flat().iter().map(|&j| j + row0).collect();
            assert_eq!(
                &flat[row0 * 6..(row0 + n) * 6],
                &offset[..],
                "cloud at row {row0}"
            );
            row0 += n;
        }
        assert_eq!(flat.len(), rows * 6);
    }
}
