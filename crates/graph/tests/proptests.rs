//! Property-based tests for graph construction.

use hgnas_graph::{knn_brute, random_neighbors, AdjNorm, Csr, DiGraph, NeighborList};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cloud(seed: u64, n: usize) -> Vec<f32> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * 3).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn d2(pts: &[f32], i: usize, j: usize) -> f32 {
    (0..3)
        .map(|d| (pts[i * 3 + d] - pts[j * 3 + d]).powi(2))
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn knn_is_truly_nearest(seed in 0u64..500, n in 12usize..60, k in 1usize..8) {
        prop_assume!(n > k);
        let pts = cloud(seed, n);
        let nl = knn_brute(&pts, 3, k);
        for i in 0..n {
            let worst_selected = nl
                .neighbors(i)
                .iter()
                .map(|&j| d2(&pts, i, j))
                .fold(0.0f32, f32::max);
            // No unselected point may be strictly closer than the worst
            // selected neighbour.
            for j in 0..n {
                if j != i && !nl.neighbors(i).contains(&j) {
                    prop_assert!(d2(&pts, i, j) >= worst_selected - 1e-6);
                }
            }
        }
    }

    #[test]
    fn knn_sorted_ascending(seed in 0u64..200, n in 10usize..40) {
        let k = 4;
        prop_assume!(n > k);
        let pts = cloud(seed, n);
        let nl = knn_brute(&pts, 3, k);
        for i in 0..n {
            let ds: Vec<f32> = nl.neighbors(i).iter().map(|&j| d2(&pts, i, j)).collect();
            for w in ds.windows(2) {
                prop_assert!(w[0] <= w[1] + 1e-9);
            }
        }
    }

    #[test]
    fn random_neighbors_valid(seed in 0u64..500, n in 2usize..50, k in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_neighbors(&mut rng, n, k);
        prop_assert_eq!(nl.len(), n);
        for i in 0..n {
            prop_assert!(!nl.neighbors(i).contains(&i));
            prop_assert!(nl.neighbors(i).iter().all(|&j| j < n));
        }
    }

    #[test]
    fn csr_round_trip(n in 1usize..20, edges in prop::collection::vec((0usize..20, 0usize..20), 0..60)) {
        let edges: Vec<(usize, usize)> = edges
            .into_iter()
            .filter(|&(s, d)| s < n && d < n)
            .collect();
        let csr = Csr::from_edges(n, &edges);
        prop_assert_eq!(csr.edge_count(), edges.len());
        let total: usize = (0..n).map(|i| csr.degree(i)).sum();
        prop_assert_eq!(total, edges.len());
    }

    #[test]
    fn neighbor_list_to_csr_preserves_order(
        n in 2usize..15, seed in 0u64..100
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_neighbors(&mut rng, n, 3);
        let csr = Csr::from_neighbor_list(&nl);
        for i in 0..n {
            prop_assert_eq!(csr.neighbors(i), nl.neighbors(i));
        }
    }

    #[test]
    fn row_norm_adjacency_is_stochastic(
        n in 2usize..12,
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..40)
    ) {
        let mut g = DiGraph::new(n);
        for (s, d) in edges.into_iter().filter(|&(s, d)| s < n && d < n) {
            g.add_edge(s, d);
        }
        let a = g.adjacency(AdjNorm::Row, true);
        for i in 0..n {
            let s: f32 = a[i * n..(i + 1) * n].iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn neighbor_list_flat_layout(n in 2usize..10, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nl = random_neighbors(&mut rng, n, 2);
        let rebuilt = NeighborList::new(n, 2, nl.flat().to_vec());
        prop_assert_eq!(rebuilt, nl);
    }
}

// ---------------------------------------------------------------------------
// knn_brute against the build it replaced: per query, every distance by a
// sequential fold, then a bounded insertion-select over the scored
// candidates in index order. Both are kept here as the oracle.
// ---------------------------------------------------------------------------

fn oracle_dist2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn oracle_select_k_scored(
    i: usize,
    scored: impl Iterator<Item = (usize, f32)>,
    k: usize,
) -> Vec<(f32, usize)> {
    let mut best: Vec<(f32, usize)> = Vec::with_capacity(k + 1);
    for (j, d) in scored {
        if j == i {
            continue;
        }
        if best.len() == k && d >= best[k - 1].0 {
            continue;
        }
        let pos = best.partition_point(|&(bd, _)| bd <= d);
        best.insert(pos, (d, j));
        if best.len() > k {
            best.pop();
        }
    }
    best
}

fn oracle_knn(points: &[f32], dim: usize, k: usize) -> Vec<usize> {
    let n = points.len() / dim;
    let mut idx = Vec::with_capacity(n * k);
    for (i, q) in points.chunks_exact(dim).enumerate() {
        let dists: Vec<f32> = points
            .chunks_exact(dim)
            .map(|p| oracle_dist2(q, p))
            .collect();
        let best = oracle_select_k_scored(i, dists.into_iter().enumerate(), k);
        idx.extend(best.into_iter().map(|(_, j)| j));
    }
    idx
}

/// A feature cloud with the cases that decide neighbour order: duplicated
/// points, all-zero rows, non-finite features and coarse coordinates whose
/// distances tie exactly, among ordinary random points. A non-finite
/// feature is a NaN, or with `nan == false` an infinity of either sign: a
/// NaN feature makes every distance of its point NaN, which sends the
/// selection of every row of the cloud down its insertion loop, while an
/// infinite one leaves the other rows to the screen, with a NaN only in
/// its own row's self slot and where two infinities of one sign meet.
fn awkward_cloud(seed: u64, n: usize, dim: usize, nan: bool) -> Vec<f32> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts: Vec<f32> = Vec::with_capacity(n * dim);
    for j in 0..n {
        match rng.gen_range(0usize..8) {
            0 => pts.extend(std::iter::repeat_n(0.0, dim)),
            1 if j > 0 => {
                let src = rng.gen_range(0..j);
                let row = pts[src * dim..(src + 1) * dim].to_vec();
                pts.extend(row);
            }
            2 => {
                let nan_at = rng.gen_range(0..dim);
                pts.extend((0..dim).map(|d| {
                    if d == nan_at {
                        if nan {
                            f32::NAN
                        } else if rng.gen() {
                            f32::INFINITY
                        } else {
                            f32::NEG_INFINITY
                        }
                    } else {
                        rng.gen_range(-1.0f32..1.0)
                    }
                }));
            }
            3 => pts.extend((0..dim).map(|_| rng.gen_range(-2i32..3) as f32 * 0.5)),
            _ => pts.extend((0..dim).map(|_| rng.gen_range(-1.0f32..1.0))),
        }
    }
    pts
}

const KNN_DIMS: [usize; 4] = [3, 16, 24, 65];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn knn_brute_matches_the_old_build_on_both_lane_paths(
        seed in 0u64..10_000, pick in 0usize..4, n in 2usize..160, k_pick in 0usize..1000,
        nan_pick in 0usize..2
    ) {
        use hgnas_tensor::simd::{with_path, LanePath};
        let dim = KNN_DIMS[pick];
        // Past the screen's 16 lanes too.
        let k = 1 + k_pick % (n - 1).min(24);
        let pts = awkward_cloud(seed, n, dim, nan_pick == 0);
        let want = oracle_knn(&pts, dim, k);
        for path in [LanePath::Scalar, LanePath::Avx2] {
            let got = with_path(path, || knn_brute(&pts, dim, k));
            prop_assert_eq!(got.flat(), &want[..], "{} dim={} n={} k={}", path, dim, n, k);
        }
    }
}
