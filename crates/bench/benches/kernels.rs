//! Criterion micro-benches for the numerical substrate: naive vs tiled
//! vs threaded matmul, and the brute-force KNN build.
//!
//! Besides the criterion sweep, the bench always writes a machine-readable
//! `BENCH_kernels.json` timing the matmul, reduction and KNN kernels with
//! every kernel forced onto its plain compile and on the host's lane path,
//! one record per kernel × shape. The two paths are bit-identical by
//! construction, so the record is purely a perf trajectory for CI
//! (`bench_diff` compares it against the committed baseline); a kernel
//! without an AVX2 compile reads about 1.0, and the other rows compare the
//! plain and the AVX2 compile of one body: the matmuls' tiled bodies, the
//! arg-tracked max/min under the max reductions, and the distance sweep
//! inside `knn_brute`. Each `knn_brute` row
//! times 32 distinct clouds per call, so the branch predictor cannot learn
//! one cloud's selection. `HGNAS_BENCH_JSON=only` skips the criterion
//! sweep and emits just the record; `HGNAS_BENCH_OUT` overrides the output
//! path.

use criterion::{criterion_group, BenchmarkId, Criterion};
use hgnas_bench::record::{emit_bench_json, json_only, time_both};
use hgnas_graph::knn_brute;
use hgnas_tensor::kernels::{fold_rows, scatter_add_rows};
use hgnas_tensor::matmul::{matmul_at, matmul_blocked, matmul_bt, matmul_naive, matmul_parallel};
use hgnas_tensor::reduce::{reduce_row_groups, segment_reduce_rows, Reduction};
use hgnas_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_matmul(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul");
    let mut rng = StdRng::seed_from_u64(1);
    for &n in &[64usize, 256] {
        let a = Tensor::rand_uniform(&mut rng, &[n, n], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[n, n], -1.0, 1.0);
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bch, _| {
            bch.iter(|| matmul_naive(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("blocked", n), &n, |bch, _| {
            bch.iter(|| matmul_blocked(black_box(&a), black_box(&b)))
        });
        group.bench_with_input(BenchmarkId::new("parallel4", n), &n, |bch, _| {
            bch.iter(|| matmul_parallel(black_box(&a), black_box(&b), 4))
        });
    }
    group.finish();
}

fn bench_knn(c: &mut Criterion) {
    let mut group = c.benchmark_group("knn");
    let mut rng = StdRng::seed_from_u64(2);
    for &n in &[256usize, 1024] {
        let pts: Vec<f32> = (0..n * 3).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        group.bench_with_input(BenchmarkId::new("brute", n), &n, |bch, _| {
            bch.iter(|| knn_brute(black_box(&pts), 3, 20))
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// scalar-vs-lane JSON record
// ---------------------------------------------------------------------------

/// Writes the machine-readable perf record CI uploads and diffs against
/// `BENCH_kernels.baseline.json` (one kernel record per line so `bench_diff`
/// can parse it without a JSON dependency).
fn emit_kernels_json() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut entries: Vec<String> = Vec::new();

    // Matmul family: one square shape and one ragged shape (remainder lanes).
    for &(m, k, n) in &[(256usize, 256usize, 256usize), (192, 100, 232)] {
        let shape = format!("{m}x{k}x{n}");
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -1.0, 1.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -1.0, 1.0);
        let at = a.transpose2();
        let bt = b.transpose2();
        entries.push(time_both("matmul_blocked", &shape, 7, || {
            black_box(matmul_blocked(black_box(&a), black_box(&b)));
        }));
        entries.push(time_both("matmul_bt", &shape, 7, || {
            black_box(matmul_bt(black_box(&a), black_box(&bt)));
        }));
        entries.push(time_both("matmul_at", &shape, 7, || {
            black_box(matmul_at(black_box(&at), black_box(&b)));
        }));
    }

    // The supernet's combine at the batch geometry each workload trains
    // with: `small` (8 clouds × 128 points, hidden 24) and `tiny` (8 × 48,
    // hidden 16). Forward `[rows, h]·[h, h]`; backward the input gradient
    // `g·wᵀ` (`matmul_bt`) and the weight gradient `xᵀ·g` (`matmul_at`,
    // contracting over the rows).
    // The workload shapes draw from their own generator, so the rows that
    // came before them keep their inputs.
    let mut wrng = StdRng::seed_from_u64(11);
    for &(rows, h) in &[(1024usize, 24usize), (384, 16)] {
        let x = Tensor::rand_uniform(&mut wrng, &[rows, h], -1.0, 1.0);
        let w = Tensor::rand_uniform(&mut wrng, &[h, h], -1.0, 1.0);
        let g = Tensor::rand_uniform(&mut wrng, &[rows, h], -1.0, 1.0);
        let shape = format!("{rows}x{h}x{h}");
        entries.push(time_both("matmul_blocked", &shape, 25, || {
            black_box(matmul_blocked(black_box(&x), black_box(&w)));
        }));
        entries.push(time_both("matmul_bt", &shape, 25, || {
            black_box(matmul_bt(black_box(&g), black_box(&w)));
        }));
        entries.push(time_both(
            "matmul_at",
            &format!("{h}x{rows}x{h}"),
            25,
            || {
                black_box(matmul_at(black_box(&x), black_box(&g)));
            },
        ));
    }

    // Message-passing shapes: [points, neighbours, channels] EdgeConv-style,
    // reduced over each point's neighbour rows of the [points*neighbours,
    // channels] message tensor.
    let t = Tensor::rand_uniform(&mut rng, &[1024 * 20, 64], -1.0, 1.0);
    entries.push(time_both("reduce_mid_sum", "1024x20x64", 9, || {
        black_box(reduce_row_groups(black_box(&t), 20, Reduction::Sum));
    }));
    // Max aggregation as a `small` supernet batch runs it: 8 clouds x 128
    // points, k = 10 neighbour messages of 24 (one node's hidden features)
    // to 72 channels (centre | neighbour | relative), reduced in place from
    // the [n*k, c] tape tensor.
    for c in [24usize, 72] {
        let msgs = Tensor::rand_uniform(&mut rng, &[1024 * 10, c], -1.0, 1.0);
        entries.push(time_both(
            "reduce_mid_max",
            &format!("1024x10x{c}"),
            9,
            || {
                black_box(reduce_row_groups(black_box(&msgs), 10, Reduction::Max));
            },
        ));
    }
    // The message widths the searched aggregations reduce most often: 48
    // (two hidden-24 parts) at the `small` geometry, and 16 and 32 at the
    // `tiny` one (8 clouds x 48 points, k = 8, hidden 16).
    for &(points, k, c) in &[(1024usize, 10usize, 48usize), (384, 8, 16), (384, 8, 32)] {
        let msgs = Tensor::rand_uniform(&mut wrng, &[points * k, c], -1.0, 1.0);
        entries.push(time_both(
            "reduce_mid_max",
            &format!("{points}x{k}x{c}"),
            25,
            || {
                black_box(reduce_row_groups(black_box(&msgs), k, Reduction::Max));
            },
        ));
    }
    // Global max pooling of the same batches: 8 segments of 128 rows, and
    // 8 of 48.
    for &(points, c) in &[(128usize, 24usize), (48, 16)] {
        let g = if points == 128 { &mut rng } else { &mut wrng };
        let h = Tensor::rand_uniform(g, &[8 * points, c], -1.0, 1.0);
        let segments = [points; 8];
        let reps = if points == 128 { 9 } else { 25 };
        entries.push(time_both(
            "segment_pool_max",
            &format!("8x{points}x{c}"),
            reps,
            || {
                black_box(segment_reduce_rows(
                    black_box(&h),
                    &segments,
                    Reduction::Max,
                ));
            },
        ));
    }
    let flat = Tensor::rand_uniform(&mut rng, &[1024 * 20, 64], -1.0, 1.0);
    let idx: Vec<usize> = (0..1024 * 20).map(|i| i % 1024).collect();
    entries.push(time_both("scatter_add_rows", "20480x64->1024", 9, || {
        black_box(scatter_add_rows(black_box(&flat), black_box(&idx), 1024));
    }));
    entries.push(time_both("fold_rows", "20480x64/20", 9, || {
        black_box(fold_rows(black_box(&flat), 20));
    }));

    // KNN graph construction. The pipeline builds every graph with
    // `knn_brute`: feature-space graphs on one cloud's hidden features
    // (`small`: 128 points x 24 dims, k = 10; `tiny`: 48 x 16, k = 8) and
    // raw-point graphs in 3-D (paper scale: 1024 points, k = 20). Each
    // timed call builds the graphs of `KNN_CLOUDS` distinct clouds in turn:
    // one cloud rebuilt on every rep lets the branch predictor learn its
    // selection, which a training run never repeats. The clouds draw from
    // their own generator, so the rows above keep their inputs.
    let mut krng = StdRng::seed_from_u64(13);
    for &(n, dim, k) in &[(128usize, 24usize, 10usize), (48, 16, 8), (1024, 3, 20)] {
        let clouds: Vec<Vec<f32>> = (0..KNN_CLOUDS)
            .map(|_| {
                if dim == 3 {
                    (0..n * dim).map(|_| krng.gen_range(-1.0f32..1.0)).collect()
                } else {
                    hidden_features(&mut krng, n, dim)
                }
            })
            .collect();
        entries.push(time_both(
            "knn_brute",
            &format!("{KNN_CLOUDS}x{n}x{dim} k={k}"),
            7,
            || {
                for pts in &clouds {
                    black_box(knn_brute(black_box(pts), dim, k));
                }
            },
        ));
    }
    emit_bench_json("kernels/scalar-vs-lane", "BENCH_kernels.json", &entries);
}

/// Distinct clouds each `knn_brute` record row cycles through per timed
/// call.
const KNN_CLOUDS: usize = 32;

/// A cloud shaped like a searched layer's hidden features: ReLU'd, so about
/// half the coordinates are exactly zero, with one row in 16 a copy of an
/// earlier row, as identical input points stay identical through a layer.
/// The copies give exact distance ties, which the selection must return in
/// index order.
fn hidden_features(rng: &mut StdRng, n: usize, dim: usize) -> Vec<f32> {
    let mut pts: Vec<f32> = Vec::with_capacity(n * dim);
    for j in 0..n {
        if j > 0 && rng.gen_range(0..16) == 0 {
            let src = rng.gen_range(0..j) * dim;
            pts.extend_from_within(src..src + dim);
        } else {
            pts.extend((0..dim).map(|_| rng.gen_range(-1.0f32..1.0).max(0.0)));
        }
    }
    pts
}

criterion_group!(benches, bench_matmul, bench_knn);

fn main() {
    // HGNAS_BENCH_JSON=only skips the criterion sweep (CI's quick path);
    // the JSON record is emitted either way.
    if !json_only() {
        benches();
    }
    emit_kernels_json();
}
