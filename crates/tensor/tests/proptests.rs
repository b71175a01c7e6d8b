//! Property-based tests for the tensor kernels.

use hgnas_tensor::kernels::{
    concat_cols, fold_rows, gather_rows, repeat_rows, row_norms, scatter_add_rows, split_cols,
};
use hgnas_tensor::matmul::{matmul_at, matmul_blocked, matmul_bt, matmul_naive, matmul_parallel};
use hgnas_tensor::reduce::{reduce_row_groups, segment_reduce_rows, Reduction};
use hgnas_tensor::simd::{self, LanePath};
use hgnas_tensor::threads::with_kernel_threads;
use hgnas_tensor::Tensor;
use proptest::prelude::*;

fn tensor_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    prop::collection::vec(-10.0f32..10.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, &[rows, cols]))
}

/// Runs `f` once on the scalar path and once on the lane path (which degrades
/// to scalar on hosts without AVX2) and returns both results for bitwise
/// comparison.
fn on_both_paths<R>(mut f: impl FnMut() -> R) -> (R, R) {
    let scalar = simd::with_path(LanePath::Scalar, &mut f);
    let lanes = simd::with_path(LanePath::Avx2, &mut f);
    (scalar, lanes)
}

/// Single-float strategy that mixes finite values with the IEEE specials
/// the lane kernels must reproduce exactly: NaN, ±∞, and −0.0.
fn special_f32() -> impl Strategy<Value = f32> {
    (0usize..14, -10.0f32..10.0).prop_map(|(pick, v)| match pick {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5 => 1e-30,
        _ => v,
    })
}

/// Bitwise equality of two tensors (NaN == NaN, -0.0 != +0.0).
fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_kernels_agree(
        m in 1usize..40, k in 1usize..20, n in 1usize..40,
        data in prop::collection::vec(special_f32(), 2 * 40 * 20),
    ) {
        // Rows and columns run past several 4x8 tiles and their ragged
        // edges, over NaN, ±∞ and ±0.0 entries. Every kernel that shares
        // the naive loop's per-element order returns its bits on both lane
        // paths, and matmul_bt returns simd::dot's bits per element (up to
        // the payload of a NaN; see `same_value`).
        let a = Tensor::from_vec(data[..m * k].to_vec(), &[m, k]);
        let b = Tensor::from_vec(data[40 * 20..40 * 20 + k * n].to_vec(), &[k, n]);
        let (at, bt) = (a.transpose2(), b.transpose2());
        let reference = matmul_naive(&a, &b);
        let dots: Vec<f32> = a
            .data()
            .chunks_exact(k)
            .flat_map(|row| bt.data().chunks_exact(k).map(move |col| simd::dot(row, col)))
            .collect();
        for path in [LanePath::Scalar, LanePath::Avx2] {
            let (blocked, parallel, at_b, a_bt) = simd::with_path(path, || (
                matmul_blocked(&a, &b),
                matmul_parallel(&a, &b, 3),
                matmul_at(&at, &b),
                matmul_bt(&a, &bt),
            ));
            let want = reference.data();
            prop_assert!(same_values(blocked.data(), want), "blocked {} {}x{}x{}", path, m, k, n);
            prop_assert!(same_values(parallel.data(), want), "parallel {} {}x{}x{}", path, m, k, n);
            prop_assert!(same_values(at_b.data(), want), "at {} {}x{}x{}", path, m, k, n);
            prop_assert!(same_values(a_bt.data(), &dots), "bt {} {}x{}x{}", path, m, k, n);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..10, k in 1usize..10, n in 1usize..10, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -2.0, 2.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -2.0, 2.0);
        let c = Tensor::rand_uniform(&mut rng, &[k, n], -2.0, 2.0);
        // A(B + C) == AB + AC
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        prop_assert!(lhs.allclose(&rhs, 1e-2));
    }

    #[test]
    fn transpose_is_involution(t in tensor_strategy(7, 5)) {
        prop_assert!(t.transpose2().transpose2().allclose(&t, 0.0));
    }

    #[test]
    fn concat_split_round_trip(a in tensor_strategy(6, 3), b in tensor_strategy(6, 4)) {
        let cat = concat_cols(&[&a, &b]);
        let parts = split_cols(&cat, &[3, 4]);
        prop_assert!(parts[0].allclose(&a, 0.0));
        prop_assert!(parts[1].allclose(&b, 0.0));
    }

    #[test]
    fn repeat_then_fold_scales(t in tensor_strategy(5, 3), k in 1usize..6) {
        let folded = fold_rows(&repeat_rows(&t, k), k);
        prop_assert!(folded.allclose(&t.scale(k as f32), 1e-4));
    }

    #[test]
    fn gather_scatter_degree_weighted(
        t in tensor_strategy(6, 2),
        idx in prop::collection::vec(0usize..6, 1..20)
    ) {
        let gathered = gather_rows(&t, &idx);
        let scattered = scatter_add_rows(&gathered, &idx, 6);
        // Row i of the result equals count(i in idx) * t[i].
        for i in 0..6 {
            let count = idx.iter().filter(|&&j| j == i).count() as f32;
            for c in 0..2 {
                prop_assert!((scattered.at2(i, c) - count * t.at2(i, c)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn reductions_bounded_by_extremes(
        data in prop::collection::vec(-100.0f32..100.0, 24)
    ) {
        let t = Tensor::from_vec(data, &[2 * 4, 3]);
        let max = reduce_row_groups(&t, 4, Reduction::Max).values;
        let min = reduce_row_groups(&t, 4, Reduction::Min).values;
        let mean = reduce_row_groups(&t, 4, Reduction::Mean).values;
        for i in 0..max.numel() {
            prop_assert!(min.data()[i] <= mean.data()[i] + 1e-4);
            prop_assert!(mean.data()[i] <= max.data()[i] + 1e-4);
        }
    }

    #[test]
    fn sum_reduction_matches_k_times_mean(
        data in prop::collection::vec(-10.0f32..10.0, 30)
    ) {
        let t = Tensor::from_vec(data, &[2 * 5, 3]);
        let sum = reduce_row_groups(&t, 5, Reduction::Sum).values;
        let mean = reduce_row_groups(&t, 5, Reduction::Mean).values;
        prop_assert!(sum.allclose(&mean.scale(5.0), 1e-3));
    }
}

// ---------------------------------------------------------------------------
// scalar == lane bit-identity
//
// Every kernel must produce the exact same bits whichever lane path is
// forced — the AVX2 leg or the scalar fallback where a kernel has both, its
// one loop otherwise — at every thread budget. Shapes are deliberately
// ragged (not multiples of the 8-wide lane) so the remainder schedule is
// exercised too.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn simd_primitives_bit_identical(
        len in 1usize..70, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::rand_uniform(&mut rng, &[1, len], -3.0, 3.0);
        let y = Tensor::rand_uniform(&mut rng, &[1, len], -3.0, 3.0);
        let acc0 = Tensor::rand_uniform(&mut rng, &[1, len], -3.0, 3.0);

        let (s, l) = on_both_paths(|| {
            let mut acc = acc0.data().to_vec();
            simd::add_assign(&mut acc, y.data());
            simd::scale(&mut acc, 0.3);
            (acc, simd::dot(x.data(), y.data()))
        });
        // The raw loops, one rounding per operation.
        let want: Vec<f32> = acc0
            .data()
            .iter()
            .zip(y.data())
            .map(|(&c, &yv)| (c + yv) * 0.3)
            .collect();
        prop_assert!(slice_bits_eq(&s.0, &want) && slice_bits_eq(&l.0, &want));
        prop_assert_eq!(s.1.to_bits(), l.1.to_bits());
    }

    #[test]
    fn elementwise_kernels_bit_identical(
        len in 1usize..70,
        data in prop::collection::vec(special_f32(), 3 * 70),
        slope in 0.01f32..0.5,
    ) {
        // Three ragged slices drawn from the same special-laden pool: the
        // IEEE contract (NaN, ±∞, −0.0 behaviour) must hold bit-for-bit on
        // both paths, including the sub-8-lane remainder.
        let x = &data[..len];
        let y = &data[70..70 + len];
        let g0 = &data[140..140 + len];

        let (s, l) = on_both_paths(|| {
            let mut a = x.to_vec();
            simd::sub_assign(&mut a, y);
            let mut b = x.to_vec();
            simd::mul_assign(&mut b, y);
            let mut r = x.to_vec();
            simd::relu(&mut r);
            let mut lr = x.to_vec();
            simd::leaky_relu(&mut lr, slope);
            let mut gr = g0.to_vec();
            simd::relu_grad(&mut gr, x);
            let mut glr = g0.to_vec();
            simd::leaky_relu_grad(&mut glr, x, slope);
            (a, b, r, lr, gr, glr)
        });
        // The raw loops: one IEEE operation per element, and the literal
        // 1.0/0.0/slope multiply for the gradients.
        let map = |f: &dyn Fn(usize) -> f32| -> Vec<f32> { (0..len).map(f).collect() };
        let want = [
            map(&|i| x[i] - y[i]),
            map(&|i| x[i] * y[i]),
            map(&|i| if x[i] > 0.0 { x[i] } else { 0.0 }),
            map(&|i| if x[i] > 0.0 { x[i] } else { slope * x[i] }),
            map(&|i| g0[i] * if x[i] > 0.0 { 1.0 } else { 0.0 }),
            map(&|i| g0[i] * if x[i] > 0.0 { 1.0 } else { slope }),
        ];
        let got: [(&[f32], &[f32]); 6] = [
            (&s.0, &l.0), (&s.1, &l.1), (&s.2, &l.2),
            (&s.3, &l.3), (&s.4, &l.4), (&s.5, &l.5),
        ];
        for (i, ((a, b), w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                slice_bits_eq(a, w) && slice_bits_eq(b, w),
                "elementwise kernel {} diverged from its raw loop", i
            );
        }
    }

    #[test]
    fn adam_step_bit_identical(
        len in 1usize..70, t in 1u32..50, seed in 0u64..1000,
        planted in prop::collection::vec((0usize..70, special_f32()), 0..8),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let w0 = Tensor::rand_uniform(&mut rng, &[1, len], -3.0, 3.0);
        let m0 = Tensor::rand_uniform(&mut rng, &[1, len], -1.0, 1.0);
        // Second moments are sums of squares: non-negative by construction.
        let v0 = Tensor::rand_uniform(&mut rng, &[1, len], 0.0, 2.0);
        let g = Tensor::rand_uniform(&mut rng, &[1, len], -5.0, 5.0);
        // Some gradients are NaN, ±∞ or ±0.0.
        let mut planted_g = g.data().to_vec();
        for (i, x) in planted {
            planted_g[i % len] = x;
        }
        let g = Tensor::from_vec(planted_g, &[1, len]);
        let p = simd::AdamParams {
            lr: 3e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            inv_bc1: 1.0 / (1.0 - 0.9f32.powi(t as i32)),
            inv_bc2: 1.0 / (1.0 - 0.999f32.powi(t as i32)),
        };

        let (s, l) = on_both_paths(|| {
            let (mut w, mut m, mut v) =
                (w0.data().to_vec(), m0.data().to_vec(), v0.data().to_vec());
            simd::adam_step(&mut w, &mut m, &mut v, g.data(), p);
            (w, m, v)
        });
        prop_assert!(s.0.iter().zip(&l.0).all(|(a, b)| a.to_bits() == b.to_bits()), "w diverged");
        prop_assert!(s.1.iter().zip(&l.1).all(|(a, b)| a.to_bits() == b.to_bits()), "m diverged");
        prop_assert!(s.2.iter().zip(&l.2).all(|(a, b)| a.to_bits() == b.to_bits()), "v diverged");

        // Both paths compile one body, so check that body against the
        // documented per-element sequence, written straight.
        let (mut w, mut m, mut v) = (w0.data().to_vec(), m0.data().to_vec(), v0.data().to_vec());
        for (i, &gi) in g.data().iter().enumerate() {
            m[i] = p.beta1 * m[i] + (1.0 - p.beta1) * gi;
            v[i] = p.beta2 * v[i] + (1.0 - p.beta2) * gi * gi;
            let mhat = m[i] * p.inv_bc1;
            let vhat = v[i] * p.inv_bc2;
            w[i] -= p.lr * (mhat / (vhat.sqrt() + p.eps));
        }
        for (path, got) in [("scalar", &s), ("lane", &l)] {
            prop_assert!(same_values(&got.0, &w), "{} w against the sequence", path);
            prop_assert!(same_values(&got.1, &m), "{} m against the sequence", path);
            prop_assert!(same_values(&got.2, &v), "{} v against the sequence", path);
        }
    }

    #[test]
    fn distances_3d_bit_identical(
        n in 1usize..40, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let q = Tensor::rand_uniform(&mut rng, &[1, 3], -1.0, 1.0);
        let pts = Tensor::rand_uniform(&mut rng, &[n, 3], -1.0, 1.0);
        let cols = pts.transpose2();

        let (s, l) = on_both_paths(|| {
            let mut d = vec![0.0f32; n];
            simd::squared_distances_cols(q.data(), cols.data(), &mut d);
            d
        });
        prop_assert!(slice_bits_eq(&s, &l));
    }

    #[test]
    fn matmul_family_bit_identical(
        m in 1usize..24, k in 1usize..24, n in 1usize..24,
        threads in 1usize..5, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = Tensor::rand_uniform(&mut rng, &[m, k], -2.0, 2.0);
        let b = Tensor::rand_uniform(&mut rng, &[k, n], -2.0, 2.0);
        let at = a.transpose2();
        let bt = b.transpose2();

        let (s, l) = on_both_paths(|| with_kernel_threads(threads, || (
            matmul_blocked(&a, &b),
            matmul_parallel(&a, &b, threads),
            matmul_bt(&a, &bt),
            matmul_at(&at, &b),
        )));
        prop_assert!(bits_eq(&s.0, &l.0), "blocked diverged");
        prop_assert!(bits_eq(&s.1, &l.1), "parallel diverged");
        prop_assert!(bits_eq(&s.2, &l.2), "bt diverged");
        prop_assert!(bits_eq(&s.3, &l.3), "at diverged");
        // The serial blocked kernel is also the parallel kernel's per-chunk
        // body: same bits at any thread budget.
        prop_assert!(bits_eq(&s.0, &s.1), "threads changed bits");
    }

    #[test]
    fn reductions_bit_identical(
        rows in 1usize..6, mid in 1usize..12, cols in 1usize..12, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::rand_uniform(&mut rng, &[rows * mid, cols], -5.0, 5.0);
        let flat = Tensor::rand_uniform(&mut rng, &[mid, cols], -5.0, 5.0);
        // Ragged segment lengths (3,3,...,remainder) summing to the row count.
        let mut segments = vec![3usize; mid / 3];
        if mid % 3 != 0 {
            segments.push(mid % 3);
        }

        for how in [Reduction::Sum, Reduction::Mean] {
            let (s, l) = on_both_paths(|| (
                reduce_row_groups(&t, mid, how).values,
                segment_reduce_rows(&flat, &segments, how).values,
            ));
            prop_assert!(bits_eq(&s.0, &l.0), "reduce_row_groups diverged");
            prop_assert!(bits_eq(&s.1, &l.1), "segment_reduce_rows diverged");
        }
    }

    #[test]
    fn row_kernels_bit_identical(
        rows in 1usize..10, cols in 1usize..20, k in 1usize..5, seed in 0u64..1000
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::rand_uniform(&mut rng, &[rows * k, cols], -4.0, 4.0);
        let idx: Vec<usize> = (0..rows * k).map(|i| i % rows).collect();

        let (s, l) = on_both_paths(|| (
            scatter_add_rows(&t, &idx, rows),
            fold_rows(&t, k),
            row_norms(&t),
        ));
        prop_assert!(bits_eq(&s.0, &l.0), "scatter_add_rows diverged");
        prop_assert!(bits_eq(&s.1, &l.1), "fold_rows diverged");
        prop_assert!(bits_eq(&s.2, &l.2), "row_norms diverged");
    }
}

// ---------------------------------------------------------------------------
// The arg-tracked max/min kernel and the column distance sweep, pinned on
// both lane paths against the loops they replaced, kept here as oracles.
// ---------------------------------------------------------------------------

/// The Max/Min loop the reductions ran before the lane kernel: row 0 seeds
/// each column's winner, and a later row replaces it only where it is
/// strictly better.
fn oracle_arg_extremum(rows: &[f32], c: usize, how: Reduction) -> (Vec<f32>, Vec<usize>) {
    let mut out = rows[..c].to_vec();
    let mut arg = vec![0usize; c];
    for (kk, row) in rows.chunks_exact(c).enumerate().skip(1) {
        for j in 0..c {
            let better = match how {
                Reduction::Max => row[j] > out[j],
                _ => row[j] < out[j],
            };
            if better {
                out[j] = row[j];
                arg[j] = kk;
            }
        }
    }
    (out, arg)
}

/// The sequential fold KNN computed distances with before the column sweep.
fn oracle_dist2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Values for the arg and distance kernels: NaN, ±∞ and ±0.0, a small pool
/// of repeated magnitudes so exact ties are common, and ordinary floats.
fn tie_or_special_f32() -> impl Strategy<Value = f32> {
    (0usize..16, -3i32..4, -10.0f32..10.0).prop_map(|(pick, tie, v)| match pick {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        4 => 0.0,
        5..=9 => tie as f32 * 0.5,
        _ => v,
    })
}

/// Bitwise equality of two slices (NaN payloads included).
fn slice_bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Equality up to NaN payload: identical bits, or NaN on both sides. A
/// distance or a matmul element sums several terms, and which of two
/// different NaN payloads an IEEE add returns is up to the compiler's
/// operand order; no caller reads the payload of a NaN.
fn same_value(a: f32, b: f32) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// [`same_value`] over two whole buffers.
fn same_values(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| same_value(x, y))
}

/// Dimensions the column sweep is pinned at: 1 and 3 (raw points), ragged
/// small ones, and the 16/24 of the searched feature-space graphs.
const SWEEP_DIMS: [usize; 7] = [1, 2, 3, 5, 13, 16, 24];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn arg_extremum_matches_the_old_loop(
        k in 1usize..12,
        c in 1usize..40,
        data in prop::collection::vec(tie_or_special_f32(), 11 * 39),
    ) {
        let rows = &data[..k * c];
        for (how, which) in [(Reduction::Max, simd::Extremum::Max), (Reduction::Min, simd::Extremum::Min)] {
            let (want, want_args) = oracle_arg_extremum(rows, c, how);
            let (s, l) = on_both_paths(|| {
                let mut out = vec![0.0f32; c];
                let mut args = vec![usize::MAX; c];
                simd::arg_extremum_rows(rows, which, &mut out, &mut args);
                (out, args)
            });
            for (path, (out, args)) in [("scalar", s), ("lane", l)] {
                prop_assert!(slice_bits_eq(&out, &want), "{} {} values k={} c={}", how, path, k, c);
                prop_assert_eq!(&args, &want_args);
            }
        }
    }

    #[test]
    fn arg_reductions_match_the_old_loop(
        n in 1usize..5,
        k in 1usize..11,
        c in 1usize..35,
        data in prop::collection::vec(tie_or_special_f32(), 4 * 10 * 34),
    ) {
        let buf = data[..n * k * c].to_vec();
        let flat = Tensor::from_vec(buf.clone(), &[n * k, c]);
        // Ragged segments over the same rows: 3, 3, ..., remainder.
        let rows = n * k;
        let mut segments = vec![3usize; rows / 3];
        if rows % 3 != 0 {
            segments.push(rows % 3);
        }
        for how in [Reduction::Max, Reduction::Min] {
            let mut want = (Vec::new(), Vec::new());
            for node in buf.chunks_exact(k * c) {
                let (v, a) = oracle_arg_extremum(node, c, how);
                want.0.extend(v);
                want.1.extend(a);
            }
            let mut want_seg = (Vec::new(), Vec::new());
            let mut row0 = 0;
            for &len in &segments {
                let (v, a) = oracle_arg_extremum(&buf[row0 * c..(row0 + len) * c], c, how);
                want_seg.0.extend(v);
                want_seg.1.extend(a);
                row0 += len;
            }
            let (s, l) = on_both_paths(|| (
                reduce_row_groups(&flat, k, how),
                segment_reduce_rows(&flat, &segments, how),
            ));
            for (path, (groups, seg)) in [("scalar", s), ("lane", l)] {
                prop_assert!(slice_bits_eq(groups.values.data(), &want.0), "{} {} reduce_row_groups", how, path);
                prop_assert_eq!(&groups.args, &want.1);
                prop_assert!(slice_bits_eq(seg.values.data(), &want_seg.0), "{} {} segment_reduce_rows", how, path);
                prop_assert_eq!(&seg.args, &want_seg.1);
            }
        }
    }

    #[test]
    fn column_distances_match_the_old_fold(
        pick in 0usize..7,
        n in 1usize..40,
        data in prop::collection::vec(tie_or_special_f32(), 40 * 24 + 24),
    ) {
        let dim = SWEEP_DIMS[pick];
        let q = &data[..dim];
        let pts = Tensor::from_vec(data[dim..dim + n * dim].to_vec(), &[n, dim]);
        let cols = pts.transpose2();
        let want: Vec<f32> = pts.data().chunks_exact(dim).map(|p| oracle_dist2(q, p)).collect();
        let (s, l) = on_both_paths(|| {
            let mut out = vec![0.0f32; n];
            simd::squared_distances_cols(q, cols.data(), &mut out);
            out
        });
        for (path, out) in [("scalar", s), ("lane", l)] {
            for j in 0..n {
                prop_assert!(
                    same_value(out[j], want[j]),
                    "{} dim={} n={} point {}: {} vs {}", path, dim, n, j, out[j], want[j]
                );
            }
        }
    }
}
