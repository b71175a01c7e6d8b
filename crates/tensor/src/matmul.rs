//! Matrix-multiplication kernels: naive, cache-blocked and multi-threaded.
//!
//! All variants compute `C = A · B` (or a transposed flavour) and are
//! exact-equivalent; the blocked/threaded versions exist purely for
//! throughput. The kernels bench (`hgnas-bench`, `BENCH_kernels.json`)
//! tracks their wall clock per shape, including the supernet's combine
//! shapes; the elementwise and activation kernels that surround these
//! matmuls on the tape live in [`crate::simd`] and are tracked by
//! `BENCH_ops.json`.
//!
//! # Dispatch decision tree
//!
//! Every entry point walks the same gates, so tiny matmuls never pay
//! thread-spawn overhead:
//!
//! 1. **Threads** ([`Tensor::matmul`], [`matmul_bt`], [`matmul_at`]): use
//!    the caller's kernel budget ([`crate::threads::kernel_threads`]) only
//!    when `budget > 1` **and** the output has at least
//!    [`PARALLEL_MIN_ROWS`] rows **and** the total multiply-add count is at
//!    least [`PARALLEL_MIN_WORK`]; otherwise run single-threaded. Scoped
//!    threads cost ~100 µs to spawn+join, so row count alone is the wrong
//!    gate for skinny shapes.
//! 2. **Blocking**: each thread (or the single-threaded fall-through) runs
//!    the cache-blocked kernel ([`BLOCK`]-edge tiles).
//! 3. **Inner loop**: the innermost contiguous loop is a plain scalar
//!    loop — [`crate::simd::axpy`] for [`matmul_blocked`] and
//!    [`matmul_at`], [`crate::simd::dot`] for [`matmul_bt`] — with no lane
//!    dispatch: at the supernet's combine shapes (16 or 24 output
//!    columns) an AVX2 leg ran at 0.66–0.85× of these loops, which the
//!    compiler vectorises.
//!
//! Every gate is value-neutral: threading partitions output rows without
//! reordering any row's accumulation. The only numeric decision is baked
//! into the kernel itself: [`matmul_bt`] contracts with the fixed
//! multi-accumulator schedule of [`crate::simd::dot`].
//!
//! # Zero-skip removal (IEEE semantics)
//!
//! Earlier revisions skipped `A` elements equal to `0.0` in the axpy
//! kernels. The branch blocked vectorisation and made latency data-dependent
//! (a denial-of-determinism for perf baselines), so it is gone; as a
//! consequence `0·x` now *participates*: a zero row of `A` against a `NaN`/
//! `∞` in `B` produces `NaN` (IEEE), where the skip used to hide it. The
//! `zero_times_special_values_propagate` test pins the new contract.

use crate::simd;
use crate::Tensor;

/// Cache-block edge length used by [`matmul_blocked`]. 64 f32 = 256 B per
/// panel row, sized so three panels fit comfortably in L1.
pub const BLOCK: usize = 64;

/// Rows-per-thread threshold below which the threaded kernels fall back to
/// the single-threaded blocked kernel.
pub const PARALLEL_MIN_ROWS: usize = 128;

/// Minimum total work (`m·k·n` multiply-adds) for the threaded kernels to
/// spawn threads. Scoped threads cost ~100 µs to spawn+join; a skinny
/// matmul over this many rows but few columns finishes faster than the
/// spawn, so row count alone is the wrong gate.
pub const PARALLEL_MIN_WORK: usize = 1 << 20;

/// Whether the work-size gates allow threading `rows × work` across the
/// given budget (step 1 of the module's decision tree).
#[inline]
fn threads_pay_off(threads: usize, rows: usize, work: usize) -> bool {
    threads > 1 && rows >= PARALLEL_MIN_ROWS && work >= PARALLEL_MIN_WORK
}

fn check_dims(a: &Tensor, b: &Tensor) -> (usize, usize, usize) {
    assert_eq!(
        a.shape().rank(),
        2,
        "matmul lhs must be 2-D, got {}",
        a.shape()
    );
    assert_eq!(
        b.shape().rank(),
        2,
        "matmul rhs must be 2-D, got {}",
        b.shape()
    );
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(
        k,
        k2,
        "matmul inner dims differ: {} vs {}",
        a.shape(),
        b.shape()
    );
    (m, k, n)
}

/// Reference triple-loop matmul (ikj order, so the inner loop streams both
/// `B` and `C`). Kept deliberately scalar and branch-free: it is the
/// independent reference the blocked and threaded kernels are asserted
/// bit-identical against (per-element accumulation order over `p` is the
/// same).
///
/// # Panics
///
/// Panics if either operand is not 2-D or the inner dimensions differ.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = check_dims(a, b);
    let (ad, bd) = (a.data(), b.data());
    let mut c = vec![0.0f32; m * n];
    for i in 0..m {
        for p in 0..k {
            let av = ad[i * k + p];
            let brow = &bd[p * n..(p + 1) * n];
            let crow = &mut c[i * n..(i + 1) * n];
            for (cv, &bv) in crow.iter_mut().zip(brow) {
                *cv += av * bv;
            }
        }
    }
    Tensor::from_vec(c, &[m, n])
}

/// Cache-blocked matmul; bit-identical to [`matmul_naive`] (blocking only
/// regroups the `p` loop in increasing order, and the axpy inner loop
/// keeps the per-element operation order).
///
/// # Panics
///
/// Panics if either operand is not 2-D or the inner dimensions differ.
pub fn matmul_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = check_dims(a, b);
    let mut c = vec![0.0f32; m * n];
    matmul_blocked_into(a.data(), b.data(), &mut c, m, k, n);
    Tensor::from_vec(c, &[m, n])
}

fn matmul_blocked_into(ad: &[f32], bd: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    for i0 in (0..m).step_by(BLOCK) {
        let i1 = (i0 + BLOCK).min(m);
        for p0 in (0..k).step_by(BLOCK) {
            let p1 = (p0 + BLOCK).min(k);
            for j0 in (0..n).step_by(BLOCK) {
                let j1 = (j0 + BLOCK).min(n);
                for i in i0..i1 {
                    let arow = &ad[i * k..(i + 1) * k];
                    let crow = &mut c[i * n + j0..i * n + j1];
                    for p in p0..p1 {
                        simd::axpy(crow, arow[p], &bd[p * n + j0..p * n + j1]);
                    }
                }
            }
        }
    }
}

/// Multi-threaded blocked matmul. Splits rows of `A` across `threads` OS
/// threads via crossbeam's scoped threads; falls back to the single-threaded
/// kernel below the work-size gates (see the module docs).
///
/// # Panics
///
/// Panics if either operand is not 2-D, the inner dimensions differ, or
/// `threads == 0`.
pub fn matmul_parallel(a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
    assert!(threads > 0, "threads must be positive");
    let (m, k, n) = check_dims(a, b);
    if !threads_pay_off(threads, m, m * k * n) {
        return matmul_blocked(a, b);
    }
    let mut c = vec![0.0f32; m * n];
    let rows_per = m.div_ceil(threads);
    let (ad, bd) = (a.data(), b.data());
    crossbeam::scope(|s| {
        for (t, chunk) in c.chunks_mut(rows_per * n).enumerate() {
            let i0 = t * rows_per;
            let rows = chunk.len() / n;
            let a_slice = &ad[i0 * k..(i0 + rows) * k];
            s.spawn(move |_| {
                matmul_blocked_into(a_slice, bd, chunk, rows, k, n);
            });
        }
    })
    .expect("matmul worker thread panicked");
    Tensor::from_vec(c, &[m, n])
}

/// Computes `A · Bᵀ` without materialising the transpose. Useful for
/// gradient kernels (`dX = dY · Wᵀ`) — it sits on the autograd hot path, so
/// it gets the full blocked + threaded treatment: tiles of `C` are
/// filled with [`crate::simd::dot`] contractions (both operands stream
/// contiguously along `k`), and output rows split across the caller's
/// kernel budget behind the standard work-size gates.
///
/// Each element is one `simd::dot`, i.e. the fixed multi-accumulator
/// schedule on every path — *not* the sequential fold earlier revisions
/// used. Threading never reorders it, so results are bit-identical at any
/// budget.
///
/// # Panics
///
/// Panics if either operand is not 2-D or the contraction dims differ
/// (`a: [m,k]`, `b: [n,k]`).
pub fn matmul_bt(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_bt lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul_bt rhs must be 2-D");
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (n, k2) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_bt contraction dims differ");
    let (ad, bd) = (a.data(), b.data());
    let mut c = vec![0.0f32; m * n];
    let threads = crate::threads::kernel_threads();
    if !threads_pay_off(threads, m, m * k * n) {
        matmul_bt_into(ad, bd, &mut c, k, n);
    } else {
        let rows_per = m.div_ceil(threads);
        crossbeam::scope(|s| {
            for (t, chunk) in c.chunks_mut(rows_per * n).enumerate() {
                let i0 = t * rows_per;
                let rows = chunk.len() / n;
                let a_slice = &ad[i0 * k..(i0 + rows) * k];
                s.spawn(move |_| {
                    matmul_bt_into(a_slice, bd, chunk, k, n);
                });
            }
        })
        .expect("matmul_bt worker thread panicked");
    }
    Tensor::from_vec(c, &[m, n])
}

/// `c[i,j] = dot(a[i], b[j])` over `c`'s rows, tiled so a [`BLOCK`]-wide
/// panel of `B` rows stays cache-hot while `A` streams past it.
fn matmul_bt_into(ad: &[f32], bd: &[f32], c: &mut [f32], k: usize, n: usize) {
    let m = ad.len() / k; // dims are positive: Shape forbids zero dims

    for j0 in (0..n).step_by(BLOCK) {
        let j1 = (j0 + BLOCK).min(n);
        for i in 0..m {
            let arow = &ad[i * k..(i + 1) * k];
            for j in j0..j1 {
                c[i * n + j] = simd::dot(arow, &bd[j * k..(j + 1) * k]);
            }
        }
    }
}

/// Computes `Aᵀ · B` without materialising the transpose. Useful for weight
/// gradients (`dW = Xᵀ · dY`) — like [`matmul_bt`] it is an autograd hot
/// path and gets the blocked + threaded treatment: the inner loop is the
/// same axpy as [`matmul_blocked`] (elementwise over `j`, so per-element
/// accumulation order over `p` is preserved exactly), output rows tile by
/// [`BLOCK`] for cache reuse and split across the caller's kernel budget
/// behind the standard work-size gates. Bit-identical at any budget.
///
/// # Panics
///
/// Panics if either operand is not 2-D or the row counts differ
/// (`a: [k,m]`, `b: [k,n]`).
pub fn matmul_at(a: &Tensor, b: &Tensor) -> Tensor {
    assert_eq!(a.shape().rank(), 2, "matmul_at lhs must be 2-D");
    assert_eq!(b.shape().rank(), 2, "matmul_at rhs must be 2-D");
    let (k, m) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    assert_eq!(k, k2, "matmul_at row counts differ");
    let (ad, bd) = (a.data(), b.data());
    let mut c = vec![0.0f32; m * n];
    let threads = crate::threads::kernel_threads();
    if !threads_pay_off(threads, m, m * k * n) {
        matmul_at_into(ad, bd, &mut c, k, m, n, 0);
    } else {
        let rows_per = m.div_ceil(threads);
        crossbeam::scope(|s| {
            for (t, chunk) in c.chunks_mut(rows_per * n).enumerate() {
                let i0 = t * rows_per;
                s.spawn(move |_| {
                    matmul_at_into(ad, bd, chunk, k, m, n, i0);
                });
            }
        })
        .expect("matmul_at worker thread panicked");
    }
    Tensor::from_vec(c, &[m, n])
}

/// Accumulates output rows `i0 .. i0 + c.len()/n` of `Aᵀ·B` into `c`
/// (`a: [k,m]` column-major for the output, `b: [k,n]`), tiling the rows by
/// [`BLOCK`] so the active slab of `c` stays cache-resident while `B`
/// streams past it once per tile.
fn matmul_at_into(ad: &[f32], bd: &[f32], c: &mut [f32], k: usize, m: usize, n: usize, i0: usize) {
    let rows = c.len() / n; // dims are positive: Shape forbids zero dims
    for r0 in (0..rows).step_by(BLOCK) {
        let r1 = (r0 + BLOCK).min(rows);
        for p in 0..k {
            let arow = &ad[p * m..(p + 1) * m];
            let brow = &bd[p * n..(p + 1) * n];
            for r in r0..r1 {
                simd::axpy(&mut c[r * n..(r + 1) * n], arow[i0 + r], brow);
            }
        }
    }
}

impl Tensor {
    /// Matrix product `self · other`, dispatching on the caller's kernel
    /// thread budget (see [`crate::threads`]) and the work-size gates — the
    /// full decision tree is in the [module docs](self). All paths produce
    /// bit-identical results, so the budget never affects values.
    ///
    /// # Panics
    ///
    /// Panics if either operand is not 2-D or the inner dimensions differ.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        let budget = crate::threads::kernel_threads();
        if budget > 1 {
            matmul_parallel(self, other, budget)
        } else {
            matmul_blocked(self, other)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::LanePath;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rand_mat(rng: &mut StdRng, r: usize, c: usize) -> Tensor {
        Tensor::rand_uniform(rng, &[r, c], -1.0, 1.0)
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn kernels_agree() {
        let mut rng = StdRng::seed_from_u64(3);
        for &(m, k, n) in &[(1, 1, 1), (7, 13, 5), (65, 64, 66), (130, 20, 33)] {
            let a = rand_mat(&mut rng, m, k);
            let b = rand_mat(&mut rng, k, n);
            let naive = matmul_naive(&a, &b);
            // Blocked (and therefore parallel) is bit-identical to naive,
            // not merely close: blocking regroups the p loop in increasing
            // order and the axpy preserves per-element op order.
            assert_eq!(matmul_blocked(&a, &b).data(), naive.data());
            assert_eq!(matmul_parallel(&a, &b, 4).data(), naive.data());
        }
    }

    #[test]
    fn transposed_variants_agree() {
        let mut rng = StdRng::seed_from_u64(4);
        let a = rand_mat(&mut rng, 9, 6);
        let b = rand_mat(&mut rng, 6, 11);
        let c = a.matmul(&b);
        assert!(matmul_bt(&a, &b.transpose2()).allclose(&c, 1e-4));
        assert!(matmul_at(&a.transpose2(), &b).allclose(&c, 1e-4));
    }

    #[test]
    #[should_panic(expected = "inner dims differ")]
    fn dim_mismatch_panics() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        a.matmul(&b);
    }

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = rand_mat(&mut rng, 12, 12);
        assert!(a.matmul(&Tensor::eye(12)).allclose(&a, 1e-6));
        assert!(Tensor::eye(12).matmul(&a).allclose(&a, 1e-6));
    }

    #[test]
    fn parallel_is_bit_identical_around_fallback_threshold() {
        // matmul_parallel falls back to the blocked kernel below
        // PARALLEL_MIN_ROWS rows or PARALLEL_MIN_WORK multiply-adds; on
        // either side of both gates (and exactly at them) results must
        // match the blocked kernel bit-for-bit, since row partitioning
        // never changes any row's accumulation order. The lane path must
        // not change values either, so the whole matrix re-runs per path
        // (threads × lanes).
        let mut rng = StdRng::seed_from_u64(6);
        // (k, n) = (17, 9): above the row gate but far below the work
        // gate -> fallback. (96, 96): m=128 crosses both gates -> the
        // threaded path actually runs.
        for (k, n) in [(17usize, 9usize), (96, 96)] {
            for m in [
                PARALLEL_MIN_ROWS - 1,
                PARALLEL_MIN_ROWS,
                PARALLEL_MIN_ROWS + 1,
            ] {
                let a = rand_mat(&mut rng, m, k);
                let b = rand_mat(&mut rng, k, n);
                let blocked = crate::simd::with_path(LanePath::Scalar, || matmul_blocked(&a, &b));
                for path in [LanePath::Scalar, LanePath::Avx2] {
                    for threads in [1, 2, 3, 8] {
                        let par = crate::simd::with_path(path, || matmul_parallel(&a, &b, threads));
                        assert_eq!(
                            par.data(),
                            blocked.data(),
                            "m={m} k={k} n={n} threads={threads} path={path} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_variants_bit_identical_across_threads_and_lanes() {
        // matmul_bt / matmul_at consult the kernel budget themselves; every
        // (budget × lane path) cell must match the serial scalar run
        // bit-for-bit. m crosses the row gate so the threaded path runs.
        let mut rng = StdRng::seed_from_u64(10);
        let m = PARALLEL_MIN_ROWS + 5;
        let (k, n) = (96, 96);
        let a_bt = rand_mat(&mut rng, m, k);
        let b_bt = rand_mat(&mut rng, n, k);
        let a_at = rand_mat(&mut rng, k, m);
        let b_at = rand_mat(&mut rng, k, n);
        let bt_ref = crate::simd::with_path(LanePath::Scalar, || matmul_bt(&a_bt, &b_bt));
        let at_ref = crate::simd::with_path(LanePath::Scalar, || matmul_at(&a_at, &b_at));
        for path in [LanePath::Scalar, LanePath::Avx2] {
            for threads in [1usize, 2, 3, 8] {
                let (bt, at) = crate::simd::with_path(path, || {
                    crate::threads::with_kernel_threads(threads, || {
                        (matmul_bt(&a_bt, &b_bt), matmul_at(&a_at, &b_at))
                    })
                });
                assert_eq!(bt.data(), bt_ref.data(), "bt threads={threads} path={path}");
                assert_eq!(at.data(), at_ref.data(), "at threads={threads} path={path}");
            }
        }
    }

    #[test]
    fn work_gate_sits_at_parallel_min_work() {
        // 128 rows passes the row gate either way; k·n decides the work
        // gate. Both sides must agree with the blocked kernel exactly.
        let mut rng = StdRng::seed_from_u64(9);
        let m = PARALLEL_MIN_ROWS;
        let kn_under = PARALLEL_MIN_WORK / m - 1;
        let (k, n) = (64, kn_under / 64); // m*k*n just under the gate
        let a = rand_mat(&mut rng, m, k);
        let b = rand_mat(&mut rng, k, n);
        assert_eq!(
            matmul_parallel(&a, &b, 4).data(),
            matmul_blocked(&a, &b).data()
        );
        let n_over = PARALLEL_MIN_WORK / (m * k) + 1; // just over
        let b = rand_mat(&mut rng, k, n_over);
        assert_eq!(
            matmul_parallel(&a, &b, 4).data(),
            matmul_blocked(&a, &b).data()
        );
    }

    #[test]
    fn more_threads_than_rows_is_safe() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = rand_mat(&mut rng, PARALLEL_MIN_ROWS, 5);
        let b = rand_mat(&mut rng, 5, 3);
        let par = matmul_parallel(&a, &b, PARALLEL_MIN_ROWS * 2);
        assert_eq!(par.data(), matmul_blocked(&a, &b).data());
    }

    #[test]
    #[should_panic(expected = "threads must be positive")]
    fn zero_threads_panics() {
        let a = Tensor::zeros(&[2, 2]);
        matmul_parallel(&a, &a, 0);
    }

    #[test]
    fn matmul_dispatches_on_kernel_budget() {
        // Tensor::matmul consults the thread-local kernel budget; whatever
        // the budget, values are bit-identical to the blocked kernel.
        let mut rng = StdRng::seed_from_u64(8);
        let a = rand_mat(&mut rng, PARALLEL_MIN_ROWS + 3, 11);
        let b = rand_mat(&mut rng, 11, 7);
        let blocked = matmul_blocked(&a, &b);
        assert_eq!(a.matmul(&b).data(), blocked.data());
        crate::threads::with_kernel_threads(4, || {
            assert_eq!(a.matmul(&b).data(), blocked.data());
        });
    }

    #[test]
    fn zero_times_special_values_propagate() {
        // The zero-skip branches are gone: 0·x participates per IEEE-754.
        // A zero row of A against NaN/∞ in B is NaN, and the sign of a
        // 0·(-x) product no longer survives (-0.0 + 0.0 == +0.0).
        let a = Tensor::from_vec(vec![0.0, 0.0], &[1, 2]);
        let b = Tensor::from_vec(vec![f32::NAN, f32::INFINITY, 1.0, -2.0], &[2, 2]);
        for (name, c) in [
            ("naive", matmul_naive(&a, &b)),
            ("blocked", matmul_blocked(&a, &b)),
            ("at", matmul_at(&a.transpose2(), &b)),
        ] {
            assert!(c.data()[0].is_nan(), "{name}: 0·NaN must propagate NaN");
            assert!(c.data()[1].is_nan(), "{name}: 0·∞ + 0·(-2) must be NaN");
        }
        // All-finite: 0·(-x) yields -0.0, which the accumulation folds to
        // +0.0 (never -0.0) because every sum starts from the +0.0 in C.
        let b = Tensor::from_vec(vec![-1.0, -0.0, -3.0, -4.0], &[2, 2]);
        for c in [
            matmul_naive(&a, &b),
            matmul_blocked(&a, &b),
            matmul_at(&a.transpose2(), &b),
        ] {
            assert_eq!(c.data()[0].to_bits(), 0.0f32.to_bits());
            assert_eq!(c.data()[1].to_bits(), 0.0f32.to_bits());
        }
        // matmul_bt contracts NaN the same way: dot([0,0], [NaN,1]) is NaN.
        let bt = matmul_bt(&a, &Tensor::from_vec(vec![f32::NAN, 1.0], &[1, 2]));
        assert!(bt.data()[0].is_nan());
    }
}
