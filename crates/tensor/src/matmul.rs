//! Matrix-multiplication kernels: naive, register-tiled and multi-threaded.
//!
//! All variants compute `C = A · B` (or a transposed flavour) and are
//! exact-equivalent; the tiled/threaded versions exist purely for
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
//!    when the output has at least [`PARALLEL_MIN_ROWS`] rows **and** the
//!    total multiply-add count is at least [`PARALLEL_MIN_WORK`];
//!    otherwise run single-threaded. Scoped threads cost ~100 µs to
//!    spawn+join, so row count alone is the wrong gate for skinny shapes.
//!    [`crate::threads::fan_out`] cuts the rows of `C` into one contiguous
//!    run per thread.
//! 2. **Register tiles**: each thread (or the single-threaded fall-through)
//!    runs a tiled body over its rows. [`matmul_blocked`] (so
//!    [`matmul_parallel`]'s row chunks too) and [`matmul_at`] share one
//!    body: a 4×8 tile of `C` stays in accumulators for the whole `p` loop,
//!    each element adding `a·b` for `p` ascending from `0.0`, a multiply
//!    then an add — the per-element order of [`matmul_naive`]. Each band of
//!    four output rows first packs its `A` values `p`-major, which is all
//!    that differs between `A` and `Aᵀ`. [`matmul_bt`] runs one row of `A`
//!    against four rows of `B`, each output keeping the 8 lane sums,
//!    tail and combining tree of [`crate::simd::dot`]. There is no cache
//!    blocking: at every workload shape `k, n ≤ 24`, and at 256³ and
//!    192×100×232 the tiles alone run well ahead of the 64-edge panel
//!    loops they replaced.
//! 3. **Compile**: each tiled body is one source compiled twice, as plain
//!    code and under `#[target_feature(enable = "avx2")]`, and the lane
//!    path picks one once per call ([`crate::simd::active`]). The AVX2
//!    compile holds a tile row's 8 sums in one register. Both compiles run
//!    the same IEEE operations per element in the same order: only `avx2`
//!    is enabled, not `fma`, and Rust never contracts a multiply and an add
//!    on its own. So they return the same bits, and the choice is a pure
//!    speed choice.
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

use crate::threads::{fan_out, kernel_threads};
use crate::{simd, Tensor};

/// Fewest output rows (`m`, across all threads) for the threaded kernels
/// to spawn threads; below it they run single-threaded.
pub const PARALLEL_MIN_ROWS: usize = 128;

/// Minimum total work (`m·k·n` multiply-adds) for the threaded kernels to
/// spawn threads. Scoped threads cost ~100 µs to spawn+join; a skinny
/// matmul over this many rows but few columns finishes faster than the
/// spawn, so row count alone is the wrong gate.
pub const PARALLEL_MIN_WORK: usize = 1 << 20;

/// The threads a matmul with `rows` output rows and `work` multiply-adds
/// runs on: the whole budget when the work-size gates pass (step 1 of the
/// module's decision tree), otherwise one.
#[inline]
fn gated(threads: usize, rows: usize, work: usize) -> usize {
    if rows >= PARALLEL_MIN_ROWS && work >= PARALLEL_MIN_WORK {
        threads
    } else {
        1
    }
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
/// independent reference the tiled and threaded kernels are asserted
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

/// Single-threaded register-tiled matmul; bit-identical to
/// [`matmul_naive`] (each element of a tile adds its products for `p`
/// ascending, as the naive loop does).
///
/// # Panics
///
/// Panics if either operand is not 2-D or the inner dimensions differ.
pub fn matmul_blocked(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k, n) = check_dims(a, b);
    let mut c = vec![0.0f32; m * n];
    tiled_dispatch(a.data(), Lhs::Rows, b.data(), &mut c, k, n);
    Tensor::from_vec(c, &[m, n])
}

/// Rows of `C` one tile keeps in accumulators.
const TILE_ROWS: usize = 4;
/// Columns of `C` one tile keeps in accumulators: one 8-lane register per
/// tile row when compiled for AVX2.
const TILE_COLS: usize = 8;

/// How [`tiled`] reads `A`'s element `(r, p)` for output row `r`.
#[derive(Clone, Copy)]
enum Lhs {
    /// Row-major `[rows, k]`, at `r·k + p` ([`matmul_blocked`]).
    Rows,
    /// The transpose of a row-major `[k, ld]`, at `p·ld + r` ([`matmul_at`]).
    Cols(usize),
}

/// The one matmul body of [`matmul_blocked`], [`matmul_parallel`] and
/// [`matmul_at`]: `c = A·B` over the rows of `c` (`b: [k, n]`). It runs
/// [`tiled`] under an AVX2 compile when the lane path is AVX2 (chosen once
/// per call) and as plain code otherwise: one source, so both compiles
/// return the same bits.
fn tiled_dispatch(ad: &[f32], lhs: Lhs, bd: &[f32], c: &mut [f32], k: usize, n: usize) {
    simd::lane_dispatch!(
        n,
        tiled_avx2(ad, lhs, bd, c, k, n),
        tiled(ad, lhs, bd, c, k, n)
    )
}

/// [`tiled`] compiled for AVX2: each tile row's 8 accumulators sit in one
/// register.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn tiled_avx2(ad: &[f32], lhs: Lhs, bd: &[f32], c: &mut [f32], k: usize, n: usize) {
    tiled(ad, lhs, bd, c, k, n);
}

/// `c = A·B` a [`TILE_ROWS`]×[`TILE_COLS`] tile of `C` at a time (the
/// ragged edges in smaller tiles). Each band of tile rows first packs its
/// `A` values `p`-major, so both layouts of `A` feed one loop. A tile stays
/// in accumulators for the whole `p` loop; each element starts at `0.0`
/// and adds `a·b` for `p` ascending, a multiply then an add with no FMA:
/// the order of [`matmul_naive`], so every element keeps its bits.
///
/// Always inlined, so [`tiled_avx2`] compiles its own copy for AVX2.
#[inline(always)]
fn tiled(ad: &[f32], lhs: Lhs, bd: &[f32], c: &mut [f32], k: usize, n: usize) {
    let rows = c.len() / n; // dims are positive: Shape forbids zero dims
    let mut panel = vec![0.0f32; k * TILE_ROWS];
    for r0 in (0..rows).step_by(TILE_ROWS) {
        let tr = TILE_ROWS.min(rows - r0);
        match lhs {
            Lhs::Rows => {
                for t in 0..tr {
                    let arow = &ad[(r0 + t) * k..][..k];
                    for (ap, &a) in panel.chunks_exact_mut(TILE_ROWS).zip(arow) {
                        ap[t] = a;
                    }
                }
            }
            Lhs::Cols(ld) => {
                for (p, ap) in panel.chunks_exact_mut(TILE_ROWS).enumerate() {
                    ap[..tr].copy_from_slice(&ad[p * ld + r0..][..tr]);
                }
            }
        }
        let band = &mut c[r0 * n..(r0 + tr) * n];
        for j0 in (0..n).step_by(TILE_COLS) {
            let tc = TILE_COLS.min(n - j0);
            // Full tiles get constant bounds, so their loops unroll.
            if tr == TILE_ROWS && tc == TILE_COLS {
                tile(&panel, bd, band, n, j0, TILE_ROWS, TILE_COLS);
            } else {
                tile(&panel, bd, band, n, j0, tr, tc);
            }
        }
    }
}

/// One `tr × tc` tile of [`tiled`]: columns `j0..j0 + tc` of the `tr` rows
/// in `band`, from the packed `A` values in `panel`.
#[inline(always)]
fn tile(panel: &[f32], bd: &[f32], band: &mut [f32], n: usize, j0: usize, tr: usize, tc: usize) {
    let mut acc = [[0.0f32; TILE_COLS]; TILE_ROWS];
    for (ap, brow) in panel.chunks_exact(TILE_ROWS).zip(bd.chunks_exact(n)) {
        let b = &brow[j0..j0 + tc];
        for (row, &a) in acc[..tr].iter_mut().zip(ap) {
            for (s, &bv) in row[..tc].iter_mut().zip(b) {
                *s += a * bv;
            }
        }
    }
    for (crow, row) in band.chunks_exact_mut(n).zip(&acc[..tr]) {
        crow[j0..j0 + tc].copy_from_slice(&row[..tc]);
    }
}

/// Multi-threaded tiled matmul. Splits the rows of `C` across `threads`
/// threads ([`fan_out`]); runs single-threaded below the
/// work-size gates (see the module docs).
///
/// # Panics
///
/// Panics if either operand is not 2-D, the inner dimensions differ, or
/// `threads == 0`.
pub fn matmul_parallel(a: &Tensor, b: &Tensor, threads: usize) -> Tensor {
    assert!(threads > 0, "threads must be positive");
    let (m, k, n) = check_dims(a, b);
    let mut c = vec![0.0f32; m * n];
    let (ad, bd) = (a.data(), b.data());
    fan_out(&mut c, n, gated(threads, m, m * k * n), |i0, rows| {
        tiled_dispatch(&ad[i0 * k..], Lhs::Rows, bd, rows, k, n);
    });
    Tensor::from_vec(c, &[m, n])
}

/// Computes `A · Bᵀ` without materialising the transpose. Useful for
/// gradient kernels (`dX = dY · Wᵀ`) — it sits on the autograd hot path, so
/// it gets the tiled + threaded treatment: one row of `A` against four
/// rows of `B` at a time (both operands stream contiguously along `k`),
/// and output rows split across the caller's kernel budget behind the
/// standard work-size gates.
///
/// Each element is the value of one `simd::dot`, i.e. its fixed
/// multi-accumulator schedule on every path — *not* the sequential fold
/// earlier revisions used. Threading never reorders it, so results are
/// bit-identical at any budget.
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
    let threads = gated(kernel_threads(), m, m * k * n);
    fan_out(&mut c, n, threads, |i0, rows| {
        matmul_bt_into(&ad[i0 * k..], bd, rows, k, n);
    });
    Tensor::from_vec(c, &[m, n])
}

/// `c[i,j] = dot(a[i], b[j])` over `c`'s rows, under the AVX2 compile when
/// the lane path is AVX2 (chosen once per call).
fn matmul_bt_into(ad: &[f32], bd: &[f32], c: &mut [f32], k: usize, n: usize) {
    simd::lane_dispatch!(k, bt_tiled_avx2(ad, bd, c, k, n), bt_tiled(ad, bd, c, k, n))
}

/// [`bt_tiled`] compiled for AVX2: each output's 8 lane sums sit in one
/// register.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn bt_tiled_avx2(ad: &[f32], bd: &[f32], c: &mut [f32], k: usize, n: usize) {
    bt_tiled(ad, bd, c, k, n);
}

/// Outputs of one [`bt_tiled`] tile: one row of `A` against this many rows
/// of `B`.
const BT_TILE: usize = 4;

/// `c[i,j] = dot(a[i], b[j])`, one row of `A` against [`BT_TILE`] rows of
/// `B` at a time: each output keeps [`crate::simd::dot`]'s schedule — 8
/// lane sums over the full chunks in order, the tail into the leading
/// lanes, then its combining tree — so it keeps `dot`'s bits, and the tile
/// only shares each chunk of `A` among its outputs. Always inlined, so
/// [`bt_tiled_avx2`] compiles its own copy for AVX2.
#[inline(always)]
fn bt_tiled(ad: &[f32], bd: &[f32], c: &mut [f32], k: usize, n: usize) {
    let full = k / simd::LANES * simd::LANES;
    for (arow, crow) in ad.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
        let (head, tail) = arow.split_at(full);
        let mut brows = bd.chunks_exact(BT_TILE * k);
        let mut outs = crow.chunks_exact_mut(BT_TILE);
        for (bs, out) in (&mut brows).zip(&mut outs) {
            let mut lanes = [[0.0f32; simd::LANES]; BT_TILE];
            for (ch, a) in head.chunks_exact(simd::LANES).enumerate() {
                for (l, b) in lanes.iter_mut().zip(bs.chunks_exact(k)) {
                    let b = &b[ch * simd::LANES..][..simd::LANES];
                    for ((s, &x), &y) in l.iter_mut().zip(a).zip(b) {
                        *s += x * y;
                    }
                }
            }
            for ((l, b), o) in lanes.iter_mut().zip(bs.chunks_exact(k)).zip(out) {
                for ((s, &x), &y) in l.iter_mut().zip(tail).zip(&b[full..]) {
                    *s += x * y;
                }
                *o = simd::hsum_tree(l);
            }
        }
        for (o, b) in outs
            .into_remainder()
            .iter_mut()
            .zip(brows.remainder().chunks_exact(k))
        {
            *o = simd::dot(arow, b);
        }
    }
}

/// Computes `Aᵀ · B` without materialising the transpose. Useful for weight
/// gradients (`dW = Xᵀ · dY`) — like [`matmul_bt`] it is an autograd hot
/// path and gets the tiled + threaded treatment: it runs the tiled body of
/// [`matmul_blocked`] with `A` read down its columns (so each element adds
/// its products for `p` ascending, bit-identical to
/// `matmul_naive(&a.transpose2(), b)`), and output rows split across the
/// caller's kernel budget behind the standard work-size gates.
/// Bit-identical at any budget.
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
    let threads = gated(kernel_threads(), m, m * k * n);
    fan_out(&mut c, n, threads, |i0, rows| {
        tiled_dispatch(&ad[i0..], Lhs::Cols(m), bd, rows, k, n);
    });
    Tensor::from_vec(c, &[m, n])
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
        matmul_parallel(self, other, kernel_threads())
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
            // Tiled (and therefore parallel) is bit-identical to naive, not
            // merely close: each tile element adds its products for p
            // ascending, as the naive loop does.
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
        // matmul_at runs the same tiled body with A read down its columns:
        // the naive loop's bits, not merely close.
        assert_eq!(
            matmul_at(&a.transpose2(), &b).data(),
            matmul_naive(&a, &b).data()
        );
    }

    #[test]
    fn tiles_match_naive_at_the_combine_shapes() {
        // The supernet's combine shapes (full 4x8 tiles only) and two that
        // leave ragged tile edges, on both compiles of the tiled bodies:
        // matmul and matmul_at give the naive loop's bits, matmul_bt gives
        // simd::dot's bits per element.
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, k, n) in &[(1024, 24, 24), (384, 16, 16), (37, 13, 21), (6, 9, 3)] {
            let a = rand_mat(&mut rng, m, k);
            let b = rand_mat(&mut rng, k, n);
            let bt = b.transpose2();
            let want = matmul_naive(&a, &b);
            let dots: Vec<f32> = a
                .data()
                .chunks_exact(k)
                .flat_map(|row| {
                    bt.data()
                        .chunks_exact(k)
                        .map(move |col| simd::dot(row, col))
                })
                .collect();
            for path in [LanePath::Scalar, LanePath::Avx2] {
                let (ab, at_b, a_bt) = crate::simd::with_path(path, || {
                    (
                        matmul_blocked(&a, &b),
                        matmul_at(&a.transpose2(), &b),
                        matmul_bt(&a, &bt),
                    )
                });
                assert_eq!(ab.data(), want.data(), "matmul {m}x{k}x{n} {path}");
                assert_eq!(at_b.data(), want.data(), "matmul_at {m}x{k}x{n} {path}");
                assert_eq!(a_bt.data(), &dots[..], "matmul_bt {m}x{k}x{n} {path}");
            }
        }
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
