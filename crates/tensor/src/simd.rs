//! Portable `f32` kernels: plain loops, three of which are also compiled
//! for AVX2 and picked per call, with **bit-identical** results either way.
//!
//! [`adam_step`], [`squared_distances_cols`] and [`arg_extremum_rows`] each
//! have one `#[inline(always)]` body, compiled once as plain code (the
//! scalar path) and once inside a safe `#[target_feature(enable = "avx2")]`
//! wrapper, one of the two picked per call; [`crate::matmul`]'s tiled
//! bodies are built the same way. The sweep and the arg scan are written
//! over [`LANES`]-wide arrays, so the AVX2 compile keeps each block's sums,
//! winners and row indices in registers; Adam is one loop over independent
//! elements. Each wrapper stays because the kernels and ops records show
//! its compile faster than the plain one at the shapes the `solo-small` and
//! `tenants` workloads call it with. Every other kernel here is one plain
//! loop with no dispatch: an AVX2 compile fell below that bar at some shape
//! a workload calls it with (rows of 12 to 24 floats, the latency
//! predictor's 144- and 176-float blocks), where a row is too short to pay
//! for the dispatch and the compiler already vectorises the plain loop.
//!
//! The load-bearing invariant — the one the fleet layer's whole
//! bit-identity matrix rests on — is that **both compiles of a lane kernel
//! produce bit-identical results for every input**. It holds by
//! construction: one source; only `avx2` enabled, not `fma` (and Rust never
//! contracts a multiply and an add on its own); vectorised only across
//! independent elements:
//!
//! - Elementwise kernels ([`adam_step`], [`squared_distances_cols`])
//!   compute each output element with the same sequence of IEEE-754
//!   operations in either compile; vectorising across elements never
//!   reorders an element's own computation, and a vector `*`, `+`, `/` or
//!   `sqrt` rounds each lane as the scalar one does.
//! - The selection kernel ([`arg_extremum_rows`]) computes nothing: it
//!   compares (ordered `>`/`<`, false on NaN) and moves whole values, so
//!   its outputs are bit copies of its inputs in either compile.
//! - The reduction kernel [`dot`] is one plain loop but keeps a *fixed
//!   multi-accumulator schedule*: [`LANES`] parallel partial sums filled
//!   chunk-by-chunk, the remainder folded into the leading accumulators,
//!   then a fixed binary tree (`hsum_tree` order). The schedule is part of
//!   its numeric contract, which [`crate::matmul::matmul_bt`] inherits.
//!
//! Path selection: [`detected`] probes AVX2 once (the `HGNAS_SIMD=scalar`
//! environment variable, or building without the `simd` cargo feature,
//! forces the plain compile — the latter leaves no AVX2 compile and no
//! `unsafe` in the build). [`with_path`] is a process-global test/bench
//! hook for comparing the two compiles in one process; because results are
//! path-independent, a concurrent override can never change what another
//! thread computes, only how fast. The one `unsafe` is the call into an
//! AVX2 compile inside `lane_dispatch!`, behind the runtime probe.
//!
//! Work-size gates: a lane kernel runs its plain compile when the
//! contiguous run is shorter than [`LANES`], so tiny inputs never pay lane
//! dispatch overhead. The gate is value-neutral by the invariant above.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Lane width of the portable `f32` vector: 8 lanes (one AVX2 register).
/// The lane kernels' bodies work in blocks of this width, and [`dot`]'s
/// accumulator schedule mirrors it.
pub const LANES: usize = 8;

/// Which compile the lane kernels run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LanePath {
    /// Each kernel's body compiled under `#[target_feature(enable =
    /// "avx2")]`, so its 8-lane blocks map onto AVX2 registers.
    Avx2,
    /// The same bodies compiled as plain code, computing the same IEEE
    /// operations per element.
    Scalar,
}

impl std::fmt::Display for LanePath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            LanePath::Avx2 => "avx2",
            LanePath::Scalar => "scalar",
        })
    }
}

fn detect() -> LanePath {
    if std::env::var("HGNAS_SIMD").is_ok_and(|v| v == "scalar" || v == "off") {
        return LanePath::Scalar;
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return LanePath::Avx2;
        }
    }
    LanePath::Scalar
}

/// The lane path this host supports (probed once; `HGNAS_SIMD=scalar` or a
/// build without the `simd` feature pins it to [`LanePath::Scalar`]).
pub fn detected() -> LanePath {
    static DETECTED: OnceLock<LanePath> = OnceLock::new();
    *DETECTED.get_or_init(detect)
}

/// 0 = no override, 1 = force scalar, 2 = force lanes (degrades to whatever
/// [`detected`] supports).
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The path kernels dispatch to right now: the [`with_path`] override if one
/// is active, [`detected`] otherwise.
pub fn active() -> LanePath {
    match OVERRIDE.load(Ordering::Relaxed) {
        1 => LanePath::Scalar,
        _ => detected(),
    }
}

/// Runs `f` with the kernel path forced to `path`, restoring the previous
/// override afterwards (also on unwind). Forcing [`LanePath::Avx2`] on a
/// host without AVX2 degrades to scalar.
///
/// The override is **process-global** (so it reaches kernel worker threads
/// spawned inside `f`, e.g. by `matmul_parallel`); it is a test/bench hook,
/// not a tuning knob. Overlapping overrides from concurrent tests can
/// interleave arbitrarily — harmless, because both paths are bit-identical.
pub fn with_path<R>(path: LanePath, f: impl FnOnce() -> R) -> R {
    struct Restore(u8);
    impl Drop for Restore {
        fn drop(&mut self) {
            OVERRIDE.store(self.0, Ordering::Relaxed);
        }
    }
    let code = match path {
        LanePath::Scalar => 1,
        LanePath::Avx2 => 2,
    };
    let prev = OVERRIDE.swap(code, Ordering::Relaxed);
    let _restore = Restore(prev);
    f()
}

/// `lane_dispatch!(len, avx2_call, plain_call)`: the call into a kernel's
/// AVX2 compile when the lane path is AVX2 and `len` fills a lane, the call
/// into its plain compile otherwise.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
macro_rules! lane_dispatch {
    ($len:expr, $avx2:expr, $scalar:expr) => {
        // Gate: below one lane there is nothing to vectorise; skip even the
        // path lookup. Value-neutral either way.
        if $len >= $crate::simd::LANES && $crate::simd::active() == $crate::simd::LanePath::Avx2 {
            // SAFETY: `active()` only returns Avx2 when `detected()` probed
            // AVX2 support at runtime.
            unsafe { $avx2 }
        } else {
            $scalar
        }
    };
}

#[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
macro_rules! lane_dispatch {
    ($len:expr, $avx2:expr, $scalar:expr) => {
        $scalar
    };
}

pub(crate) use lane_dispatch;

/// `acc[i] += x[i]` — the reduction/scatter accumulate loop.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_assign(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "add_assign length mismatch");
    for (c, &v) in acc.iter_mut().zip(x) {
        *c += v;
    }
}

/// `acc[i] -= x[i]` — elementwise subtraction (autograd `sub` forward and
/// residual backward).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sub_assign(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "sub_assign length mismatch");
    for (c, &v) in acc.iter_mut().zip(x) {
        *c -= v;
    }
}

/// `acc[i] *= x[i]` — the Hadamard-product loop (autograd `mul` forward and
/// its product-rule backward).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_assign(acc: &mut [f32], x: &[f32]) {
    assert_eq!(acc.len(), x.len(), "mul_assign length mismatch");
    for (c, &v) in acc.iter_mut().zip(x) {
        *c *= v;
    }
}

/// `buf[i] *= s` — the mean-normalisation loop.
pub fn scale(buf: &mut [f32], s: f32) {
    for v in buf.iter_mut() {
        *v *= s;
    }
}

/// In-place ReLU: `buf[i] = if buf[i] > 0 { buf[i] } else { +0.0 }`, so
/// NaN and `-0.0` become `+0.0`.
pub fn relu(buf: &mut [f32]) {
    for v in buf.iter_mut() {
        *v = if *v > 0.0 { *v } else { 0.0 };
    }
}

/// In-place LeakyReLU: `buf[i] = if buf[i] > 0 { buf[i] } else { slope * buf[i] }`.
///
/// The negative side is one multiply, so NaN payloads, `slope·∞` and
/// `slope·(-0.0)` propagate as IEEE says.
pub fn leaky_relu(buf: &mut [f32], slope: f32) {
    for v in buf.iter_mut() {
        *v = if *v > 0.0 { *v } else { slope * *v };
    }
}

/// ReLU backward: `g[i] *= if x[i] > 0 { 1.0 } else { 0.0 }`, where `x` is
/// the forward *input*. The mask value is multiplied (not selected) so the
/// IEEE edge cases — `0.0 · NaN = NaN`, `0.0 · ∞ = NaN`, sign of zero —
/// behave exactly like the mask-tensor multiply this kernel replaced.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn relu_grad(g: &mut [f32], x: &[f32]) {
    assert_eq!(g.len(), x.len(), "relu_grad length mismatch");
    for (gv, &xv) in g.iter_mut().zip(x) {
        *gv *= if xv > 0.0 { 1.0 } else { 0.0 };
    }
}

/// LeakyReLU backward: `g[i] *= if x[i] > 0 { 1.0 } else { slope }` with `x`
/// the forward input. Same literal-multiply contract as [`relu_grad`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn leaky_relu_grad(g: &mut [f32], x: &[f32], slope: f32) {
    assert_eq!(g.len(), x.len(), "leaky_relu_grad length mismatch");
    for (gv, &xv) in g.iter_mut().zip(x) {
        *gv *= if xv > 0.0 { 1.0 } else { slope };
    }
}

/// Fixed-order horizontal sum of the [`LANES`] partial accumulators:
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))` — the reduction tree of
/// [`dot`], part of the kernel's contract.
#[inline]
pub(crate) fn hsum_tree(l: &[f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Dot product with the fixed multi-accumulator schedule: [`LANES`] partial
/// sums over full chunks (`lanes[l] += a[c*8+l] * b[c*8+l]` in chunk
/// order), the tail folded into `lanes[0..tail]`, then `hsum_tree`.
///
/// This is **not** the same association as a sequential `fold`: the
/// schedule is what an 8-lane register would compute, kept so every
/// result `matmul_bt` ever produced keeps its bits (and it gives ~`LANES`×
/// more ILP than a fold).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot length mismatch");
    let mut lanes = [0.0f32; LANES];
    let full = a.len() / LANES * LANES;
    let mut i = 0;
    while i < full {
        for (l, lane) in lanes.iter_mut().enumerate() {
            *lane += a[i + l] * b[i + l];
        }
        i += LANES;
    }
    for (t, i) in (full..a.len()).enumerate() {
        lanes[t] += a[i] * b[i];
    }
    hsum_tree(&lanes)
}

/// Scalar hyper-parameters of one [`adam_step`] call. Bias correction is
/// pre-inverted by the caller (`inv_bc1 = 1/(1-β₁ᵗ)`) so the kernel scales
/// by a reciprocal exactly like the tensor-level code it replaced did.
#[derive(Debug, Clone, Copy)]
pub struct AdamParams {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay β₁.
    pub beta1: f32,
    /// Second-moment decay β₂.
    pub beta2: f32,
    /// Denominator stabiliser ε.
    pub eps: f32,
    /// `1 / (1 - β₁ᵗ)` — first-moment bias correction, inverted.
    pub inv_bc1: f32,
    /// `1 / (1 - β₂ᵗ)` — second-moment bias correction, inverted.
    pub inv_bc2: f32,
}

/// One fused Adam update over a parameter tensor — the supernet/predictor
/// training inner loop. Per element, in this exact IEEE-754 order (the
/// sequence the pre-lane tensor code performed, so switching to the fused
/// kernel re-baselines nothing):
///
/// ```text
/// m  = β₁·m + (1-β₁)·g
/// v  = β₂·v + ((1-β₂)·g)·g        // left-associated, as Rust parses it
/// m̂  = m · inv_bc1
/// v̂  = v · inv_bc2
/// w -= lr · (m̂ / (√v̂ + ε))
/// ```
///
/// Elementwise over `i` with no FMA in either compile, hence bit-identical
/// between [`LanePath::Avx2`] and [`LanePath::Scalar`].
///
/// # Panics
///
/// Panics if the four slices differ in length.
pub fn adam_step(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], p: AdamParams) {
    assert_eq!(w.len(), g.len(), "adam_step length mismatch");
    assert_eq!(m.len(), g.len(), "adam_step length mismatch");
    assert_eq!(v.len(), g.len(), "adam_step length mismatch");
    lane_dispatch!(w.len(), adam_avx2(w, m, v, g, p), adam(w, m, v, g, p))
}

/// [`adam`] compiled for AVX2.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn adam_avx2(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], p: AdamParams) {
    adam(w, m, v, g, p);
}

/// The body of [`adam_step`]: the documented sequence, element by element.
/// Always inlined, so [`adam_avx2`] compiles its own copy.
#[inline(always)]
fn adam(w: &mut [f32], m: &mut [f32], v: &mut [f32], g: &[f32], p: AdamParams) {
    let omb1 = 1.0 - p.beta1;
    let omb2 = 1.0 - p.beta2;
    for (((w, m), v), &g) in w.iter_mut().zip(m.iter_mut()).zip(v.iter_mut()).zip(g) {
        *m = p.beta1 * *m + omb1 * g;
        *v = p.beta2 * *v + omb2 * g * g;
        let mhat = *m * p.inv_bc1;
        let vhat = *v * p.inv_bc2;
        *w -= p.lr * (mhat / (vhat.sqrt() + p.eps));
    }
}

/// Squared Euclidean distances from one query to every point of a cloud
/// stored column-major: with `n = out.len()` and `dim = q.len()`,
/// coordinate `d` of point `j` sits at `cols[d·n + j]`, and
///
/// ```text
/// out[j] = Σ_d (q[d] − cols[d·n + j])²
/// ```
///
/// folded over `d` in order starting from `0.0` — the association of a
/// sequential scalar fold, so a 3-D distance is `(dx·dx + dy·dy) + dz·dz`.
/// Elementwise over `j`, hence bit-identical on both paths for any `dim`
/// (up to NaN payloads: which of two different NaNs an add returns is the
/// compiler's choice of operand order, and callers only compare distances).
///
/// # Panics
///
/// Panics if `cols` is not `q.len() * out.len()` floats.
pub fn squared_distances_cols(q: &[f32], cols: &[f32], out: &mut [f32]) {
    assert_eq!(
        cols.len(),
        q.len() * out.len(),
        "cols must be [dim, n] for q [dim] and out [n]"
    );
    lane_dispatch!(out.len(), sweep_avx2(q, cols, out), sweep(q, cols, out))
}

/// [`sweep`] compiled for AVX2.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn sweep_avx2(q: &[f32], cols: &[f32], out: &mut [f32]) {
    sweep(q, cols, out);
}

/// The body of [`squared_distances_cols`]: [`LANES`] points at a time, one
/// running sum per point carried across the dimensions in order, then the
/// ragged tail one point at a time. Always inlined, so [`sweep_avx2`]
/// compiles its own copy, with the sums in one register.
#[inline(always)]
fn sweep(q: &[f32], cols: &[f32], out: &mut [f32]) {
    let n = out.len();
    if n == 0 {
        return; // no points, and `chunks_exact` takes no zero width
    }
    let dims = cols.chunks_exact(n);
    let mut blocks = out.chunks_exact_mut(LANES);
    for (b, o) in (&mut blocks).enumerate() {
        let j = b * LANES;
        let mut acc = [0.0f32; LANES];
        for (&qd, col) in q.iter().zip(dims.clone()) {
            let p: [f32; LANES] = col[j..j + LANES].try_into().expect("LANES floats");
            for (a, p) in acc.iter_mut().zip(p) {
                let t = qd - p;
                *a += t * t;
            }
        }
        o.copy_from_slice(&acc);
    }
    let tail = blocks.into_remainder();
    for (j, o) in (n - tail.len()..).zip(tail) {
        *o = q.iter().zip(dims.clone()).fold(0.0, |a, (&qd, col)| {
            let t = qd - col[j];
            a + t * t
        });
    }
}

/// Which extreme [`arg_extremum_rows`] keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Extremum {
    /// Largest value; a row wins where `row[j] > best[j]`.
    Max,
    /// Smallest value; a row wins where `row[j] < best[j]`.
    Min,
}

/// Arg-tracked max/min over the `k = rows.len() / c` rows of a row-major
/// `[k, c]` block, `c = out.len()`: `out[j]` starts as row 0 with
/// `args[j] = 0`, and row `r` replaces it only where it is *strictly*
/// better. So the first of several equal winners keeps its index, a NaN
/// never wins (it compares false), and a NaN in row 0 is never replaced;
/// `-0.0` and `+0.0` tie. Both paths run one body of ordered compares
/// (`>`/`<`, false on NaN) and whole-value moves, so they return the same
/// bits.
///
/// # Panics
///
/// Panics if `out` is empty, `args` differs from it in length, or `rows`
/// is not a non-zero multiple of `out.len()` floats.
pub fn arg_extremum_rows(rows: &[f32], which: Extremum, out: &mut [f32], args: &mut [usize]) {
    let c = out.len();
    assert!(c > 0, "arg_extremum_rows needs at least one column");
    assert_eq!(args.len(), c, "args/out length mismatch");
    assert!(
        !rows.is_empty() && rows.len().is_multiple_of(c),
        "rows must be [k, {c}] with k >= 1, got {} floats",
        rows.len()
    );
    // The body carries row indices in i32 lanes.
    assert!(rows.len() / c <= i32::MAX as usize, "too many rows");
    lane_dispatch!(
        c,
        arg_extremum_avx2(rows, which, out, args),
        arg_extremum(rows, which, out, args)
    )
}

/// [`arg_extremum`] compiled for AVX2.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
fn arg_extremum_avx2(rows: &[f32], which: Extremum, out: &mut [f32], args: &mut [usize]) {
    arg_extremum(rows, which, out, args);
}

/// The body of [`arg_extremum_rows`], monomorphised per [`Extremum`] so
/// the inner loops carry no `which` branch. Always inlined, so
/// [`arg_extremum_avx2`] compiles its own copy.
#[inline(always)]
fn arg_extremum(rows: &[f32], which: Extremum, out: &mut [f32], args: &mut [usize]) {
    match which {
        Extremum::Max => arg_scan(rows, out, args, |v, best| v > best),
        Extremum::Min => arg_scan(rows, out, args, |v, best| v < best),
    }
}

/// [`LANES`] columns at a time: the running best and its row index (an
/// `i32`, as wide as an `f32` lane) replaced row by row where the row
/// wins, then the ragged column tail the same way.
#[inline(always)]
fn arg_scan(rows: &[f32], out: &mut [f32], args: &mut [usize], wins: impl Fn(f32, f32) -> bool) {
    let c = out.len();
    // Row 0 seeds every column; the later rows compete with it.
    let later = rows[c..].chunks_exact(c);
    let blocks = out
        .chunks_exact_mut(LANES)
        .zip(args.chunks_exact_mut(LANES));
    for (b, (o, a)) in blocks.enumerate() {
        let j = b * LANES;
        let mut best: [f32; LANES] = rows[j..j + LANES].try_into().expect("LANES floats");
        let mut arg = [0i32; LANES];
        for (row, r) in later.clone().zip(1..) {
            let v: [f32; LANES] = row[j..j + LANES].try_into().expect("LANES floats");
            for ((best, arg), v) in best.iter_mut().zip(&mut arg).zip(v) {
                if wins(v, *best) {
                    *best = v;
                    *arg = r;
                }
            }
        }
        o.copy_from_slice(&best);
        for (a, &r) in a.iter_mut().zip(&arg) {
            *a = r as usize;
        }
    }
    let j0 = c / LANES * LANES;
    if j0 < c {
        let (out, args) = (&mut out[j0..], &mut args[j0..]);
        out.copy_from_slice(&rows[j0..c]);
        args.fill(0);
        for (row, r) in later.zip(1..) {
            for ((o, a), &v) in out.iter_mut().zip(args.iter_mut()).zip(&row[j0..]) {
                if wins(v, *o) {
                    *o = v;
                    *a = r;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ragged lengths exercising the empty, sub-lane, exact-lane, and
    /// lane-plus-tail schedules.
    const RAGGED: [usize; 10] = [0, 1, 3, 7, 8, 9, 16, 17, 31, 100];

    fn seq(len: usize, salt: f32) -> Vec<f32> {
        (0..len)
            .map(|i| (i as f32 * 0.37 + salt).sin() * 2.0)
            .collect()
    }

    #[test]
    fn detected_is_stable() {
        assert_eq!(detected(), detected());
    }

    #[test]
    fn with_path_forces_and_restores() {
        let outer = active();
        with_path(LanePath::Scalar, || {
            assert_eq!(active(), LanePath::Scalar);
        });
        assert_eq!(active(), outer);
    }

    /// The paths [`with_path`] can force.
    const PATHS: [LanePath; 2] = [LanePath::Scalar, LanePath::Avx2];

    #[test]
    fn add_assign_and_scale_match_across_paths() {
        for len in RAGGED {
            let x = seq(len, 0.3);
            let mut expect = seq(len, 0.9);
            for (c, &v) in expect.iter_mut().zip(&x) {
                *c = (*c + v) * 0.77;
            }
            for path in PATHS {
                let mut got = seq(len, 0.9);
                with_path(path, || {
                    add_assign(&mut got, &x);
                    scale(&mut got, 0.77);
                });
                assert_eq!(got, expect, "{path} len {len}");
            }
        }
    }

    /// Special values the IEEE contract pins: NaN, ±∞, ±0.0 and ordinary
    /// magnitudes, cycled through a buffer of length `len`.
    fn specials(len: usize, salt: usize) -> Vec<f32> {
        const S: [f32; 8] = [
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            0.0,
            1.5,
            -2.25,
            1e-30,
        ];
        (0..len).map(|i| S[(i + salt) % S.len()]).collect()
    }

    #[test]
    fn sub_and_mul_assign_match_across_paths() {
        for len in RAGGED {
            let x = seq(len, 0.13);
            let mut expect = seq(len, 0.83);
            for (c, &v) in expect.iter_mut().zip(&x) {
                *c = (*c - v) * v;
            }
            for path in PATHS {
                let mut got = seq(len, 0.83);
                with_path(path, || {
                    sub_assign(&mut got, &x);
                    mul_assign(&mut got, &x);
                });
                assert_eq!(got, expect, "{path} len {len}");
            }
        }
    }

    #[test]
    fn relu_family_matches_across_paths_on_specials() {
        for len in RAGGED {
            for salt in 0..8 {
                let x = specials(len, salt);
                let g = seq(len, 0.29);
                let step = |v: f32, neg: f32| if v > 0.0 { v } else { neg * v };
                let mask = |v: f32, neg: f32| if v > 0.0 { 1.0 } else { neg };
                let want_relu: Vec<f32> =
                    x.iter().map(|&v| if v > 0.0 { v } else { 0.0 }).collect();
                let want_leaky: Vec<f32> = x.iter().map(|&v| step(v, 0.2)).collect();
                let want_relu_grad: Vec<f32> = g
                    .iter()
                    .zip(&x)
                    .map(|(&gv, &v)| gv * mask(v, 0.0))
                    .collect();
                let want_leaky_grad: Vec<f32> = g
                    .iter()
                    .zip(&x)
                    .map(|(&gv, &v)| gv * mask(v, 0.2))
                    .collect();
                for path in PATHS {
                    let at = format!("{path} len {len} salt {salt}");
                    let mut r = x.clone();
                    with_path(path, || relu(&mut r));
                    assert_eq!(bits(&r), bits(&want_relu), "relu {at}");

                    let mut r = x.clone();
                    with_path(path, || leaky_relu(&mut r, 0.2));
                    assert_eq!(bits(&r), bits(&want_leaky), "leaky_relu {at}");

                    let mut r = g.clone();
                    with_path(path, || relu_grad(&mut r, &x));
                    assert_eq!(bits(&r), bits(&want_relu_grad), "relu_grad {at}");

                    let mut r = g.clone();
                    with_path(path, || leaky_relu_grad(&mut r, &x, 0.2));
                    assert_eq!(bits(&r), bits(&want_leaky_grad), "leaky_relu_grad {at}");
                }
            }
        }
    }

    /// Bit views so NaN-carrying buffers can be compared exactly.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn relu_sends_nan_and_negative_zero_to_positive_zero() {
        // The documented semantics, checked on the active path: anything not
        // strictly greater than zero becomes +0.0 — including NaN and -0.0.
        let mut buf = vec![
            f32::NAN,
            -0.0,
            -3.0,
            f32::NEG_INFINITY,
            2.0,
            0.0,
            1.0,
            4.0,
            -1.0,
        ];
        relu(&mut buf);
        assert_eq!(bits(&buf[0..4]), vec![0u32; 4]);
        assert_eq!(buf[4], 2.0);
        assert_eq!(buf[5].to_bits(), 0);
    }

    #[test]
    fn grad_kernels_are_literal_multiplies() {
        // g·0 for a NaN/∞ gradient must stay NaN — the mask is multiplied,
        // never used to select zero directly.
        let x = vec![-1.0f32; 9];
        let mut g = vec![f32::NAN, f32::INFINITY, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        relu_grad(&mut g, &x);
        assert!(g[0].is_nan());
        assert!(g[1].is_nan()); // ∞ · 0 = NaN
        assert_eq!(&g[2..], &[0.0; 7]);
    }

    #[test]
    fn dot_matches_across_paths() {
        for len in RAGGED {
            let a = seq(len, 0.2);
            let b = seq(len, 0.5);
            // Element `i` of a full chunk feeds lane `i % LANES`, tail
            // element `t` lane `t`, each lane in index order.
            let full = len / LANES * LANES;
            let mut lanes = [0.0f32; LANES];
            for i in 0..len {
                let lane = if i < full { i % LANES } else { i - full };
                lanes[lane] += a[i] * b[i];
            }
            let expect = hsum_tree(&lanes);
            for path in PATHS {
                let got = with_path(path, || dot(&a, &b));
                assert_eq!(got.to_bits(), expect.to_bits(), "{path} len {len}");
            }
        }
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn dot_schedule_is_the_documented_one() {
        // One full chunk plus a 3-long tail: lanes fill per the fixed
        // schedule, then the tree sums them in the documented order.
        let a: Vec<f32> = (0..11).map(|i| i as f32 + 0.5).collect();
        let b: Vec<f32> = (0..11).map(|i| (i as f32).cos()).collect();
        let mut lanes = [0.0f32; LANES];
        for l in 0..LANES {
            lanes[l] += a[l] * b[l];
        }
        for t in 0..3 {
            lanes[t] += a[LANES + t] * b[LANES + t];
        }
        assert_eq!(dot(&a, &b).to_bits(), hsum_tree(&lanes).to_bits());
    }

    #[test]
    fn adam_step_matches_across_paths_and_raw_sequence() {
        let p = AdamParams {
            lr: 3e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            inv_bc1: 1.0 / (1.0 - 0.9f32.powi(3)),
            inv_bc2: 1.0 / (1.0 - 0.999f32.powi(3)),
        };
        for len in RAGGED {
            let g = seq(len, 0.11);
            let w0 = seq(len, 0.23);
            let m0 = seq(len, 0.41);
            // Second moments are non-negative in real runs; keep v ≥ 0 so
            // sqrt stays in-domain.
            let v0: Vec<f32> = seq(len, 0.59).iter().map(|x| x * x).collect();

            // The documented per-element sequence, written straight.
            let mut we = w0.clone();
            let mut me = m0.clone();
            let mut ve = v0.clone();
            for i in 0..len {
                me[i] = p.beta1 * me[i] + (1.0 - p.beta1) * g[i];
                ve[i] = p.beta2 * ve[i] + (1.0 - p.beta2) * g[i] * g[i];
                let mhat = me[i] * p.inv_bc1;
                let vhat = ve[i] * p.inv_bc2;
                we[i] -= p.lr * (mhat / (vhat.sqrt() + p.eps));
            }

            let (mut ws, mut ms, mut vs) = (w0.clone(), m0.clone(), v0.clone());
            with_path(LanePath::Scalar, || {
                adam_step(&mut ws, &mut ms, &mut vs, &g, p)
            });
            let (mut wl, mut ml, mut vl) = (w0.clone(), m0.clone(), v0.clone());
            with_path(LanePath::Avx2, || {
                adam_step(&mut wl, &mut ml, &mut vl, &g, p)
            });
            assert_eq!(ws, we, "scalar w, len {len}");
            assert_eq!(ms, me, "scalar m, len {len}");
            assert_eq!(vs, ve, "scalar v, len {len}");
            assert_eq!(wl, we, "lane w, len {len}");
            assert_eq!(ml, me, "lane m, len {len}");
            assert_eq!(vl, ve, "lane v, len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn adam_step_length_mismatch_panics() {
        let p = AdamParams {
            lr: 1e-3,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            inv_bc1: 1.0,
            inv_bc2: 1.0,
        };
        adam_step(&mut [0.0; 3], &mut [0.0; 3], &mut [0.0; 4], &[0.0; 3], p);
    }

    /// Interleaved `[n, dim]` points to the `[dim, n]` column layout.
    fn columns(pts: &[f32], dim: usize) -> Vec<f32> {
        let n = pts.len() / dim;
        let mut cols = vec![0.0f32; pts.len()];
        for (j, p) in pts.chunks_exact(dim).enumerate() {
            for (d, &v) in p.iter().enumerate() {
                cols[d * n + j] = v;
            }
        }
        cols
    }

    #[test]
    fn distances_match_across_paths() {
        for dim in [1usize, 3, 5] {
            for n in RAGGED {
                let pts = seq(n * dim, 0.4);
                let cols = columns(&pts, dim);
                let q = seq(dim, 1.3);
                let mut s = vec![0.0f32; n];
                let mut l = vec![0.0f32; n];
                with_path(LanePath::Scalar, || {
                    squared_distances_cols(&q, &cols, &mut s)
                });
                with_path(LanePath::Avx2, || squared_distances_cols(&q, &cols, &mut l));
                assert_eq!(bits(&s), bits(&l), "dim {dim} n {n}");
                for (j, p) in pts.chunks_exact(dim).enumerate() {
                    let fold = q
                        .iter()
                        .zip(p)
                        .fold(0.0f32, |a, (x, y)| a + (x - y) * (x - y));
                    assert_eq!(s[j].to_bits(), fold.to_bits(), "dim {dim} n {n} j {j}");
                }
            }
        }
    }

    #[test]
    fn arg_extremum_keeps_first_strict_winner() {
        // Column 0: a tie at rows 1 and 2 keeps row 1. Column 1: NaN in row
        // 0 is never replaced. Column 2: a later NaN never wins. Column 3:
        // +0.0 does not beat -0.0. Nine columns so the lane leg runs.
        let nan = f32::NAN;
        let rows = [
            1.0, nan, 1.0, -0.0, 0.0, 0.0, 0.0, 0.0, 0.0, // row 0
            3.0, 5.0, nan, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, // row 1
            3.0, 9.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0, // row 2
        ];
        let mut out = [0.0f32; 9];
        let mut args = [0usize; 9];
        arg_extremum_rows(&rows, Extremum::Max, &mut out, &mut args);
        assert_eq!(out[0], 3.0);
        assert!(out[1].is_nan());
        assert_eq!(out[2], 1.0);
        assert_eq!(out[3].to_bits(), (-0.0f32).to_bits());
        assert_eq!(args, [1, 0, 0, 0, 0, 0, 0, 0, 2]);
        arg_extremum_rows(&rows, Extremum::Min, &mut out, &mut args);
        assert_eq!((out[2], args[2]), (0.5, 2));
        assert_eq!(args[0], 0);
    }
}
