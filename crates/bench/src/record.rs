//! Shared scaffolding for the machine-readable `BENCH_*.json` kernel
//! records the criterion benches emit alongside their sweeps.
//!
//! A record file is one JSON object with a `"kernels"` array of one-line
//! records (`kernel`/`shape`/`scalar_ms`/`lane_ms`/`speedup`), the format
//! `bench_diff` parses without a JSON dependency. The two lane paths are
//! bit-identical by construction, so the record is purely a perf
//! trajectory for CI.

use hgnas_tensor::simd::{self, LanePath};

/// One kernel × shape, timed on the scalar path and on the detected lane
/// path, best-of-`reps` per leg: best-of (not mean) because the record is
/// meant for a noisy CI runner, and the minimum is the least contaminated
/// estimate of the kernel's cost. The legs run rep by rep, each going first
/// every other rep, so host-load drift during the record reaches both
/// columns alike instead of landing in their ratio. When the host has no
/// AVX2 (or `HGNAS_SIMD=scalar`) both legs run scalar and the speedup
/// hovers around 1.0 — `lane_path` in the header records which case the
/// file describes.
pub fn time_both(name: &str, shape: &str, reps: usize, mut f: impl FnMut()) -> String {
    let mut run = |path| {
        simd::with_path(path, || {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
    };
    // Warm-up: page in buffers, settle the lane-path OnceLock.
    run(LanePath::Scalar);
    run(LanePath::Avx2);
    let (mut scalar_ms, mut lane_ms) = (f64::INFINITY, f64::INFINITY);
    for rep in 0..reps {
        if rep % 2 == 0 {
            scalar_ms = scalar_ms.min(run(LanePath::Scalar));
            lane_ms = lane_ms.min(run(LanePath::Avx2));
        } else {
            lane_ms = lane_ms.min(run(LanePath::Avx2));
            scalar_ms = scalar_ms.min(run(LanePath::Scalar));
        }
    }
    format!(
        "{{\"kernel\": \"{name}\", \"shape\": \"{shape}\", \
         \"scalar_ms\": {scalar_ms:.4}, \"lane_ms\": {lane_ms:.4}, \
         \"speedup\": {:.3}}}",
        scalar_ms / lane_ms.max(1e-9)
    )
}

/// Writes the record file CI uploads and diffs against the committed
/// baseline. `default_file` is a bare file name (e.g. `BENCH_ops.json`):
/// cargo runs benches with cwd = the *package* dir (`crates/bench`), so the
/// default is anchored to the workspace root; `HGNAS_BENCH_OUT` overrides
/// the full path.
pub fn emit_bench_json(bench: &str, default_file: &str, entries: &[String]) {
    let json = format!(
        "{{\n  \"bench\": \"{bench}\",\n  \"lane_path\": \"{}\",\n  \
         \"lane_width\": {},\n  \"kernels\": [\n    {}\n  ]\n}}\n",
        simd::detected(),
        simd::LANES,
        entries.join(",\n    "),
    );
    let path = std::env::var("HGNAS_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../{default_file}", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&path, &json).expect("write bench json");
    println!("{path}:\n{json}");
}

/// True when `HGNAS_BENCH_JSON=only` asks for just the JSON record (CI's
/// quick path), skipping the criterion sweep.
pub fn json_only() -> bool {
    std::env::var("HGNAS_BENCH_JSON").is_ok_and(|v| v == "only")
}
