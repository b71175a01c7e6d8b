//! Benchmark of the `hgnas-serve` search daemon, driven from outside.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tenants --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! Each run starts an in-process daemon over a fresh artifact store,
//! serves it on loopback TCP, and drives it with closed-loop clients whose
//! requests are generated from `--seed`. It prints its metrics by name
//! with their units, checks every checked report bit for bit against a
//! direct `run_fleet`, and ends with one JSON result line. `--trace 1`
//! repeats the window with spans on and reports per-layer metrics instead
//! of end-to-end ones. See `perfbench/README.md`.

mod check;
mod drive;
mod layers;
mod stats;
mod trace;
mod workload;

use check::{check, committed_digest, count_drift, count_signature, Checked};
use drive::{Daemon, Record, Window};
use stats::{mean, median, min_samples_for_tail, percentile, result_json, Metric};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workload::Kind;

/// The seed whose report digest is committed in `digests.txt`.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Committed report digests: `<workload> <seed> <fnv1a-hex>` per line.
const DIGESTS: &str = include_str!("../digests.txt");
/// Scratch stores, deleted as each run ends.
const TMP_DIR: &str = ".perfbench_tmp";
/// Count signatures and span files kept across runs.
const STATE_DIR: &str = ".perfbench_state";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <tenants|solo-small|spill-measured> --seed <n> \
         --seconds <s> --trace <0|1>\n       perfbench --self-test"
    );
    std::process::exit(2);
}

fn parse_args() -> Option<Args> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
    };
    Some(Args {
        kind: Kind::parse(get("--workload")?)?,
        seed: get("--seed")?.parse().ok()?,
        seconds: get("--seconds")?.parse().ok().filter(|s: &f64| *s >= 0.0)?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return None,
        },
    })
}

fn main() {
    if std::env::args().any(|a| a == "--self-test") {
        std::process::exit(self_test());
    }
    let Some(args) = parse_args() else { usage() };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn tmp_path(kind: Kind, what: &str) -> PathBuf {
    Path::new(TMP_DIR).join(format!("{}-{}-{what}", kind.name(), std::process::id()))
}

/// Starts the daemon `SETUP_REPS` times, timing each set-up; keeps the
/// last one running. Returns it with the median set-up time, seconds.
fn timed_setup(kind: Kind) -> Result<(Daemon, f64), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        let d = Daemon::start(kind, &tmp_path(kind, &format!("store{rep}")))?;
        times.push(t.elapsed().as_secs_f64());
        if let Some(prev) = kept.replace(d) {
            Daemon::stop(prev);
        }
    }
    println!(
        "set-up times: {}",
        times
            .iter()
            .map(|t| format!("{t:.3} s"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    Ok((kept.expect("at least one set-up"), median(&times)))
}

/// What a window and its check amount to.
struct Served<'a> {
    window: &'a Window,
    checked: &'a Checked,
}

impl Served<'_> {
    fn reports(&self) -> impl Iterator<Item = (&Record, &hgnas::fleet::WireReport)> {
        self.window
            .records
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok().map(|rep| (r, rep)))
    }

    fn report_ms(&self) -> Vec<f64> {
        self.reports().map(|(r, _)| r.report_ms()).collect()
    }

    fn shards(&self) -> usize {
        self.reports().map(|(_, rep)| rep.shards.len()).sum()
    }

    /// Indices of requests that failed: errors, reports that differ from
    /// the direct run, and — on the default seed — every checked request
    /// when the digest differs from the committed one.
    fn failed(&self, kind: Kind, seed: u64) -> BTreeSet<usize> {
        let mut failed: BTreeSet<usize> = self
            .window
            .records
            .iter()
            .enumerate()
            .filter(|(_, r)| r.outcome.is_err())
            .map(|(i, _)| i)
            .collect();
        failed.extend(&self.checked.mismatches);
        if let Some(want) = committed_digest(DIGESTS, kind, seed) {
            if want != self.checked.digest {
                failed.extend(&self.checked.checked);
            }
        }
        failed
    }

    /// Mean over served requests of `f`.
    fn per_request(&self, f: impl Fn(&Record, &hgnas::fleet::WireReport) -> f64) -> f64 {
        mean(&self.reports().map(|(r, rep)| f(r, rep)).collect::<Vec<_>>())
    }
}

fn run(args: &Args) -> Result<(), String> {
    let kind = args.kind;
    let min_requests = min_samples_for_tail(kind.tail_pct());
    let (mut daemon, setup_s) = timed_setup(kind)?;
    let off = Tracer::new(false);
    let window = drive::run_window(
        &mut daemon,
        kind,
        args.seed,
        args.seconds,
        min_requests,
        &off,
    );
    let untraced_store_bytes =
        stats::dir_bytes(&daemon.store_dir).saturating_sub(daemon.setup_store_bytes);
    let serve = daemon.serve.clone();
    daemon.stop();

    // The traced run repeats the window with spans on, over a fresh
    // daemon, and compares its median with the untraced one above.
    let tracer = Tracer::new(args.trace);
    let (window, untraced, store_bytes) = if args.trace {
        let mut d = Daemon::start(kind, &tmp_path(kind, "traced"))?;
        let w = drive::run_window(&mut d, kind, args.seed, args.seconds, min_requests, &tracer);
        let bytes = stats::dir_bytes(&d.store_dir).saturating_sub(d.setup_store_bytes);
        d.stop();
        (w, Some(window), bytes)
    } else {
        (window, None, untraced_store_bytes)
    };
    let checked = check(
        kind,
        &serve,
        &window.records,
        &tmp_path(kind, "check"),
        &tracer,
    )?;
    let served = Served {
        window: &window,
        checked: &checked,
    };
    let failed = served.failed(kind, args.seed);
    let attempted = window.records.len() as u64;

    print_summary(kind, args.seed, &served, &failed);
    record_counts(kind, args.seed, &window.records, &checked);
    if served.report_ms().is_empty() {
        return Err("no request was served".into());
    }

    let metrics = if let Some(untraced) = untraced {
        let first_ok = checked
            .checked
            .iter()
            .find(|&&i| window.records[i].outcome.is_ok())
            .ok_or("no checked request was served")?;
        let rec = &window.records[*first_ok];
        let report = rec.outcome.as_ref().expect("checked above");
        let replay = layers::replay(
            &rec.request,
            report,
            &tmp_path(kind, "replay"),
            &tracer,
            rec.span_request(),
        )?;
        let untraced_ms: Vec<f64> = untraced
            .records
            .iter()
            .filter(|r| r.outcome.is_ok())
            .map(Record::report_ms)
            .collect();
        if untraced_ms.is_empty() {
            return Err("no request was served in the untraced window".into());
        }
        let untraced_p50 = median(&untraced_ms);
        let mut m = per_layer_metrics(&served, &failed, store_bytes, untraced_p50);
        m.extend(replay);
        for (layer, ms) in tracer.self_ms_by_layer() {
            m.push(Metric::new(format!("{layer}.self_ms"), ms, "ms"));
        }
        let spans =
            Path::new(STATE_DIR).join(format!("spans-{}-seed{}.jsonl", kind.name(), args.seed));
        tracer
            .write_jsonl(&spans)
            .map_err(|e| format!("writing spans: {e}"))?;
        println!(
            "spans: {} written to {}",
            tracer.spans().len(),
            spans.display()
        );
        m
    } else {
        end_to_end_metrics(kind, &served, setup_s)
    };
    for m in &metrics {
        println!("  {:<40} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let correct = failed.is_empty();
    println!(
        "{}",
        result_json(correct, attempted, failed.len() as u64, &metrics)
    );
    Ok(())
}

fn end_to_end_metrics(kind: Kind, served: &Served, setup_s: f64) -> Vec<Metric> {
    let ms = served.report_ms();
    let shards = served.shards().max(1) as f64;
    vec![
        Metric::new("report_ms.p50", median(&ms), "ms"),
        Metric::new("report_ms.tail", percentile(&ms, kind.tail_pct()), "ms"),
        Metric::new(
            "shards_per_min",
            shards / served.window.wall_s * 60.0,
            "1/min",
        ),
        Metric::new("cpu_s_per_shard", served.window.cpu_s / shards, "s"),
        Metric::new("peak_rss_mb", mean(&served.window.rss_peaks_mb), "MiB"),
        Metric::new("setup_s", setup_s, "s"),
    ]
}

fn per_layer_metrics(
    served: &Served,
    failed: &BTreeSet<usize>,
    store_bytes: u64,
    untraced_p50: f64,
) -> Vec<Metric> {
    let recs = &served.window.records;
    let checked = served.checked;
    let ok: Vec<&Record> = recs.iter().filter(|r| r.outcome.is_ok()).collect();
    let since_submit = |f: &dyn Fn(&Record) -> Option<std::time::Instant>| {
        let v: Vec<f64> = ok
            .iter()
            .filter_map(|r| f(r).map(|t| t.duration_since(r.submit).as_secs_f64() * 1e3))
            .collect();
        if v.is_empty() {
            0.0
        } else {
            median(&v)
        }
    };
    let direct_ms: Vec<f64> = checked.direct.iter().map(|d| d.ms).collect();
    let overhead: Vec<f64> = checked
        .checked
        .iter()
        .zip(&checked.direct)
        .filter(|(&i, _)| recs[i].outcome.is_ok())
        .map(|(&i, d)| recs[i].report_ms() - d.ms)
        .collect();
    let builds: u64 = served
        .reports()
        .flat_map(|(_, rep)| rep.shards.iter().map(|s| s.prefix_builds))
        .sum();
    let distinct: usize = served
        .reports()
        .map(|(r, _)| r.request.distinct_prefixes())
        .sum();
    let shard_stats = |f: &dyn Fn(&hgnas::fleet::WireShardReport) -> f64| {
        mean(
            &served
                .reports()
                .flat_map(|(_, rep)| rep.shards.iter().map(f))
                .collect::<Vec<_>>(),
        )
    };
    let (mut hits, mut submitted) = (0u64, 0u64);
    for (_, rep) in served.reports() {
        for s in &rep.shards {
            if let Some(e) = s.outcome.eval_stats {
                hits += e.hits + e.imported;
                submitted += e.submitted;
            }
        }
    }
    let direct_shards: usize = checked
        .checked
        .iter()
        .map(|&i| recs[i].request.shards().len())
        .sum();
    let knn: usize = checked.direct.iter().map(|d| d.knn_builds).sum();
    let report_p50 = median(&served.report_ms());
    let n = recs.len().max(1) as f64;
    let mut m = request_counts(served);
    m.extend([
        Metric::new(
            "serve.first_event_ms.p50",
            since_submit(&|r| r.first_event),
            "ms",
        ),
        Metric::new(
            "serve.accept_ms.p50",
            since_submit(&|r| Some(r.accepted)),
            "ms",
        ),
        Metric::new("serve.overhead_ms.p50", median(&overhead), "ms"),
        Metric::new("fleet.direct_ms.p50", median(&direct_ms), "ms"),
        Metric::new(
            "fleet.prefix_build_frac",
            distinct as f64 / builds.max(1) as f64,
            "frac",
        ),
        Metric::new(
            "fleet.warm_predictor_frac",
            shard_stats(&|s| f64::from(u8::from(s.warm_predictor))),
            "frac",
        ),
        Metric::new(
            "fleet.store.bytes_per_request",
            store_bytes as f64 / ok.len().max(1) as f64,
            "bytes",
        ),
        Metric::new(
            "core.candidates_per_shard",
            shard_stats(&|s| s.outcome.eval_stats.map_or(0.0, |e| e.submitted as f64)),
            "count",
        ),
        Metric::new(
            "core.eval_hit_frac",
            hits as f64 / submitted.max(1) as f64,
            "frac",
        ),
        Metric::new(
            "core.stage1_candidates_per_prefix",
            shard_stats(&|s| s.outcome.stage1_stats.map_or(0.0, |e| e.submitted as f64)),
            "count",
        ),
        Metric::new(
            "graph.knn_builds_per_shard",
            knn as f64 / direct_shards.max(1) as f64,
            "count",
        ),
        Metric::new("failed_frac", failed.len() as f64 / n, "frac"),
        Metric::new(
            "trace.overhead_frac",
            report_p50 / untraced_p50 - 1.0,
            "frac",
        ),
    ]);
    m
}

/// What the served requests did, per request, from their reports and
/// event streams.
fn request_counts(served: &Served) -> Vec<Metric> {
    let per = |name: &'static str, f: &dyn Fn(&Record, &hgnas::fleet::WireReport) -> u64| {
        Metric::new(name, served.per_request(|r, rep| f(r, rep) as f64), "count")
    };
    vec![
        per("serve.rounds_per_request", &|_, rep| rep.rounds),
        per("serve.event_frames_per_request", &|r, _| r.tally.frames),
        per("fleet.slices_per_request", &|_, rep| rep.slices),
        per("fleet.preemptions_per_request", &|r, _| r.tally.preemptions),
        per("fleet.prefix_builds_per_request", &|_, rep| {
            rep.shards.iter().map(|s| s.prefix_builds).sum()
        }),
        per("fleet.session_hits_per_request", &|r, _| r.tally.hits),
        per("fleet.session_restores_per_request", &|r, _| {
            r.tally.restores
        }),
        per("fleet.session_evictions_per_request", &|r, _| {
            r.tally.evictions
        }),
        per("fleet.session_deferrals_per_request", &|r, _| {
            r.tally.deferrals
        }),
    ]
}

/// Prints the run's counts next to its times.
fn print_summary(kind: Kind, seed: u64, served: &Served, failed: &BTreeSet<usize>) {
    let w = served.window;
    let ms = served.report_ms();
    let n = w.records.len();
    println!(
        "workload {} seed {seed}: {n} requests from {} client(s), {} shards in {:.2} s",
        kind.name(),
        kind.clients().len(),
        served.shards(),
        w.wall_s
    );
    if !ms.is_empty() {
        println!(
            "  report: p50 {:.1} ms, p{} {:.1} ms over {} reports ({} beyond the tail)",
            median(&ms),
            kind.tail_pct(),
            percentile(&ms, kind.tail_pct()),
            ms.len(),
            stats::beyond(ms.len(), kind.tail_pct())
        );
    }
    let peaks = &w.rss_peaks_mb;
    println!(
        "  RSS: mean {:.1} MiB, median {:.1} MiB, max {:.1} MiB over the window's {} one-second peaks; CPU {:.2} s",
        mean(peaks),
        median(peaks),
        peaks.iter().copied().fold(0.0, f64::max),
        peaks.len(),
        w.cpu_s
    );
    println!(
        "  counts per request (distinct prefixes {:.2}):",
        served.per_request(|r, _| r.request.distinct_prefixes() as f64)
    );
    for m in request_counts(served) {
        println!("    {:<38} {:>10.2}", m.name, m.value);
    }
    let c = served.checked;
    let knn: usize = c.direct.iter().map(|d| d.knn_builds).sum();
    let direct_builds: u64 = c.direct.iter().map(|d| d.prefix_builds).sum();
    if !c.direct.is_empty() {
        println!(
            "  direct run_fleet of {} checked request(s): median {:.1} ms, prefix builds {}, KNN builds {}",
            c.checked.len(),
            median(&c.direct.iter().map(|d| d.ms).collect::<Vec<_>>()),
            direct_builds,
            knn
        );
    }
    match committed_digest(DIGESTS, kind, seed) {
        Some(want) if want == c.digest => {
            println!("  digest {:016x} matches the committed one", c.digest)
        }
        Some(want) => println!(
            "  DIGEST MISMATCH: {:016x}, committed {want:016x}",
            c.digest
        ),
        None => println!("  digest {:016x} (none committed for this seed)", c.digest),
    }
    println!(
        "  output check: {} of {} checked reports bit-identical to run_fleet; failed {} of {n} ({:.4})",
        c.checked.len() - c.mismatches.len(),
        c.checked.len(),
        failed.len(),
        failed.len() as f64 / n.max(1) as f64
    );
    for (i, r) in w.records.iter().enumerate() {
        if let Err(e) = &r.outcome {
            println!("  request c{}r{} failed: {e}", r.client, r.index);
        } else if c.mismatches.contains(&i) {
            println!("  request c{}r{} differs from run_fleet", r.client, r.index);
        }
    }
}

/// Compares this run's count signature with the first run of the same
/// workload, seed and report digest (kept under the state directory; a
/// program whose results changed starts a fresh record) and prints every
/// count that moved.
fn record_counts(kind: Kind, seed: u64, records: &[Record], checked: &Checked) {
    let sig = count_signature(kind, records, checked);
    let path = Path::new(STATE_DIR).join(format!(
        "counts-{}-seed{seed}-{:016x}.txt",
        kind.name(),
        checked.digest
    ));
    let drift = match std::fs::read_to_string(&path) {
        Ok(before) => count_drift(&before, &sig),
        Err(_) => {
            let _ = std::fs::create_dir_all(STATE_DIR);
            let _ = std::fs::write(&path, &sig);
            Vec::new()
        }
    };
    if drift.is_empty() {
        println!(
            "  counts: {} repeatable counts recorded, none moved",
            sig.lines().count()
        );
    }
    for d in &drift {
        println!("  COUNT DRIFT against the first run of this seed: {d}");
    }
}

/// A few requests per workload: every report must match `run_fleet`, the
/// default seed's digest must match the committed one, and the direct
/// runs' counts must repeat exactly.
fn self_test() -> i32 {
    let mut failures = 0;
    for kind in Kind::ALL {
        let result = (|| -> Result<(), String> {
            let seed = DEFAULT_SEED;
            let per_client = kind.checked_per_client() as usize;
            let mut d = Daemon::start(kind, &tmp_path(kind, "selftest"))?;
            let min = per_client * kind.clients().len();
            let w = drive::run_window(&mut d, kind, seed, 0.0, min, &Tracer::new(false));
            let serve = d.serve.clone();
            d.stop();
            let off = Tracer::new(false);
            let a = check(kind, &serve, &w.records, &tmp_path(kind, "check"), &off)?;
            let b = check(kind, &serve, &w.records, &tmp_path(kind, "check"), &off)?;
            if let Some(r) = w.records.iter().find(|r| r.outcome.is_err()) {
                return Err(format!("request failed: {:?}", r.outcome.as_ref().err()));
            }
            if !a.mismatches.is_empty() {
                return Err(format!(
                    "{} report(s) differ from run_fleet",
                    a.mismatches.len()
                ));
            }
            let want = committed_digest(DIGESTS, kind, seed);
            if want.is_some_and(|want| want != a.digest) {
                return Err(format!(
                    "digest {:016x} differs from the committed one",
                    a.digest
                ));
            }
            let drift = count_drift(
                &count_signature(kind, &w.records, &a),
                &count_signature(kind, &w.records, &b),
            );
            if !drift.is_empty() {
                return Err(format!("counts moved between identical runs: {drift:?}"));
            }
            println!(
                "self-test {}: {} request(s) bit-identical, digest {:016x}{}, counts repeat",
                kind.name(),
                w.records.len(),
                a.digest,
                if want.is_some() {
                    " (committed)"
                } else {
                    " (none committed)"
                }
            );
            Ok(())
        })();
        if let Err(e) = result {
            println!("self-test {}: FAILED: {e}", kind.name());
            failures += 1;
        }
    }
    i32::from(failures > 0)
}
