//! Batched, memoised, optionally parallel candidate evaluation.
//!
//! The EA hot path of the search is scoring a generation of candidates.
//! [`Evaluator`] turns that into a deterministic batch pipeline:
//!
//! 1. **Memoisation** — results are cached on the candidate encoding, so a
//!    duplicate candidate (common under mutation) is never re-lowered or
//!    re-scored, within a generation or across generations.
//! 2. **Parallel scoring** — cache misses are fanned out across scoped
//!    threads ([`hgnas_tensor::threads::fan_out`]). Each candidate gets its
//!    own RNG stream derived from the evaluator seed and the candidate's
//!    *submission index*, so scores are bit-identical no matter how many
//!    threads run (including one).
//! 3. **Thread-budget handoff** — the evaluator owns a total thread budget
//!    and splits it between EA-level runs and kernel-level matmul threads
//!    (`hgnas_tensor::threads`), so the two levels of parallelism never
//!    oversubscribe the machine.
//! 4. **Sequential reduction** — per-candidate outputs are folded in
//!    submission order through a caller-supplied `reduce` closure, which is
//!    where inherently serial bookkeeping (search clock, best-so-far
//!    history) lives. Reduction order never depends on worker scheduling.
//! 5. **Warm-start imports** — a previous run's scored entries can be
//!    imported as a side cache ([`Evaluator::import_warm_cache`]). The
//!    first time this run submits an imported genome, the stored output is
//!    *promoted* into the live cache instead of being re-scored: the
//!    reduce fold still sees it as fresh (simulated search time is charged
//!    exactly as if it had been scored), but [`EvalStats::imported`] is
//!    bumped instead of [`EvalStats::misses`]. When imported entries come
//!    from a run with the same configuration fingerprint (or any run whose
//!    scorer never draws from its RNG stream, e.g. predictor-mode
//!    scoring), a warm-started search is bit-identical to a cold one.
//! 6. **Import validation** — donor entries are *not* trusted verbatim:
//!    a deterministic sample of promotions (the first
//!    [`WARM_VALIDATION_SAMPLE`], then every
//!    [`WARM_VALIDATION_PERIOD`]th) is re-scored on its own promotion
//!    stream and compared. A match promotes as usual (counted in
//!    [`EvalStats::validated`]); any drift condemns the whole import —
//!    the drifting entry is served as the freshly scored miss it is, the
//!    un-promoted remainder is discarded (counted in
//!    [`EvalStats::rejected`]), and the run continues cold. A genuinely
//!    mismatched donor (different RNG streams, e.g. a cross-seed
//!    measured-mode transfer) drifts on essentially every entry and is
//!    caught by the first sample; a donor whose drift is confined to
//!    entries the sample skips can still be served, so the guarantee is
//!    probabilistic — but every *validated* entry is bit-identical to
//!    scoring by construction, and same-fingerprint or
//!    stream-independent donors (the documented warm-start contract)
//!    always pass.

use hgnas_tensor::threads::{fan_out, with_kernel_threads};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hash::Hash;

/// Scores one candidate. Implementations must be pure up to the supplied
/// RNG: the same `(genome, rng stream)` pair must produce the same output
/// regardless of which thread runs it or what ran before.
pub trait CandidateScorer<G>: Sync {
    /// Full per-candidate result (fitness plus whatever detail the caller
    /// needs for bookkeeping).
    type Output: Clone + Send;

    /// Scores `genome`; `rng` is this candidate's private stream.
    fn score(&self, genome: &G, rng: &mut StdRng) -> Self::Output;
}

/// Cache and scheduling counters of an [`Evaluator`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Candidates answered from the memo cache (within- or cross-batch),
    /// i.e. genomes this run had already resolved once.
    pub hits: u64,
    /// Candidates actually scored (== number of lowerings/scorings).
    pub misses: u64,
    /// First-touch candidates served from an imported warm-start cache
    /// ([`Evaluator::import_warm_cache`]) instead of being scored. A cold
    /// run reports 0; every submission resolves to exactly one of `hits`,
    /// `misses` or `imported`.
    pub imported: u64,
    /// Warm-start promotions that were re-scored for validation (the
    /// first [`WARM_VALIDATION_SAMPLE`] of them) and matched the donor
    /// entry bit-for-bit. Always ≤ `imported`.
    pub validated: u64,
    /// Warm-start entries discarded after a validation drift: the
    /// drifting entry plus the whole un-promoted remainder of the import.
    /// Non-zero means the donor cache was condemned and the run fell back
    /// cold from that point on.
    pub rejected: u64,
    /// Batches evaluated.
    pub batches: u64,
    /// Total candidates submitted.
    pub submitted: u64,
}

/// How many leading warm-start promotions are re-scored against their own
/// promotion RNG stream before the rest of an import is trusted. Entries
/// from a same-fingerprint donor (or any stream-independent scorer, e.g.
/// predictor-mode scoring) reproduce exactly and pass; a mismatched donor
/// drifts, condemning the import and falling back cold.
pub const WARM_VALIDATION_SAMPLE: u64 = 2;

/// After the leading sample, every `WARM_VALIDATION_PERIOD`th promotion is
/// re-scored too, so drift that first appears deep inside a donor cache is
/// still caught (at ~1/16th of the scoring cost the import saves). The
/// schedule depends only on [`EvalStats::imported`], which rides in
/// checkpoints, so killed-and-resumed warm runs validate the exact same
/// promotions an uninterrupted one would.
pub const WARM_VALIDATION_PERIOD: u64 = 16;

/// Whether the promotion with `imported` predecessors gets re-scored.
fn validate_this_promotion(imported: u64) -> bool {
    imported < WARM_VALIDATION_SAMPLE || (imported + 1).is_multiple_of(WARM_VALIDATION_PERIOD)
}

/// How one submitted candidate resolves to a scored output.
enum Resolution {
    /// Served by the cross-batch cache: arena slot.
    Cached(usize),
    /// Resolves to an arena entry created this batch (a scoring job or a
    /// warm-cache promotion): index into the batch's new-entry list.
    /// `fresh` is true only for the genome's first occurrence this run;
    /// within-batch duplicates alias it with `fresh == false`.
    New { entry: usize, fresh: bool },
}

/// An arena entry created while resolving one batch, in first-touch
/// submission order — the same order a run without a warm cache would
/// append them in, so warm and cold runs build identical arenas.
enum NewEntry<G, O> {
    /// Promoted verbatim from the warm-start side cache.
    Promoted(G, O),
    /// Scored this batch: job index.
    Job(usize),
}

/// The batched candidate-evaluation engine. See the module docs.
pub struct Evaluator<G, S, R>
where
    G: Clone + Eq + Hash + Sync,
    S: CandidateScorer<G>,
    R: FnMut(&G, &S::Output, bool) -> f64,
{
    scorer: S,
    /// Sequential fold: `(genome, output, fresh) -> fitness`. `fresh` is
    /// `false` when the output came from the memo cache, so the caller can
    /// meter simulated search time for real work only.
    reduce: R,
    /// Total thread budget (EA workers × kernel threads).
    threads: usize,
    /// Base seed for per-candidate RNG streams.
    stream_seed: u64,
    /// Memo cache: candidate encoding -> arena slot.
    cache: HashMap<G, usize>,
    /// Scored outputs, append-only.
    arena: Vec<S::Output>,
    /// Warm-start side cache: imported entries not yet served this run, in
    /// import order (promotion takes the slot, leaving `None`).
    warm_entries: Vec<Option<(G, S::Output)>>,
    /// Genome -> `warm_entries` slot for the un-promoted imports.
    warm_index: HashMap<G, usize>,
    stats: EvalStats,
}

/// SplitMix64 finaliser: decorrelates per-candidate stream seeds.
fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<G, S, R> Evaluator<G, S, R>
where
    G: Clone + Eq + Hash + Sync,
    S: CandidateScorer<G>,
    S::Output: PartialEq,
    R: FnMut(&G, &S::Output, bool) -> f64,
{
    /// Creates an evaluator with a total thread budget of `threads`
    /// (clamped to ≥ 1). `stream_seed` roots every candidate's RNG stream.
    pub fn new(scorer: S, threads: usize, stream_seed: u64, reduce: R) -> Self {
        Evaluator {
            scorer,
            reduce,
            threads: threads.max(1),
            stream_seed,
            cache: HashMap::new(),
            arena: Vec::new(),
            warm_entries: Vec::new(),
            warm_index: HashMap::new(),
            stats: EvalStats::default(),
        }
    }

    /// Cache / scheduling counters so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The wrapped scorer.
    pub fn scorer(&self) -> &S {
        &self.scorer
    }

    /// Exports the memo cache in arena (first-scoring) order, paired with
    /// the stats counters. Together with [`Evaluator::import_state`] this
    /// checkpoints the evaluator: the stats travel along because
    /// [`EvalStats::submitted`] anchors per-candidate RNG stream ids, so a
    /// restored evaluator assigns future candidates the exact streams the
    /// interrupted one would have.
    pub fn export_state(&self) -> (EvalStats, Vec<(G, S::Output)>) {
        let mut by_slot: Vec<(&G, usize)> = self.cache.iter().map(|(g, &s)| (g, s)).collect();
        by_slot.sort_unstable_by_key(|&(_, slot)| slot);
        let entries = by_slot
            .into_iter()
            .map(|(g, slot)| (g.clone(), self.arena[slot].clone()))
            .collect();
        (self.stats, entries)
    }

    /// Restores a state captured by [`Evaluator::export_state`].
    ///
    /// # Panics
    ///
    /// Panics if this evaluator has already scored anything, or if the
    /// imported state is internally inconsistent (duplicate genomes, or
    /// more cache entries than recorded misses).
    pub fn import_state(&mut self, stats: EvalStats, entries: Vec<(G, S::Output)>) {
        assert!(
            self.stats.submitted == 0 && self.arena.is_empty(),
            "import_state requires a fresh evaluator"
        );
        assert!(
            entries.len() as u64 <= stats.misses + stats.imported,
            "imported cache holds more entries than recorded misses + promotions"
        );
        for (g, out) in entries {
            let prev = self.cache.insert(g, self.arena.len());
            assert!(prev.is_none(), "imported cache has duplicate genomes");
            self.arena.push(out);
        }
        self.stats = stats;
    }

    /// Imports a previous run's scored entries as a *warm-start* side
    /// cache. Entries are served verbatim on their genome's first
    /// submission this run (see the module docs, point 5); genomes already
    /// known — in the live cache or imported earlier — are skipped, so the
    /// call is idempotent and composes with [`Evaluator::import_state`].
    /// Once a validation drift has condemned an import
    /// ([`EvalStats::rejected`] > 0) further imports are ignored: the run
    /// committed to finishing cold, and a resumed run restoring that state
    /// stays cold too.
    pub fn import_warm_cache(&mut self, entries: Vec<(G, S::Output)>) {
        if self.stats.rejected > 0 {
            return;
        }
        for (g, out) in entries {
            if self.cache.contains_key(&g) || self.warm_index.contains_key(&g) {
                continue;
            }
            self.warm_index.insert(g.clone(), self.warm_entries.len());
            self.warm_entries.push(Some((g, out)));
        }
    }

    /// The warm-start entries not yet served this run, in import order —
    /// what a checkpoint persists so a resumed run keeps promoting (and
    /// counting) the exact imports the interrupted one would have.
    pub fn export_warm_cache(&self) -> Vec<(G, S::Output)> {
        self.warm_entries.iter().flatten().cloned().collect()
    }

    /// Scores a batch, returning each candidate's output in submission
    /// order. Results are bit-identical for any thread budget.
    pub fn evaluate_batch(&mut self, batch: &[G]) -> Vec<S::Output> {
        self.evaluate_batch_slots(batch)
            .into_iter()
            .map(|(slot, _)| self.arena[slot].clone())
            .collect()
    }

    /// Core pipeline: scores a batch and returns each candidate's arena
    /// slot plus freshness, in submission order, without cloning outputs.
    fn evaluate_batch_slots(&mut self, batch: &[G]) -> Vec<(usize, bool)> {
        // Stream ids are assigned by absolute submission index *before*
        // cache resolution, so neither cache state nor worker count can
        // shift a later candidate onto a different stream.
        let base = self.stats.submitted;
        self.stats.submitted += batch.len() as u64;
        self.stats.batches += 1;

        // Resolve against the cross-batch cache, promote warm-start
        // imports on first touch, and collapse within-batch duplicates
        // onto a single new entry.
        let mut jobs: Vec<(usize, u64)> = Vec::new(); // (batch idx, stream seed)
        let mut new_entries: Vec<NewEntry<G, S::Output>> = Vec::new();
        let mut first_in_batch: HashMap<&G, usize> = HashMap::new(); // genome -> new entry
        let mut resolutions: Vec<Resolution> = Vec::with_capacity(batch.len());
        for (i, g) in batch.iter().enumerate() {
            let r = if let Some(&slot) = self.cache.get(g) {
                self.stats.hits += 1;
                Resolution::Cached(slot)
            } else if let Some(&entry) = first_in_batch.get(g) {
                self.stats.hits += 1;
                Resolution::New {
                    entry,
                    fresh: false,
                }
            } else if let Some(w) = self.warm_index.remove(g) {
                // Promote an imported entry: served without scoring, but
                // it is this run's first touch of the genome, so the
                // reduce fold sees it as fresh (simulated search time is
                // charged exactly like a miss would charge it). The first
                // few promotions are validated by re-scoring on the
                // promotion's own stream — a same-fingerprint or
                // stream-independent donor reproduces exactly; drift
                // condemns the whole import and the run continues cold.
                let (genome, out) = self.warm_entries[w].take().expect("warm slot filled");
                let out = if validate_this_promotion(self.stats.imported) {
                    let mut rng = StdRng::seed_from_u64(mix(self.stream_seed, base + i as u64));
                    let scorer = &self.scorer;
                    let rescored =
                        with_kernel_threads(self.threads, || scorer.score(&genome, &mut rng));
                    if rescored == out {
                        self.stats.validated += 1;
                        self.stats.imported += 1;
                        out
                    } else {
                        // The drifting entry was re-scored anyway, so it
                        // is served as the miss it would have been; the
                        // rest of the import is discarded unserved.
                        let dropped: u64 = self.warm_entries.iter().flatten().count() as u64;
                        self.stats.rejected += 1 + dropped;
                        self.warm_entries.clear();
                        self.warm_index.clear();
                        self.stats.misses += 1;
                        rescored
                    }
                } else {
                    self.stats.imported += 1;
                    out
                };
                let entry = new_entries.len();
                new_entries.push(NewEntry::Promoted(genome, out));
                first_in_batch.insert(g, entry);
                Resolution::New { entry, fresh: true }
            } else {
                let job = jobs.len();
                jobs.push((i, mix(self.stream_seed, base + i as u64)));
                let entry = new_entries.len();
                new_entries.push(NewEntry::Job(job));
                first_in_batch.insert(g, entry);
                self.stats.misses += 1;
                Resolution::New { entry, fresh: true }
            };
            resolutions.push(r);
        }

        // Fan the jobs out: one job's output per item, each run under its
        // share of the budget (one run keeps it all for the kernels).
        let mut outputs: Vec<Option<S::Output>> = (0..jobs.len()).map(|_| None).collect();
        let scorer = &self.scorer;
        fan_out(&mut outputs, 1, self.threads, |first, run| {
            for ((i, stream), out) in jobs[first..].iter().zip(run) {
                let mut rng = StdRng::seed_from_u64(*stream);
                *out = Some(scorer.score(&batch[*i], &mut rng));
            }
        });

        // Commit new entries (scored jobs and warm promotions alike) to
        // the memo cache in first-touch submission order.
        let arena_base = self.arena.len();
        for entry in new_entries {
            let (g, out) = match entry {
                NewEntry::Promoted(g, out) => (g, out),
                NewEntry::Job(j) => (
                    batch[jobs[j].0].clone(),
                    outputs[j]
                        .take()
                        .expect("every job slot is filled by its run"),
                ),
            };
            self.cache.insert(g, self.arena.len());
            self.arena.push(out);
        }

        resolutions
            .into_iter()
            .map(|r| match r {
                Resolution::Cached(slot) => (slot, false),
                Resolution::New { entry, fresh } => (arena_base + entry, fresh),
            })
            .collect()
    }

    /// Scores a batch and folds each output through `reduce` in submission
    /// order, returning the fitness vector the EA consumes (this is also
    /// the [`crate::ea::GenerationEvaluator`] implementation). Outputs are
    /// read from the arena by reference — no per-candidate clones.
    pub fn evaluate_fitness(&mut self, batch: &[G]) -> Vec<f64> {
        let slots = self.evaluate_batch_slots(batch);
        let arena = &self.arena;
        let reduce = &mut self.reduce;
        slots
            .into_iter()
            .zip(batch)
            .map(|((slot, fresh), g)| reduce(g, &arena[slot], fresh))
            .collect()
    }
}

impl<G, S, R> crate::ea::GenerationEvaluator<G> for Evaluator<G, S, R>
where
    G: Clone + Eq + Hash + Sync,
    S: CandidateScorer<G>,
    S::Output: PartialEq,
    R: FnMut(&G, &S::Output, bool) -> f64,
{
    fn evaluate(&mut self, batch: &[G]) -> Vec<f64> {
        self.evaluate_fitness(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Scorer that counts invocations and returns a value derived from the
    /// genome and its RNG stream.
    struct CountingScorer {
        calls: AtomicU64,
    }

    impl CandidateScorer<u64> for CountingScorer {
        type Output = (u64, u64);

        fn score(&self, genome: &u64, rng: &mut StdRng) -> (u64, u64) {
            self.calls.fetch_add(1, Ordering::SeqCst);
            use rand::Rng;
            (*genome * 10, rng.gen::<u32>() as u64)
        }
    }

    fn run(threads: usize, batches: &[Vec<u64>]) -> (Vec<Vec<f64>>, EvalStats, u64) {
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut ev = Evaluator::new(scorer, threads, 42, |_, out: &(u64, u64), _| {
            (out.0 + out.1 % 7) as f64
        });
        let fits = batches.iter().map(|b| ev.evaluate_fitness(b)).collect();
        let stats = ev.stats();
        let calls = ev.scorer.calls.load(Ordering::SeqCst);
        (fits, stats, calls)
    }

    #[test]
    fn identical_results_across_thread_counts() {
        let batches = vec![vec![1, 2, 3, 4, 5, 6, 7, 8], vec![2, 9, 9, 10]];
        let (f1, s1, _) = run(1, &batches);
        let (f2, s2, _) = run(2, &batches);
        let (f8, s8, _) = run(8, &batches);
        assert_eq!(f1, f2);
        assert_eq!(f1, f8);
        assert_eq!(s1, s2);
        assert_eq!(s1, s8);
    }

    #[test]
    fn duplicates_are_scored_once() {
        let batches = vec![vec![5, 5, 5, 6], vec![5, 6, 7]];
        let (fits, stats, calls) = run(4, &batches);
        // 3 unique genomes -> 3 scorer calls, everything else cache hits.
        assert_eq!(calls, 3);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.submitted, 7);
        // A cached candidate returns the identical output.
        assert_eq!(fits[0][0], fits[0][1]);
        assert_eq!(fits[0][0], fits[1][0]);
    }

    #[test]
    fn streams_follow_submission_index_not_cache_state() {
        // Genome 9 sits at submission indices 1 and 2 of the second batch
        // in run A, but its score must come from its first-miss stream in
        // both runs; genome 10's stream is fixed by its index regardless of
        // what preceded it.
        let a = run(3, &[vec![1, 2], vec![9, 9, 10]]).0;
        let b = run(3, &[vec![1, 2], vec![9, 7, 10]]).0;
        // Same submission index, same genome -> same fitness.
        assert_eq!(a[1][0], b[1][0]);
        assert_eq!(a[1][2], b[1][2]);
    }

    #[test]
    fn kernel_budget_distributes_whole_thread_budget() {
        use std::sync::Mutex;

        /// Records the kernel budget its worker thread was handed.
        struct BudgetProbe {
            seen: Mutex<Vec<usize>>,
        }

        impl CandidateScorer<u64> for BudgetProbe {
            type Output = f64;

            fn score(&self, genome: &u64, _rng: &mut StdRng) -> f64 {
                self.seen
                    .lock()
                    .unwrap()
                    .push(hgnas_tensor::threads::kernel_threads());
                *genome as f64
            }
        }

        // 8-thread budget over 3 jobs -> 3 workers with budgets 3/3/2:
        // the remainder is spread, not dropped.
        let probe = BudgetProbe {
            seen: Mutex::new(Vec::new()),
        };
        let mut ev = Evaluator::new(probe, 8, 0, |_: &u64, f: &f64, _| *f);
        ev.evaluate_batch(&[1, 2, 3]);
        let mut budgets = ev.scorer().seen.lock().unwrap().clone();
        budgets.sort_unstable();
        assert_eq!(budgets, vec![2, 3, 3]);

        // One job -> one worker carrying the whole budget.
        let probe = BudgetProbe {
            seen: Mutex::new(Vec::new()),
        };
        let mut ev = Evaluator::new(probe, 8, 0, |_: &u64, f: &f64, _| *f);
        ev.evaluate_batch(&[9]);
        assert_eq!(*ev.scorer().seen.lock().unwrap(), vec![8]);

        // 13 jobs over an 8-thread budget: chunking yields 7 workers (one
        // per 2-job chunk, last chunk short), so the first worker takes
        // the spare thread — the budget must not shrink to 7.
        let probe = BudgetProbe {
            seen: Mutex::new(Vec::new()),
        };
        let mut ev = Evaluator::new(probe, 8, 0, |_: &u64, f: &f64, _| *f);
        let batch: Vec<u64> = (0..13).collect();
        ev.evaluate_batch(&batch);
        let mut budgets = ev.scorer().seen.lock().unwrap().clone();
        budgets.sort_unstable();
        // Worker budgets: one worker at 2 (two jobs -> two entries), six
        // workers at 1 (eleven entries across their jobs).
        assert_eq!(budgets, [vec![1; 11], vec![2; 2]].concat());
    }

    #[test]
    fn export_import_resumes_streams_and_cache() {
        // Reference: one evaluator sees both batches.
        let batches = vec![vec![1u64, 2, 3, 2], vec![3, 4, 5, 1]];
        let (full, full_stats, _) = run(2, &batches);

        // Checkpointed: export after batch 1, import into a fresh
        // evaluator, submit batch 2.
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut a = Evaluator::new(scorer, 2, 42, |_, out: &(u64, u64), _| {
            (out.0 + out.1 % 7) as f64
        });
        a.evaluate_fitness(&batches[0]);
        let (stats, entries) = a.export_state();
        drop(a);

        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut b = Evaluator::new(scorer, 2, 42, |_, out: &(u64, u64), _| {
            (out.0 + out.1 % 7) as f64
        });
        b.import_state(stats, entries);
        let resumed = b.evaluate_fitness(&batches[1]);
        assert_eq!(resumed, full[1]);
        // Cached genomes (3, 1) were not re-scored after import.
        assert_eq!(b.scorer().calls.load(Ordering::SeqCst), 2);
        let s = b.stats();
        assert_eq!(s.submitted, full_stats.submitted);
        assert_eq!(s.hits, full_stats.hits);
        assert_eq!(s.misses, full_stats.misses);
    }

    #[test]
    fn warm_cache_serves_first_touch_without_scoring() {
        // Reference cold run over two batches.
        let batches = vec![vec![1u64, 2, 2, 3], vec![3, 4, 1]];
        let (cold_fits, cold_stats, cold_calls) = run(2, &batches);
        assert_eq!(cold_calls, 4);

        // A donor run scores genomes 1, 2, 4 (same stream seed, so its
        // outputs match what the cold run computed for them at their own
        // submission indices — here genome values are stream-dependent,
        // so donate from an identical run to model the same-fingerprint
        // contract).
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut donor = Evaluator::new(scorer, 2, 42, |_, out: &(u64, u64), _| {
            (out.0 + out.1 % 7) as f64
        });
        donor.evaluate_fitness(&batches[0]);
        donor.evaluate_fitness(&batches[1]);
        let (_, donated) = donor.export_state();
        drop(donor);

        // Warm run: identical submissions, zero scorer calls.
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut warm = Evaluator::new(scorer, 2, 42, |_, out: &(u64, u64), _| {
            (out.0 + out.1 % 7) as f64
        });
        warm.import_warm_cache(donated);
        let warm_fits: Vec<Vec<f64>> = batches.iter().map(|b| warm.evaluate_fitness(b)).collect();
        assert_eq!(warm_fits, cold_fits);
        // The only scorer calls are the validation re-scores of the first
        // promotions — which matched, so nothing fell back to a miss.
        assert_eq!(
            warm.scorer().calls.load(Ordering::SeqCst),
            WARM_VALIDATION_SAMPLE
        );
        let s = warm.stats();
        assert_eq!(s.imported, 4, "one promotion per unique genome");
        assert_eq!(s.validated, WARM_VALIDATION_SAMPLE);
        assert_eq!(s.rejected, 0);
        assert_eq!(s.misses, 0);
        assert_eq!(s.hits, cold_stats.hits, "hit counting is unchanged");
        assert_eq!(s.submitted, cold_stats.submitted);
        assert_eq!(
            s.misses + s.imported,
            cold_stats.misses + cold_stats.imported
        );

        // The arenas match entry-for-entry in first-touch order.
        let (_, warm_entries) = warm.export_state();
        assert_eq!(warm_entries.len(), 4);
        assert!(warm.export_warm_cache().is_empty(), "all imports promoted");
    }

    #[test]
    fn partial_warm_cache_mixes_promotions_and_scoring() {
        let batches = vec![vec![7u64, 8, 9]];
        let (cold_fits, ..) = run(1, &batches);

        // Donate only genome 8's entry (scored at its cold submission
        // index so the value matches).
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut donor = Evaluator::new(scorer, 1, 42, |_, out: &(u64, u64), _| {
            (out.0 + out.1 % 7) as f64
        });
        donor.evaluate_fitness(&batches[0]);
        let (_, entries) = donor.export_state();
        let donated: Vec<_> = entries.into_iter().filter(|(g, _)| *g == 8).collect();
        drop(donor);

        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut warm = Evaluator::new(scorer, 1, 42, |_, out: &(u64, u64), _| {
            (out.0 + out.1 % 7) as f64
        });
        warm.import_warm_cache(donated);
        let fits = warm.evaluate_fitness(&batches[0]);
        assert_eq!(fits, cold_fits[0]);
        // Two genuine misses plus one validation re-score of the promotion.
        assert_eq!(warm.scorer().calls.load(Ordering::SeqCst), 3);
        let s = warm.stats();
        assert_eq!((s.misses, s.imported, s.hits), (2, 1, 0));
        assert_eq!((s.validated, s.rejected), (1, 0));
    }

    #[test]
    fn warm_import_is_idempotent_and_skips_known_genomes() {
        // A genuine donor (same stream seed, same submission sequence) so
        // the validated promotion reproduces exactly.
        let reduce = |_: &u64, out: &(u64, u64), _: bool| out.0 as f64;
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut donor = Evaluator::new(scorer, 1, 9, reduce);
        donor.evaluate_fitness(&[5]);
        donor.evaluate_fitness(&[5, 6]);
        let (_, donated) = donor.export_state();
        drop(donor);

        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut ev = Evaluator::new(scorer, 1, 9, reduce);
        ev.evaluate_fitness(&[5]);
        // Genome 5 is already live; genome 6 imported twice collapses to
        // one pending warm entry.
        ev.import_warm_cache(donated.clone());
        ev.import_warm_cache(donated);
        assert_eq!(ev.export_warm_cache().len(), 1);
        ev.evaluate_fitness(&[5, 6]);
        let s = ev.stats();
        assert_eq!((s.misses, s.imported, s.hits), (1, 1, 1));
        assert_eq!((s.validated, s.rejected), (1, 0));
    }

    #[test]
    fn export_import_round_trips_warm_remainder() {
        // A warm evaluator interrupted mid-run: the un-promoted imports
        // travel via export_warm_cache and keep counting as `imported`
        // (and `validated`) after the resume. The donor runs the same
        // submission sequence so validation reproduces its entries.
        let reduce = |_: &u64, out: &(u64, u64), _: bool| (out.0 + out.1 % 7) as f64;
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut donor = Evaluator::new(scorer, 1, 42, reduce);
        donor.evaluate_fitness(&[1, 3]);
        donor.evaluate_fitness(&[2, 1]);
        let (_, entries) = donor.export_state();
        let donated: Vec<_> = entries.into_iter().filter(|(g, _)| *g != 3).collect();
        drop(donor);

        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut a = Evaluator::new(scorer, 1, 42, reduce);
        a.import_warm_cache(donated);
        a.evaluate_fitness(&[1, 3]); // promotes 1 (validated), scores 3
        let (stats, entries) = a.export_state();
        assert_eq!(stats.validated, 1);
        let warm_rest = a.export_warm_cache();
        assert_eq!(warm_rest.len(), 1, "genome 2 still pending");
        drop(a);

        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut b = Evaluator::new(scorer, 1, 42, reduce);
        b.import_state(stats, entries);
        b.import_warm_cache(warm_rest);
        b.evaluate_fitness(&[2, 1]); // promotes 2 (validated), hits 1
        let s = b.stats();
        assert_eq!((s.misses, s.imported, s.hits), (1, 2, 1));
        assert_eq!((s.validated, s.rejected), (2, 0));
        // The resumed evaluator's only scorer call is the validation
        // re-score of genome 2's promotion.
        assert_eq!(b.scorer().calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn drifting_import_is_rejected_and_falls_back_cold() {
        let reduce = |_: &u64, out: &(u64, u64), _: bool| (out.0 + out.1 % 7) as f64;
        let batches = vec![vec![1u64, 2], vec![3, 1]];
        let (cold_fits, cold_stats, _) = run(2, &batches);

        // A genuine donor, with one entry's output tampered (a cross-seed
        // or measured-mode transfer would drift the same way).
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut donor = Evaluator::new(scorer, 2, 42, reduce);
        for b in &batches {
            donor.evaluate_fitness(b);
        }
        let (_, mut donated) = donor.export_state();
        drop(donor);
        donated[0].1 .1 ^= 1; // poison the first entry's stream-dependent half

        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut warm = Evaluator::new(scorer, 2, 42, reduce);
        warm.import_warm_cache(donated.clone());
        let warm_fits: Vec<Vec<f64>> = batches.iter().map(|b| warm.evaluate_fitness(b)).collect();
        // Results are bit-identical to cold anyway: the drifting entry was
        // served as its freshly scored self and the rest scored normally.
        assert_eq!(warm_fits, cold_fits);
        let s = warm.stats();
        assert_eq!(s.imported, 0, "no poisoned entry was served verbatim");
        assert_eq!(s.rejected, donated.len() as u64, "whole import condemned");
        assert_eq!(s.misses, cold_stats.misses);
        assert_eq!(s.hits, cold_stats.hits);
        assert!(warm.export_warm_cache().is_empty());

        // Post-rejection imports are ignored: the run committed to cold.
        warm.import_warm_cache(donated);
        assert!(warm.export_warm_cache().is_empty());
    }

    #[test]
    fn periodic_validation_catches_drift_deep_in_the_import() {
        // 20 single-genome batches: promotions land at imported counts
        // 0..19, so the periodic re-score fires at count 15 (the 16th
        // promotion). Poison exactly that entry: the leading sample
        // passes, the periodic check catches the drift, and the remainder
        // is discarded.
        let reduce = |_: &u64, out: &(u64, u64), _: bool| (out.0 + out.1 % 7) as f64;
        let batches: Vec<Vec<u64>> = (0..20u64).map(|g| vec![g]).collect();
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut donor = Evaluator::new(scorer, 1, 7, reduce);
        let cold_fits: Vec<Vec<f64>> = batches.iter().map(|b| donor.evaluate_fitness(b)).collect();
        let (_, mut donated) = donor.export_state();
        drop(donor);
        donated[15].1 .1 ^= 1;

        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut warm = Evaluator::new(scorer, 1, 7, reduce);
        warm.import_warm_cache(donated);
        let warm_fits: Vec<Vec<f64>> = batches.iter().map(|b| warm.evaluate_fitness(b)).collect();
        assert_eq!(warm_fits, cold_fits, "results stayed bit-identical");
        let s = warm.stats();
        assert_eq!(s.imported, 15, "promotions up to the drift were served");
        assert_eq!(s.validated, WARM_VALIDATION_SAMPLE, "leading sample passed");
        assert_eq!(s.rejected, 5, "the drifting entry and the remainder");
        assert_eq!(s.misses, 5);
    }

    #[test]
    #[should_panic(expected = "fresh evaluator")]
    fn import_into_used_evaluator_rejected() {
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut ev = Evaluator::new(scorer, 1, 0, |_, out: &(u64, u64), _| out.0 as f64);
        ev.evaluate_fitness(&[1]);
        let (stats, entries) = ev.export_state();
        ev.import_state(stats, entries);
    }

    #[test]
    fn reduce_runs_in_submission_order() {
        let scorer = CountingScorer {
            calls: AtomicU64::new(0),
        };
        let mut order = Vec::new();
        let mut ev = Evaluator::new(scorer, 8, 1, |g: &u64, _: &(u64, u64), fresh| {
            order.push((*g, fresh));
            0.0
        });
        ev.evaluate_fitness(&[3, 1, 3, 2]);
        drop(ev);
        assert_eq!(order, vec![(3, true), (1, true), (3, false), (2, true)]);
    }
}
