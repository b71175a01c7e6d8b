//! Kernel thread budgets, and the one fan-out that puts work on threads.
//!
//! Two levels of parallelism coexist in the search: the candidate evaluator
//! and the predictor's mini-batches fan items out across threads, and the
//! matmul kernels split output rows across threads. If both claim the
//! whole machine they oversubscribe, so the budget is a thread-local the
//! coordinator sets explicitly, and each level hands the next its
//! [`share`] of it. [`fan_out`] is the one place those levels start
//! threads; the fleet engine splits its budget over its workers with the
//! same [`share`].
//!
//! The budget only selects *how many* threads run; each item is computed
//! by the same code whichever thread runs it, so the budget never changes
//! numeric results.

use std::cell::Cell;

thread_local! {
    static KERNEL_BUDGET: Cell<usize> = const { Cell::new(1) };
}

/// The current thread's kernel budget (threads `Tensor::matmul` may use).
/// Defaults to 1: kernel parallelism is opt-in via [`with_kernel_threads`].
pub fn kernel_threads() -> usize {
    KERNEL_BUDGET.with(|b| b.get())
}

/// Runs `f` with the kernel budget set to `max(n, 1)`, restoring the
/// previous budget afterwards (also on unwind).
pub fn with_kernel_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            KERNEL_BUDGET.with(|b| b.set(self.0));
        }
    }
    let prev = KERNEL_BUDGET.with(|b| b.replace(n.max(1)));
    let _restore = Restore(prev);
    f()
}

/// Part `i` of `total` split over `parts`: `total / parts`, plus one for
/// each of the first `total % parts` parts, so the parts sum to `total`
/// and differ by at most one.
///
/// # Panics
///
/// Panics if `parts == 0`.
pub fn share(total: usize, parts: usize, i: usize) -> usize {
    total / parts + usize::from(i < total % parts)
}

/// Runs `f(first, run)` over `out` cut into contiguous runs of whole items
/// of `unit` elements each; `first` is the index of the run's first item.
///
/// Each run holds `⌈items / threads⌉` items (the last one may hold fewer),
/// so there are at most `threads` runs and no fewer than that run length
/// needs. The first run goes on the calling thread and every other one on
/// a scoped thread of its own, each under its [`share`] of `threads` as
/// its kernel budget. One run spawns nothing and keeps the whole budget.
///
/// # Panics
///
/// Panics if `unit == 0` or `out.len()` is not a multiple of `unit`, and
/// re-raises the first panic of any run.
pub fn fan_out<T: Send>(
    out: &mut [T],
    unit: usize,
    threads: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    assert!(
        unit > 0 && out.len().is_multiple_of(unit),
        "fan_out needs whole items of {unit} elements, got {}",
        out.len()
    );
    let threads = threads.max(1);
    let items = out.len() / unit;
    let per = items.div_ceil(threads).max(1);
    let runs = items.div_ceil(per).max(1);
    if runs == 1 {
        return with_kernel_threads(threads, || f(0, out));
    }
    let f = &f;
    let mut chunks = out.chunks_mut(per * unit);
    let head = chunks.next().expect("two or more runs");
    std::thread::scope(|s| {
        let handles: Vec<_> = (1..runs)
            .zip(chunks)
            .map(|(r, run)| {
                let budget = share(threads, runs, r);
                s.spawn(move || with_kernel_threads(budget, || f(r * per, run)))
            })
            .collect();
        with_kernel_threads(share(threads, runs, 0), || f(0, head));
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_budget_is_one() {
        assert_eq!(kernel_threads(), 1);
    }

    #[test]
    fn budget_scopes_and_restores() {
        with_kernel_threads(4, || {
            assert_eq!(kernel_threads(), 4);
            with_kernel_threads(2, || assert_eq!(kernel_threads(), 2));
            assert_eq!(kernel_threads(), 4);
        });
        assert_eq!(kernel_threads(), 1);
    }

    #[test]
    fn zero_clamps_to_one() {
        with_kernel_threads(0, || assert_eq!(kernel_threads(), 1));
    }

    #[test]
    fn budget_is_per_thread() {
        with_kernel_threads(8, || {
            std::thread::scope(|s| {
                s.spawn(|| assert_eq!(kernel_threads(), 1));
            });
            assert_eq!(kernel_threads(), 8);
        });
    }

    #[test]
    fn restores_on_panic() {
        let caught = std::panic::catch_unwind(|| {
            with_kernel_threads(6, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert_eq!(kernel_threads(), 1);
    }

    #[test]
    fn shares_sum_to_the_total_and_differ_by_at_most_one() {
        for total in 0..40 {
            for parts in 1..12 {
                let shares: Vec<usize> = (0..parts).map(|i| share(total, parts, i)).collect();
                assert_eq!(shares.iter().sum::<usize>(), total, "{total} over {parts}");
                let (lo, hi) = (shares.iter().min().unwrap(), shares.iter().max().unwrap());
                assert!(hi - lo <= 1, "{total} over {parts}: {shares:?}");
                assert!(shares.is_sorted_by(|a, b| a >= b), "extras go first");
            }
        }
    }

    #[test]
    fn fan_out_visits_every_item_once_with_its_index() {
        for threads in [1, 2, 3, 4, 7] {
            for len in [0, 1, threads - 1, threads, 3 * threads + 1] {
                for unit in [1, 3] {
                    let mut out = vec![0usize; len * unit];
                    fan_out(&mut out, unit, threads, |first, run| {
                        assert_eq!(run.len() % unit, 0, "a run holds whole items");
                        for (j, item) in run.chunks_exact_mut(unit).enumerate() {
                            for v in item {
                                *v += first + j + 1;
                            }
                        }
                    });
                    let want: Vec<usize> =
                        (0..len).flat_map(|i| [i + 1; 3][..unit].to_vec()).collect();
                    assert_eq!(out, want, "threads {threads}, len {len}, unit {unit}");
                }
            }
        }
    }

    #[test]
    fn fan_out_runs_each_run_under_its_share_of_the_budget() {
        // 8 threads over 3 items: 3 runs with budgets 3, 3 and 2. 13 items:
        // runs of 2, so 7 runs, and the first takes the spare thread.
        for (threads, items, want) in [
            (8, 3, vec![3, 3, 2]),
            (8, 13, vec![2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1]),
            (2, 1024, vec![1; 1024]),
        ] {
            let mut seen = vec![0; items];
            fan_out(&mut seen, 1, threads, |_, run| run.fill(kernel_threads()));
            assert_eq!(seen, want, "{threads} threads over {items} items");
        }
    }

    #[test]
    fn one_run_spawns_nothing_and_keeps_the_whole_budget() {
        let caller = std::thread::current().id();
        for (threads, items) in [(1, 5), (4, 1), (6, 0)] {
            let calls = std::sync::atomic::AtomicUsize::new(0);
            let mut out = vec![0u8; items];
            fan_out(&mut out, 1, threads, |first, run| {
                assert_eq!(std::thread::current().id(), caller);
                assert_eq!(kernel_threads(), threads);
                assert_eq!((first, run.len()), (0, items));
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
            assert_eq!(calls.into_inner(), 1);
        }
        assert_eq!(kernel_threads(), 1, "the budget is restored");
    }

    #[test]
    fn a_panic_in_any_run_reaches_the_caller() {
        let threads = 4;
        for bad in 0..threads {
            let mut out = vec![0u8; 4 * threads];
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                fan_out(&mut out, 1, threads, |first, _| {
                    if first == bad * 4 {
                        panic!("run {bad} failed");
                    }
                });
            }));
            let payload = caught.expect_err("the panic reaches the caller");
            let msg = payload
                .downcast_ref::<String>()
                .expect("the run's own payload");
            assert_eq!(msg, &format!("run {bad} failed"));
            assert_eq!(kernel_threads(), 1);
        }
    }
}
