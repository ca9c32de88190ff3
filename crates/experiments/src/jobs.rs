//! The worker pool behind the sweep engine: `ARMBAR_JOBS` scoped threads
//! claiming jobs off one shared queue.
//!
//! Jobs are independent closures, milliseconds each, and nothing ever
//! spawns a job from inside a job — so there is no local queue to steal
//! from and one mutex-guarded iterator is the whole hand-off. Results come
//! back in submission order, so callers observe exactly what a serial loop
//! would have produced. `ARMBAR_JOBS=1` (or a single job) bypasses the
//! pool entirely and runs the jobs inline on the calling thread.

use std::sync::Mutex;

/// Number of sweep workers: `ARMBAR_JOBS` when set to a positive integer,
/// otherwise the number of available cores — with one stderr line when the
/// variable held something else, so a typo cannot pass for a setting.
#[must_use]
pub fn worker_count() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let (workers, rejected) = resolve_jobs(std::env::var("ARMBAR_JOBS").ok().as_deref(), cores);
    if let Some(warning) = rejected {
        eprintln!("{warning}");
    }
    workers
}

/// `ARMBAR_JOBS` resolution, separated from the environment for
/// testability: the worker count for `var` on a host with `cores` cores
/// (a positive integer wins; unset or empty falls back to `cores`), plus
/// the warning to print when `var` was set to anything else (`0`, `-3`,
/// `abc`) and the fallback was taken.
#[must_use]
pub fn resolve_jobs(var: Option<&str>, cores: usize) -> (usize, Option<String>) {
    let Some(value) = var.map(str::trim).filter(|v| !v.is_empty()) else {
        return (cores, None);
    };
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => (n, None),
        _ => (
            cores,
            Some(format!(
                "warning: ARMBAR_JOBS={value:?} is not a positive integer; using {cores} worker(s)"
            )),
        ),
    }
}

/// Run every job and return their results in submission order.
///
/// With `workers <= 1` or fewer than two jobs this is a plain serial loop.
/// Otherwise `workers` (capped at the job count) scoped threads claim jobs
/// from the front of a shared queue until it is empty; each hands back the
/// `(submission index, result)` pairs it produced through its join handle.
///
/// # Panics
///
/// Propagates the panic of a job (the first one in worker order), after
/// every worker has stopped.
pub fn run_jobs<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if workers <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let worker_n = workers.min(jobs.len());
    let queue = Mutex::new(jobs.into_iter().enumerate());
    // A worker never holds the lock while it runs a job, so a panicking
    // job cannot poison the queue for the others.
    let claim = || queue.lock().expect("job queue poisoned").next();
    let drain = || {
        let mut done = Vec::new();
        while let Some((ix, job)) = claim() {
            done.push((ix, job()));
        }
        done
    };
    let mut done: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..worker_n).map(|_| scope.spawn(drain)).collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    done.sort_unstable_by_key(|&(ix, _)| ix);
    done.into_iter().map(|(_, out)| out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jobs_var_resolution() {
        assert_eq!(resolve_jobs(None, 6), (6, None));
        assert_eq!(resolve_jobs(Some(""), 6), (6, None));
        assert_eq!(resolve_jobs(Some("1"), 6), (1, None));
        assert_eq!(resolve_jobs(Some(" 8 "), 6), (8, None));
    }

    #[test]
    fn rejected_jobs_value_falls_back_and_is_named() {
        for garbage in ["0", "-3", "banana"] {
            let (workers, warning) = resolve_jobs(Some(garbage), 6);
            assert_eq!(workers, 6, "{garbage}: fallback is the core count");
            let warning = warning.expect("a rejected value must be reported");
            assert!(warning.contains(garbage), "{warning}");
            assert!(warning.contains("6 worker(s)"), "{warning}");
            assert_eq!(warning.lines().count(), 1, "one line: {warning}");
        }
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let jobs: Vec<_> = (0..64u64).map(|i| move || i * i).collect();
        let serial = run_jobs(jobs, 1);
        let jobs: Vec<_> = (0..64u64).map(|i| move || i * i).collect();
        let parallel = run_jobs(jobs, 4);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 49);
    }

    #[test]
    fn pool_handles_more_workers_than_jobs() {
        let jobs: Vec<_> = (0..2u64).map(|i| move || i + 1).collect();
        assert_eq!(run_jobs(jobs, 16), vec![1, 2]);
    }

    #[test]
    fn empty_and_single_job_lists() {
        let none: Vec<fn() -> u8> = Vec::new();
        assert!(run_jobs(none, 4).is_empty());
        assert_eq!(run_jobs(vec![|| 9u8], 4), vec![9]);
    }

    #[test]
    fn a_panicking_job_propagates_out_of_the_pool() {
        let jobs: Vec<_> = (0..16u32)
            .map(|i| move || assert_ne!(i, 11, "job eleven gives up"))
            .collect();
        let caught = std::panic::catch_unwind(|| run_jobs(jobs, 4)).expect_err("must unwind");
        let message = caught
            .downcast_ref::<String>()
            .expect("the job's own payload");
        assert!(message.contains("job eleven gives up"), "{message}");
    }

    #[test]
    fn a_thousand_small_jobs_on_eight_workers_each_run_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let runs: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let jobs: Vec<_> = runs
            .iter()
            .enumerate()
            .map(|(i, count)| {
                move || {
                    let until = std::time::Instant::now() + std::time::Duration::from_micros(1);
                    while std::time::Instant::now() < until {
                        std::hint::spin_loop();
                    }
                    count.fetch_add(1, Ordering::Relaxed);
                    i
                }
            })
            .collect();
        assert_eq!(run_jobs(jobs, 8), (0..1000).collect::<Vec<_>>());
        assert!(runs.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}
