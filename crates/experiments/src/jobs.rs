//! The worker pool behind the sweep engine: a crossbeam work-stealing
//! deque per worker fed from a shared injector, sized by `ARMBAR_JOBS`.
//!
//! Jobs are independent closures; results come back in submission order,
//! so callers observe exactly what a serial loop would have produced.
//! `ARMBAR_JOBS=1` (or a single job) bypasses the pool entirely and runs
//! the jobs inline on the calling thread — the old serial path.

use std::sync::Mutex;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};

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
/// Otherwise `workers` (capped at the job count) scoped threads drain a
/// shared [`Injector`], falling back to stealing from each other's local
/// deques, and park each result in its submission slot.
///
/// # Panics
///
/// Propagates panics from the jobs themselves (the scope unwinds).
pub fn run_jobs<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    if workers <= 1 || jobs.len() <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let injector: Injector<(usize, F)> = Injector::new();
    let worker_n = workers.min(jobs.len());
    for pair in jobs.into_iter().enumerate() {
        injector.push(pair);
    }
    let locals: Vec<Worker<(usize, F)>> = (0..worker_n).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<(usize, F)>> = locals.iter().map(Worker::stealer).collect();
    std::thread::scope(|scope| {
        for (me, local) in locals.iter().enumerate() {
            let (injector, stealers, slots) = (&injector, &stealers, &slots);
            scope.spawn(move || {
                while let Some((ix, job)) = find_task(local, injector, stealers, me) {
                    let out = job();
                    *slots[ix].lock().expect("result slot poisoned") = Some(out);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every job ran")
        })
        .collect()
}

/// Local deque first, then the shared injector, then the other workers.
fn find_task<T>(
    local: &Worker<T>,
    injector: &Injector<T>,
    stealers: &[Stealer<T>],
    me: usize,
) -> Option<T> {
    if let Some(task) = local.pop() {
        return Some(task);
    }
    loop {
        match injector.steal() {
            Steal::Success(task) => return Some(task),
            Steal::Retry => continue,
            Steal::Empty => break,
        }
    }
    for (other, stealer) in stealers.iter().enumerate() {
        if other == me {
            continue;
        }
        loop {
            match stealer.steal() {
                Steal::Success(task) => return Some(task),
                Steal::Retry => continue,
                Steal::Empty => break,
            }
        }
    }
    None
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
}
