//! The sweep engine: experiments declare their configuration grid as data
//! and the engine decides how to execute it.
//!
//! A [`SweepSpec`] is an ordered list of *cells*; each cell pairs a
//! content-addressed cache key with a closure producing that cell's CSV
//! row values. [`SweepSpec::run`] answers the whole sweep from the
//! [`RunCache`] when it can; otherwise it executes every cell on the
//! [`jobs`] worker pool and stores the sweep — results land
//! in declaration order, so the produced tables are byte-identical whether
//! the sweep ran serially, on eight workers, or straight out of the cache.

use std::sync::atomic::{AtomicU64, Ordering};

use armbar_sim::Platform;

use crate::cache::{platform_key, unpack_text, RunCache};
use crate::jobs;
use crate::report::{write_if_changed, RESULTS_DIR};

/// Handle to one declared cell, used to read its values after the run.
#[derive(Debug, Clone, Copy)]
pub struct CellId(usize);

/// An experiment's configuration grid, declared as data.
pub struct SweepSpec {
    label: String,
    /// One cache key per cell, naming the computation in `runs`.
    keys: Vec<String>,
    runs: Vec<Box<dyn FnOnce() -> Vec<f64> + Send>>,
    /// The platform [`SweepSpec::key`] last rendered, and its rendering.
    last_platform: Option<(Platform, String)>,
}

impl SweepSpec {
    /// An empty grid; `label` names the experiment in panic messages.
    #[must_use]
    pub fn new(label: &str) -> SweepSpec {
        SweepSpec {
            label: label.to_string(),
            keys: Vec::new(),
            runs: Vec::new(),
            last_platform: None,
        }
    }

    /// [`cache_key`](crate::cache::cache_key)`(platform, config)`, byte for
    /// byte, rendering the platform once per run of cells on equal ones.
    pub fn key(&mut self, platform: &Platform, config: &impl std::fmt::Debug) -> String {
        platform_key(&mut self.last_platform, platform, config)
    }

    /// Declare one cell. `key` must name the computation completely (see
    /// [`cache_key`](crate::cache::cache_key)); `run` produces the cell's
    /// values and must be deterministic for caching and worker-count
    /// independence to hold.
    pub fn cell(&mut self, key: String, run: impl FnOnce() -> Vec<f64> + Send + 'static) -> CellId {
        self.keys.push(key);
        self.runs.push(Box::new(run));
        CellId(self.keys.len() - 1)
    }

    /// Number of declared cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether no cells were declared.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Execute the grid under `ctx`: one cache lookup for the whole sweep,
    /// or else every cell on the worker pool and one store; results land
    /// in declaration order regardless of completion order.
    #[must_use]
    pub fn run(self, ctx: &SweepCtx) -> SweepResults {
        let values = ctx.cache.lookup_sweep(&self.keys).unwrap_or_else(|| {
            let computed = jobs::run_jobs(self.runs, ctx.workers);
            ctx.cache.store_sweep(&self.keys, &computed);
            computed
        });
        SweepResults {
            label: self.label,
            values,
        }
    }
}

/// How a sweep executes: worker count plus the run cache.
#[derive(Debug)]
pub struct SweepCtx {
    /// Worker threads for cache misses; `1` is the serial path.
    pub workers: usize,
    /// Completed-run memoization.
    pub cache: RunCache,
    /// Failed [`SweepCtx::write_side_csv`] calls.
    unwritten: AtomicU64,
}

impl SweepCtx {
    /// Explicit worker count and cache.
    #[must_use]
    pub fn new(workers: usize, cache: RunCache) -> SweepCtx {
        SweepCtx {
            workers,
            cache,
            unwritten: AtomicU64::new(0),
        }
    }

    /// The binaries' context: `ARMBAR_JOBS` workers (default: available
    /// cores) and the `results/.cache` store unless `ARMBAR_NO_CACHE=1`.
    #[must_use]
    pub fn from_env() -> SweepCtx {
        SweepCtx::new(jobs::worker_count(), RunCache::from_env())
    }

    /// One worker, no cache — the reference configuration for tests.
    #[must_use]
    pub fn serial_uncached() -> SweepCtx {
        SweepCtx::new(1, RunCache::disabled())
    }

    /// Write `text` as `results/<file>`: the CSVs of `lint`, `synth` and
    /// `extract`, whose string columns do not fit a [`Table`](crate::Table),
    /// left alone when they already hold `text` as [`Table::write_csv`](crate::Table::write_csv) does.
    /// Experiments return tables, not `Result`s, so a failure is reported
    /// on stderr and counted; `armbar` exits 1 on a non-zero
    /// [`SweepCtx::unwritten`] rather than let a stale file pass for fresh.
    pub fn write_side_csv(&self, file: &str, text: &str) {
        let path = std::path::Path::new(RESULTS_DIR).join(file);
        if let Err(e) = write_if_changed(&path, text) {
            eprintln!("error: could not write {}: {e}", path.display());
            self.unwritten.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// How many [`SweepCtx::write_side_csv`] calls failed so far.
    #[must_use]
    pub fn unwritten(&self) -> u64 {
        self.unwritten.load(Ordering::Relaxed)
    }
}

/// Per-cell values of a completed sweep, in declaration order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResults {
    label: String,
    values: Vec<Vec<f64>>,
}

impl SweepResults {
    /// The values `cell` produced.
    #[must_use]
    pub fn get(&self, cell: CellId) -> &[f64] {
        &self.values[cell.0]
    }

    /// The single value of a one-value cell.
    ///
    /// # Panics
    ///
    /// Panics when the cell produced more or fewer than one value.
    #[must_use]
    pub fn scalar(&self, cell: CellId) -> f64 {
        let vals = self.get(cell);
        assert_eq!(
            vals.len(),
            1,
            "cell in sweep '{}' is not scalar",
            self.label
        );
        vals[0]
    }

    /// All values, in declaration order.
    #[must_use]
    pub fn into_values(self) -> Vec<Vec<f64>> {
        self.values
    }

    /// The numbers of the text cells `cells` (see
    /// [`pack_text`](crate::cache::pack_text)), each led by `head` of them,
    /// in the order given — their text appended to `csv`.
    ///
    /// # Panics
    ///
    /// Panics on a cell that does not hold text behind `head` numbers.
    pub(crate) fn text_cells(
        &self,
        cells: &[CellId],
        head: usize,
        csv: &mut String,
    ) -> Vec<Vec<f64>> {
        cells
            .iter()
            .map(|&id| {
                let (numbers, text) = unpack_text(self.get(id), head);
                csv.push_str(&text);
                numbers.to_vec()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_spec(n: usize) -> (SweepSpec, Vec<CellId>) {
        let mut spec = SweepSpec::new("squares");
        let ids = (0..n)
            .map(|i| spec.cell(format!("squares|{i}"), move || vec![(i * i) as f64]))
            .collect();
        (spec, ids)
    }

    #[test]
    fn serial_and_parallel_runs_agree() {
        let (spec, ids) = square_spec(40);
        let serial = spec.run(&SweepCtx::serial_uncached());
        let (spec, _) = square_spec(40);
        let parallel = spec.run(&SweepCtx::new(4, RunCache::disabled()));
        assert_eq!(serial.values, parallel.values);
        assert_eq!(serial.scalar(ids[6]), 36.0);
    }

    #[test]
    fn warm_cache_skips_every_cell() {
        let dir = std::env::temp_dir().join(format!("armbar_sweep_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (spec, _) = square_spec(10);
        let cold_ctx = SweepCtx::new(2, RunCache::at(&dir));
        let cold = spec.run(&cold_ctx);
        assert_eq!(cold_ctx.cache.hits(), 0);
        assert_eq!(cold_ctx.cache.stores(), 10);
        // One file holds the whole sweep.
        assert_eq!(std::fs::read_dir(&dir).map(Iterator::count).ok(), Some(1));

        let (spec, ids) = square_spec(10);
        let warm_ctx = SweepCtx::new(2, RunCache::at(&dir));
        let warm = spec.run(&warm_ctx);
        assert_eq!(warm_ctx.cache.hits(), 10);
        assert_eq!(warm_ctx.cache.misses(), 0);
        assert_eq!(cold.values, warm.values);
        assert_eq!(warm.get(ids[3]), &[9.0]);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let spec = SweepSpec::new("empty");
        assert!(spec.is_empty());
        let r = spec.run(&SweepCtx::serial_uncached());
        assert!(r.into_values().is_empty());
    }
}
