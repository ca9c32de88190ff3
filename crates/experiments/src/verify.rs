//! The byte-identity ladder, written once.
//!
//! Everything this crate produces must come out the same however it was
//! computed: serially without a cache, on four workers without a cache,
//! cold into an empty cache, and warm out of that cache — where the warm
//! run answers every lookup the cold run missed and recomputes nothing.
//! [`ladder`] checks that for any function of a [`SweepCtx`], so the
//! reduced-depth integration tests and `armbar verify` climb the same
//! rungs; [`experiment`] adds the reference check for registry entries.
//!
//! Worker counts and cache directories are passed explicitly rather than
//! through `ARMBAR_JOBS`/`ARMBAR_NO_CACHE`, because tests in one binary
//! run concurrently and must not race on process-global environment.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::report::RESULTS_DIR;
use crate::{Experiment, RunCache, SweepCtx, Table};

/// What a run produced on every rung, and how many cells it declared.
#[derive(Debug)]
pub struct Rungs<T> {
    /// The serial uncached value; every other rung equalled it.
    pub value: T,
    /// Cache lookups of the cold run: all missed and were stored, and all
    /// hit on the warm run.
    pub cells: u64,
}

/// Climb the ladder with `run`: serial uncached, four workers uncached,
/// cold cache, warm cache.
///
/// # Errors
///
/// `run`'s own error under the rung it happened on, the first rung whose
/// value differs from the serial one, or cache traffic other than "cold
/// misses and stores every cell, warm hits every cell".
pub fn ladder<T: PartialEq>(
    run: impl Fn(&SweepCtx) -> Result<T, String>,
) -> Result<Rungs<T>, String> {
    static NEXT_DIR: AtomicU64 = AtomicU64::new(0);
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("armbar_ladder_{}_{n}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let rungs = [
        ("serial uncached", SweepCtx::serial_uncached()),
        ("4-worker uncached", SweepCtx::new(4, RunCache::disabled())),
        ("cold-cache", SweepCtx::new(4, RunCache::at(&dir))),
        ("warm-cache", SweepCtx::new(4, RunCache::at(&dir))),
    ];
    let values: Result<Vec<T>, String> = rungs
        .iter()
        .map(|(name, ctx)| run(ctx).map_err(|e| format!("{name} run: {e}")))
        .collect();
    let _ = fs::remove_dir_all(&dir);
    let mut values = values?;
    if let Some(rung) = values.iter().position(|v| *v != values[0]) {
        let name = rungs[rung].0;
        return Err(format!("{name} run differs from the serial uncached run"));
    }
    let (cold, warm) = (&rungs[2].1.cache, &rungs[3].1.cache);
    let cells = cold.misses();
    let traffic = [cold.hits(), cold.stores(), warm.hits(), warm.misses()];
    if traffic != [0, cells, cells, 0] {
        return Err(format!(
            "cold run [hits, stores] and warm run [hits, misses] are {traffic:?}, \
             expected [0, {cells}, {cells}, 0]"
        ));
    }
    Ok(Rungs {
        value: values.swap_remove(0),
        cells,
    })
}

/// Every `*.csv` under `results/`, by file name.
fn read_results() -> Result<BTreeMap<String, Vec<u8>>, String> {
    let read = || -> io::Result<_> {
        let mut files = BTreeMap::new();
        for entry in fs::read_dir(RESULTS_DIR)? {
            let path = entry?.path();
            if path.extension().is_some_and(|ext| ext == "csv") {
                let name = path.file_name().expect("a directory entry has a name");
                files.insert(name.to_string_lossy().into_owned(), fs::read(&path)?);
            }
        }
        Ok(files)
    };
    read().map_err(|e| format!("cannot read {RESULTS_DIR}/: {e}"))
}

/// The first CSV (in name order) that `after` holds and `before` does not,
/// or holds with other bytes — then with its first differing line, both
/// ways.
fn first_change(
    before: &BTreeMap<String, Vec<u8>>,
    after: &BTreeMap<String, Vec<u8>>,
) -> Result<(), String> {
    for (name, produced) in after {
        let Some(committed) = before.get(name) else {
            return Err(format!("{RESULTS_DIR}/{name} has no committed reference"));
        };
        if produced != committed {
            let want = String::from_utf8_lossy(committed);
            let got = String::from_utf8_lossy(produced);
            let same = |(w, g): &(&str, &str)| w == g;
            let line = want.lines().zip(got.lines()).take_while(same).count();
            let show = |text: &str| match text.lines().nth(line) {
                Some(l) => format!("`{l}`"),
                None => "end of file".to_string(),
            };
            return Err(format!(
                "{RESULTS_DIR}/{name}: line {} differs from the committed reference: \
                 expected {}, produced {}",
                line + 1,
                show(&want),
                show(&got)
            ));
        }
    }
    Ok(())
}

/// Write every table an experiment returned under `ctx` as
/// `results/<id>.csv`.
///
/// # Errors
///
/// Names the first file that could not be written, or reports that the
/// experiment could not write a side CSV of its own (it named the file on
/// stderr) — a stale CSV left in place must never pass for a fresh one.
pub fn write_tables(ctx: &SweepCtx, tables: &[Table]) -> Result<(), String> {
    if ctx.unwritten() > 0 {
        return Err(format!("a CSV under {RESULTS_DIR}/ was not written"));
    }
    tables.iter().try_for_each(|t| {
        t.write_csv(RESULTS_DIR)
            .map_err(|e| format!("could not write {RESULTS_DIR}/{}.csv: {e}", t.id))
    })
}

/// Climb the ladder with one registry entry. Every rung regenerates the
/// experiment's CSVs in `results/` and must leave every CSV there with the
/// bytes it had before the first rung — the bytes that were committed.
/// Returns the experiment's cell count.
///
/// # Errors
///
/// Whatever [`ladder`] or [`write_tables`] reports, or the first CSV that
/// changed.
pub fn experiment(e: &Experiment) -> Result<u64, String> {
    let committed = read_results()?;
    let rungs = ladder(|ctx| {
        write_tables(ctx, &(e.run)(ctx))?;
        first_change(&committed, &read_results()?)
    })?;
    Ok(rungs.cells)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SweepSpec;

    fn squares(ctx: &SweepCtx) -> Vec<f64> {
        let mut spec = SweepSpec::new("squares");
        let ids: Vec<_> = (0..12u32)
            .map(|i| {
                spec.cell(format!("ladder-squares|{i}"), move || {
                    vec![f64::from(i * i)]
                })
            })
            .collect();
        let r = spec.run(ctx);
        ids.into_iter().map(|id| r.scalar(id)).collect()
    }

    #[test]
    fn a_deterministic_sweep_climbs_every_rung() {
        let rungs = ladder(|ctx| Ok(squares(ctx))).expect("ladder holds");
        assert_eq!(rungs.cells, 12);
        assert_eq!(rungs.value[5], 25.0);
    }

    #[test]
    fn a_worker_dependent_value_is_caught_on_the_parallel_rung() {
        let err = ladder(|ctx| Ok(ctx.workers)).expect_err("workers differ");
        assert!(err.starts_with("4-worker uncached run differs"), "{err}");
    }

    #[test]
    fn an_uncached_cell_is_caught_on_the_warm_rung() {
        // A key that changes from run to run: the warm run cannot find what
        // the cold run stored.
        let runs = AtomicU64::new(0);
        let err = ladder(|ctx| {
            let mut spec = SweepSpec::new("flaky");
            let n = runs.fetch_add(1, Ordering::Relaxed);
            let id = spec.cell(format!("ladder-flaky|{n}"), || vec![1.0]);
            Ok(spec.run(ctx).scalar(id))
        })
        .expect_err("warm run misses");
        assert!(
            err.ends_with("are [0, 1, 0, 1], expected [0, 1, 1, 0]"),
            "{err}"
        );
    }

    #[test]
    fn a_failing_run_names_its_rung() {
        let err = ladder(|_| Err::<(), _>("boom".to_string())).expect_err("run fails");
        assert_eq!(err, "serial uncached run: boom");
    }
}
