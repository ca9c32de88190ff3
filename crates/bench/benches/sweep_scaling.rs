//! How the sweep engine scales with workers on the Figure 3 Kunpeng916
//! grid: the serial path vs two vs four workers, cache disabled so every
//! cell simulates. On a single-core host the parallel configurations
//! mostly measure pool overhead; on a multi-core box the 4-worker run
//! should approach the core count in speedup (the `armbar run all` acceptance
//! target is >= 2x on 4 cores).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use armbar_experiments::figures::{attrib_grid, fig3_grid};
use armbar_experiments::sweep::{SweepCtx, SweepSpec};
use armbar_experiments::RunCache;
use armbar_simapps::bind::BindConfig;

const NOPS: [u32; 2] = [10, 150];
const ITERS: u64 = 60;

fn bench_sweep_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("sweep_scaling");
    for workers in [1usize, 2, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut sweep = SweepSpec::new("sweep-scaling-bench");
                    let rows = fig3_grid(&mut sweep, BindConfig::KunpengSameNode, &NOPS, ITERS);
                    let ctx = SweepCtx::new(workers, RunCache::disabled());
                    let r = sweep.run(&ctx);
                    black_box(rows.iter().map(|(_, id)| r.get(*id)[0]).sum::<f64>())
                });
            },
        );
    }
    g.finish();
}

/// The stall-attribution grid at reduced depth: guards the cost of the
/// breakdown accounting itself — the counters are charged on the hot
/// issue path, so a regression here shows up before `armbar run attrib` slows.
fn bench_attrib_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("attrib_grid");
    for workers in [1usize, 4] {
        g.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut sweep = SweepSpec::new("attrib-bench");
                    let rows = attrib_grid(&mut sweep, 60, 12);
                    let ctx = SweepCtx::new(workers, RunCache::disabled());
                    let r = sweep.run(&ctx);
                    black_box(
                        rows.iter()
                            .map(|(_, id)| r.get(*id).iter().sum::<f64>())
                            .sum::<f64>(),
                    )
                });
            },
        );
    }
    g.finish();
}

criterion_group!(sweep_scaling, bench_sweep_scaling, bench_attrib_grid);
criterion_main!(sweep_scaling);
