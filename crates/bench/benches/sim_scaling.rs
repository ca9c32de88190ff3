//! How the simulator's two scheduling engines scale with core count.
//!
//! `event` vs `oracle` on the parked-spinner workload (the `armbar bench sim`
//! probe: one busy core, everyone else parked on a `WaitChange` line) shows
//! the lockstep cost growing with n while the event engine tracks only the
//! busy core; `barrier` runs the hierarchical many-core barrier end to end
//! — the workload the event engine was built for. The oracle is not
//! benched at 1024 cores: stepping a thousand parked cores per cycle is
//! the problem statement, not a baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use armbar_experiments::bench_sim::parked_spinner_machine;
use armbar_sim::{Engine, Platform};
use armbar_simapps::barrier_sim::{run_barrier, BarrierConfig, BarrierFamily};

fn bench_parked_spinners(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_scaling");
    for cores in [64usize, 256, 1024] {
        g.bench_with_input(BenchmarkId::new("event", cores), &cores, |b, &cores| {
            b.iter(|| {
                let mut m = parked_spinner_machine(cores);
                m.set_engine(Engine::EventDriven);
                black_box(m.run(1 << 40).cycles)
            });
        });
    }
    for cores in [64usize, 256] {
        g.bench_with_input(BenchmarkId::new("oracle", cores), &cores, |b, &cores| {
            b.iter(|| {
                let mut m = parked_spinner_machine(cores);
                m.set_engine(Engine::LockstepOracle);
                black_box(m.run(1 << 40).cycles)
            });
        });
    }
    g.finish();
}

fn bench_hierarchical_barrier(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_scaling_barrier");
    g.sample_size(10);
    for cores in [256usize, 1024] {
        g.bench_with_input(
            BenchmarkId::new("hierarchical", cores),
            &cores,
            |b, &cores| {
                let platform = Platform::manycore(cores);
                b.iter(|| {
                    black_box(run_barrier(
                        &platform,
                        BarrierConfig {
                            family: BarrierFamily::Hierarchical,
                            threads: cores,
                            rounds: 2,
                            work_nops: 20,
                        },
                    ))
                });
            },
        );
    }
    g.finish();
}

criterion_group!(benches, bench_parked_spinners, bench_hierarchical_barrier);
criterion_main!(benches);
