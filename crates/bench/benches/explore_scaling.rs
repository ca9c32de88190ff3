//! Exploration-engine benches: the DPOR engine vs the enumerative oracle
//! on the lint corpus, serial vs parallel frontier, and the program-level
//! memo cache — the regression tracking behind `BENCH_explore.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use armbar_analyze::corpus;
use armbar_wmm::{
    explore, explore_dpor_uncached, explore_memo_clear, explore_oracle, MemoryModel, Program,
};

const MODEL: MemoryModel = MemoryModel::ArmWmm;

fn programs() -> Vec<Program> {
    corpus().into_iter().map(|c| c.program).collect()
}

/// The oracle benches stick to the litmus-sized corpus slice: on the
/// implementation-sized cases the enumerative search is not a baseline,
/// it is a liability (minutes per program). The engine benches cover the
/// full corpus.
fn litmus_programs() -> Vec<Program> {
    programs()
        .into_iter()
        .filter(|p| p.threads.iter().map(|t| t.instrs.len()).sum::<usize>() <= 64)
        .collect()
}

/// Litmus-corpus exploration: oracle vs the engine — the headline serial speedup.
fn corpus_serial(c: &mut Criterion) {
    let ps = litmus_programs();
    let mut g = c.benchmark_group("explore_corpus_serial");
    g.bench_function("oracle", |b| {
        b.iter(|| {
            for p in &ps {
                black_box(explore_oracle(black_box(p), MODEL));
            }
        });
    });
    g.bench_function("engine", |b| {
        b.iter(|| {
            for p in &ps {
                black_box(explore_dpor_uncached(black_box(p), MODEL, 1));
            }
        });
    });
    g.finish();
}

/// Parallel frontier at 1/2/4 workers over the corpus. Litmus programs
/// are tiny, so this mostly tracks the pool hand-off overhead staying
/// bounded; the outcome sets are asserted byte-identical elsewhere.
fn corpus_workers(c: &mut Criterion) {
    let ps = programs();
    let mut g = c.benchmark_group("explore_corpus_workers");
    for workers in [1usize, 2, 4] {
        g.bench_function(format!("workers_{workers}"), |b| {
            b.iter(|| {
                for p in &ps {
                    black_box(explore_dpor_uncached(black_box(p), MODEL, workers));
                }
            });
        });
    }
    g.finish();
}

/// The memoized entry point, cold vs warm: warm iterations are pure
/// hash-lookups of the canonical program.
fn memo(c: &mut Criterion) {
    let ps = programs();
    let mut g = c.benchmark_group("explore_memo");
    g.bench_function("cold", |b| {
        b.iter(|| {
            explore_memo_clear();
            for p in &ps {
                black_box(explore(black_box(p), MODEL));
            }
        });
    });
    explore_memo_clear();
    for p in &ps {
        let _ = explore(p, MODEL);
    }
    g.bench_function("warm", |b| {
        b.iter(|| {
            for p in &ps {
                black_box(explore(black_box(p), MODEL));
            }
        });
    });
    g.finish();
}

/// Engine-only pass over the implementation-sized corpus cases — the
/// shapes the multi-word packed state exists for, serial vs quotient.
fn large_programs(c: &mut Criterion) {
    let ps: Vec<Program> = programs()
        .into_iter()
        .filter(|p| p.threads.iter().map(|t| t.instrs.len()).sum::<usize>() > 64)
        .collect();
    assert!(!ps.is_empty(), "corpus lost its implementation-sized cases");
    let mut g = c.benchmark_group("explore_large_programs");
    g.bench_function("engine", |b| {
        b.iter(|| {
            for p in &ps {
                black_box(explore_dpor_uncached(black_box(p), MODEL, 1));
            }
        });
    });
    g.bench_function("engine_workers_4", |b| {
        b.iter(|| {
            for p in &ps {
                black_box(explore_dpor_uncached(black_box(p), MODEL, 4));
            }
        });
    });
    g.finish();
}

criterion_group!(benches, corpus_serial, corpus_workers, memo, large_programs);
criterion_main!(benches);
