//! `armbar bench explore`: measure the DPOR exploration engine against the
//! enumerative oracle over the litmus-sized lint corpus — and
//! engine-only over the implementation-sized cases, where the oracle
//! stops being a baseline — and render `BENCH_explore.json`.
//!
//! Everything wall-clock lives here (and in the JSON), never in the
//! `results/` CSVs — those must stay byte-identical across hosts and
//! worker counts. State counts in the JSON are deterministic; times are
//! whatever the host produced.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use crate::bench_sim::ms;
use armbar_analyze::corpus::corpus;
use armbar_analyze::lint::analyze_case_with;
use armbar_analyze::synth::synthesize_with;
use armbar_wmm::unroll::{identical_contenders, mcs_handoff_unrolled};
use armbar_wmm::{
    explore_dpor_configured, explore_dpor_uncached, explore_oracle, MemoryModel, OutcomeSet,
    Program,
};

/// All corpus exploration runs under the lint's model.
const MODEL: MemoryModel = MemoryModel::ArmWmm;

/// Timing repetitions for the exploration sweeps (litmus programs are
/// microsecond-scale, so single shots are all noise).
const SWEEP_REPS: u32 = 40;

/// Repetitions for the end-to-end lint comparison (each rep analyzes the
/// whole corpus, which is much heavier than one exploration).
const LINT_REPS: u32 = 3;

/// Repetitions for the implementation-sized engine sweeps (millisecond
/// scale per program).
const LARGE_REPS: u32 = 10;

/// Repetitions for timing one outcome-set diff (tens of microseconds).
const DIFF_REPS: u32 = 200;

/// Floor on the oracle/engine state ratio over the `MP+…` cases.
const MIN_MP_REDUCTION: f64 = 5.0;

/// Floor on the full/quotient state ratio for n identical contenders (the
/// canonical shape reduces by ~n!/e in practice; the floor is deliberately
/// conservative).
const MIN_SYM_REDUCTION: f64 = 2.0;

/// One litmus-sized corpus case's deterministic state counts.
struct CaseBench {
    name: String,
    oracle_states: usize,
    engine_states: usize,
    engine_pruned: usize,
}

/// One implementation-sized corpus case: engine-only (the oracle is not a
/// baseline at this size, it is a liability), quotient vs full, with
/// walls; then cold lint and cold synthesis of the case, the search behind
/// the placement synthesis settles on (its heaviest leaf by far), and one
/// diff of that leaf's outcome set against the seed's.
struct LargeBench {
    name: String,
    total_instrs: usize,
    engine_states: usize,
    engine_full_states: usize,
    engine_pruned: usize,
    wall_1_ns: u64,
    wall_4_ns: u64,
    lint_ns: u64,
    synth_ns: u64,
    leaf_states: usize,
    leaf_pruned: usize,
    diff_ns: u64,
}

fn total_instrs(p: &Program) -> usize {
    p.threads.iter().map(|t| t.instrs.len()).sum()
}

/// The two cold backends the lint comparison runs, as
/// [`armbar_analyze::lint::ExploreFn`]s.
fn engine_serial(p: &Program, m: MemoryModel) -> Arc<OutcomeSet> {
    Arc::new(explore_dpor_uncached(p, m, 1))
}

fn oracle(p: &Program, m: MemoryModel) -> Arc<OutcomeSet> {
    Arc::new(explore_oracle(p, m))
}

/// Average nanoseconds per invocation of `f` over `reps` runs.
fn time_ns<F: FnMut()>(reps: u32, mut f: F) -> u64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    u64::try_from(t0.elapsed().as_nanos() / u128::from(reps)).unwrap_or(u64::MAX)
}

/// Run the full benchmark and render the `BENCH_explore.json` document.
///
/// # Panics
///
/// Panics if the engine's outcome set diverges from the oracle's on any
/// corpus program — a benchmark of a wrong answer is worthless — or if a
/// state-count reduction falls below its floor.
#[must_use]
pub fn bench_explore_json() -> String {
    let all_cases = corpus();
    let (cases, large_cases): (Vec<_>, Vec<_>) = all_cases
        .into_iter()
        .partition(|c| total_instrs(&c.program) <= 64);

    // -- Per-case deterministic state counts (and a correctness gate). --
    let mut rows = Vec::with_capacity(cases.len());
    for case in &cases {
        let oracle = explore_oracle(&case.program, MODEL);
        let engine = engine_serial(&case.program, MODEL);
        assert_eq!(
            engine.outcomes, oracle.outcomes,
            "{}: engine diverged from oracle",
            case.name
        );
        rows.push(CaseBench {
            name: case.name.clone(),
            oracle_states: oracle.states_visited,
            engine_states: engine.states_visited,
            engine_pruned: engine.states_pruned,
        });
    }
    let oracle_total: usize = rows.iter().map(|r| r.oracle_states).sum();
    let engine_total: usize = rows.iter().map(|r| r.engine_states).sum();
    let mp_oracle: usize = rows
        .iter()
        .filter(|r| r.name.starts_with("MP+"))
        .map(|r| r.oracle_states)
        .sum();
    let mp_engine: usize = rows
        .iter()
        .filter(|r| r.name.starts_with("MP+"))
        .map(|r| r.engine_states)
        .sum();

    // -- Whole-corpus exploration walls: oracle, engine x worker count. --
    let oracle_ns = time_ns(SWEEP_REPS, || {
        for case in &cases {
            std::hint::black_box(explore_oracle(&case.program, MODEL));
        }
    });
    let mut engine_walls = Vec::new();
    for workers in [1usize, 2, 4] {
        let ns = time_ns(SWEEP_REPS, || {
            for case in &cases {
                std::hint::black_box(explore_dpor_uncached(&case.program, MODEL, workers));
            }
        });
        engine_walls.push((workers, ns));
    }
    let engine_serial_ns = engine_walls[0].1;

    // -- End-to-end lint analysis, cold (no memo), oracle vs engine. ----
    let lint_oracle_ns = time_ns(LINT_REPS, || {
        for case in &cases {
            std::hint::black_box(analyze_case_with(case, oracle));
        }
    });
    let lint_engine_ns = time_ns(LINT_REPS, || {
        for case in &cases {
            std::hint::black_box(analyze_case_with(case, engine_serial));
        }
    });

    // -- Implementation-sized cases: engine-only, quotient vs full. ------
    let mut large_rows = Vec::with_capacity(large_cases.len());
    for case in &large_cases {
        let quotient = explore_dpor_configured(&case.program, MODEL, 1, true);
        let full = explore_dpor_configured(&case.program, MODEL, 1, false);
        assert_eq!(
            quotient.outcomes, full.outcomes,
            "{}: symmetry quotient changed the outcome set",
            case.name
        );
        let wall_1_ns = time_ns(LARGE_REPS, || {
            std::hint::black_box(explore_dpor_uncached(&case.program, MODEL, 1));
        });
        let wall_4_ns = time_ns(LARGE_REPS, || {
            std::hint::black_box(explore_dpor_uncached(&case.program, MODEL, 4));
        });
        let lint_ns = time_ns(1, || {
            std::hint::black_box(analyze_case_with(case, engine_serial));
        });
        let synth_t0 = Instant::now();
        let best = synthesize_with(case, engine_serial).best;
        let synth_ns = u64::try_from(synth_t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let leaf = explore_dpor_uncached(&best.program, MODEL, 1);
        assert_eq!(
            leaf,
            explore_dpor_uncached(&best.program, MODEL, 4),
            "{}: worker count changed the synthesized placement's search",
            case.name
        );
        assert!(
            quotient.diff(&leaf).added.is_empty(),
            "{}: the synthesized placement widened the outcome set",
            case.name
        );
        let diff_ns = time_ns(DIFF_REPS, || {
            std::hint::black_box(quotient.diff(&leaf));
        });
        large_rows.push(LargeBench {
            name: case.name.clone(),
            total_instrs: total_instrs(&case.program),
            engine_states: quotient.states_visited,
            engine_full_states: full.states_visited,
            engine_pruned: quotient.states_pruned,
            wall_1_ns,
            wall_4_ns,
            lint_ns,
            synth_ns,
            leaf_states: leaf.states_visited,
            leaf_pruned: leaf.states_pruned,
            diff_ns,
        });
    }

    // The machine-independent symmetry gate ([`MIN_SYM_REDUCTION`]).
    let sym_shape = identical_contenders(4, 3);
    let sym_full = explore_dpor_configured(&sym_shape, MODEL, 1, false);
    let sym_quot = explore_dpor_configured(&sym_shape, MODEL, 1, true);
    assert_eq!(sym_full.outcomes, sym_quot.outcomes);

    // Engine-vs-oracle wall on the largest shape the oracle can still
    // handle (66 instructions) — the crossover the multi-word engine
    // exists to win.
    let crossover = mcs_handoff_unrolled(
        4,
        3,
        3,
        armbar_barriers::Barrier::DmbFull,
        armbar_barriers::Barrier::DmbFull,
    );
    let cross_t0 = Instant::now();
    let cross_oracle = explore_oracle(&crossover, MODEL);
    let cross_oracle_ns = u64::try_from(cross_t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let cross_engine = explore_dpor_uncached(&crossover, MODEL, 1);
    assert_eq!(cross_engine.outcomes, cross_oracle.outcomes);
    let cross_engine_ns = time_ns(LARGE_REPS, || {
        std::hint::black_box(explore_dpor_uncached(&crossover, MODEL, 1));
    });

    let per_sec = |states: usize, ns: u64| states as f64 / (ns as f64 / 1e9);
    let ratio = |num: usize, den: usize| num as f64 / den.max(1) as f64;

    // The floors, all on state counts, which are the same on every host.
    assert!(rows.len() >= 15 && large_rows.len() >= 2, "corpus shrank");
    assert!(
        engine_total < oracle_total && rows.iter().all(|r| r.engine_states <= r.oracle_states),
        "the engine must never visit more states than the oracle"
    );
    assert!(
        ratio(mp_oracle, mp_engine) >= MIN_MP_REDUCTION,
        "MP-family state reduction is below the {MIN_MP_REDUCTION}x floor"
    );
    assert!(
        ratio(sym_full.states_visited, sym_quot.states_visited) >= MIN_SYM_REDUCTION,
        "identical-contender quotient is below the {MIN_SYM_REDUCTION}x floor"
    );
    assert!(
        large_rows.iter().all(|r| r.total_instrs > 64
            && 0 < r.engine_states
            && r.engine_states <= r.engine_full_states
            && 0 < r.leaf_states
            && 0 < r.leaf_pruned),
        "implementation-sized cases: over 64 instructions, quotient no larger than the full \
         graph, a synthesized placement that was searched"
    );
    assert!(
        total_instrs(&crossover) > 64 && cross_engine.states_visited < cross_oracle.states_visited,
        "the engine must win at the oracle crossover"
    );

    let mut j = String::from("{\n");
    let _ = writeln!(j, "  \"corpus_cases\": {},", rows.len());
    let _ = writeln!(j, "  \"model\": \"ArmWmm\",");
    let _ = writeln!(j, "  \"oracle_states_total\": {oracle_total},");
    let _ = writeln!(j, "  \"engine_states_total\": {engine_total},");
    let _ = writeln!(
        j,
        "  \"state_reduction_ratio\": {:.3},",
        ratio(oracle_total, engine_total)
    );
    let _ = writeln!(j, "  \"mp_family\": {{");
    let _ = writeln!(j, "    \"oracle_states\": {mp_oracle},");
    let _ = writeln!(j, "    \"engine_states\": {mp_engine},");
    let _ = writeln!(
        j,
        "    \"state_reduction_ratio\": {:.3}",
        ratio(mp_oracle, mp_engine)
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"corpus_sweep\": {{");
    let _ = writeln!(j, "    \"oracle_wall_ms\": {:.3},", ms(oracle_ns));
    let _ = writeln!(
        j,
        "    \"oracle_states_per_sec\": {:.0},",
        per_sec(oracle_total, oracle_ns)
    );
    let _ = writeln!(
        j,
        "    \"engine_states_per_sec\": {:.0},",
        per_sec(engine_total, engine_serial_ns)
    );
    let _ = writeln!(
        j,
        "    \"engine_speedup_serial\": {:.3},",
        oracle_ns as f64 / engine_serial_ns as f64
    );
    let _ = writeln!(j, "    \"engine_wall_ms\": {{");
    for (i, (workers, ns)) in engine_walls.iter().enumerate() {
        let comma = if i + 1 == engine_walls.len() { "" } else { "," };
        let _ = writeln!(j, "      \"{workers}\": {:.3}{comma}", ms(*ns));
    }
    let _ = writeln!(j, "    }}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"lint_e2e_cold\": {{");
    let _ = writeln!(j, "    \"oracle_wall_ms\": {:.3},", ms(lint_oracle_ns));
    let _ = writeln!(j, "    \"engine_wall_ms\": {:.3},", ms(lint_engine_ns));
    let _ = writeln!(
        j,
        "    \"speedup\": {:.3}",
        lint_oracle_ns as f64 / lint_engine_ns as f64
    );
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"large_programs\": {{");
    let _ = writeln!(j, "    \"no_enumerative_fallback\": true,");
    let _ = writeln!(
        j,
        "    \"identical_contender_sym_reduction\": {:.3},",
        ratio(sym_full.states_visited, sym_quot.states_visited)
    );
    let _ = writeln!(j, "    \"sym_shape_states\": {{");
    let _ = writeln!(j, "      \"full\": {},", sym_full.states_visited);
    let _ = writeln!(j, "      \"quotient\": {}", sym_quot.states_visited);
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"oracle_crossover\": {{");
    let _ = writeln!(j, "      \"shape\": \"mcs-handoff-unrolled(4,3,3)\",");
    let _ = writeln!(j, "      \"total_instrs\": {},", total_instrs(&crossover));
    let _ = writeln!(
        j,
        "      \"oracle_states\": {},",
        cross_oracle.states_visited
    );
    let _ = writeln!(j, "      \"oracle_wall_ms\": {:.3},", ms(cross_oracle_ns));
    let _ = writeln!(
        j,
        "      \"engine_states\": {},",
        cross_engine.states_visited
    );
    let _ = writeln!(j, "      \"engine_wall_ms\": {:.3},", ms(cross_engine_ns));
    let _ = writeln!(
        j,
        "      \"engine_speedup\": {:.3}",
        cross_oracle_ns as f64 / cross_engine_ns as f64
    );
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"cases\": [");
    for (i, r) in large_rows.iter().enumerate() {
        let comma = if i + 1 == large_rows.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "      {{\"name\": \"{}\", \"total_instrs\": {}, \"engine_states\": {}, \
             \"engine_full_states\": {}, \"engine_pruned\": {}, \"wall_ms_1\": {:.3}, \
             \"wall_ms_4\": {:.3}, \"states_per_sec\": {:.0}, \"lint_wall_ms\": {:.3}, \
             \"synth_wall_ms\": {:.3}, \"leaf_states\": {}, \"leaf_pruned\": {}, \
             \"diff_us\": {:.1}}}{comma}",
            r.name.replace('"', "\\\""),
            r.total_instrs,
            r.engine_states,
            r.engine_full_states,
            r.engine_pruned,
            ms(r.wall_1_ns),
            ms(r.wall_4_ns),
            per_sec(r.engine_states, r.wall_1_ns),
            ms(r.lint_ns),
            ms(r.synth_ns),
            r.leaf_states,
            r.leaf_pruned,
            r.diff_ns as f64 / 1e3
        );
    }
    let _ = writeln!(j, "    ]");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"cases\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            j,
            "    {{\"name\": \"{}\", \"oracle_states\": {}, \"engine_states\": {}, \"engine_pruned\": {}}}{comma}",
            r.name.replace('"', "\\\""),
            r.oracle_states,
            r.engine_states,
            r.engine_pruned
        );
    }
    let _ = writeln!(j, "  ]");
    j.push_str("}\n");
    j
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_json_is_well_formed_and_meets_the_reduction_bar() {
        let j = bench_explore_json();
        // Shape: balanced braces/brackets, the documented keys, and the
        // MP-family acceptance criterion baked into the numbers.
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"corpus_cases\"",
            "\"state_reduction_ratio\"",
            "\"mp_family\"",
            "\"corpus_sweep\"",
            "\"lint_e2e_cold\"",
            "\"large_programs\"",
            "\"no_enumerative_fallback\"",
            "\"identical_contender_sym_reduction\"",
            "\"oracle_crossover\"",
            "\"cases\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
    }
}
