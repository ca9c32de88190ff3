//! One run of one workload: set-up, timed passes, and — traced — the layer
//! probes, the span-derived metrics and the Chrome trace.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::json::{obj, Json};
use crate::probes;
use crate::rng::Rng;
use crate::spec::{per_layer, END_TO_END};
use crate::stats::{fastest, iqr_share, median, quartiles};
use crate::trace::Tracer;
use crate::workloads::{Env, Kind, Workload};

/// Set-up is repeated until its repeats have used this many seconds, and
/// their median is reported: three repeats of `verdict-corpus`'s
/// one-second set-up, one of the others' (2.8 s to 10 s). The benchmark
/// contract asks for the repeats; every workload repeating three times
/// would add 30 s of cache fills to each `regen-warm` run.
const SETUP_BUDGET_S: f64 = 2.5;

/// Printed by every run, beside every simulated number.
pub const UNVALIDATED: &str = "the model is unvalidated against hardware: the repo holds no machine-readable paper data, so no error figure is given beside simulated numbers";

/// What `--workload … --seed … --seconds … --trace …` asks for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub kind: Kind,
    /// Decides item order and the probes' input streams, nothing else.
    pub seed: u64,
    /// How long to keep starting timed passes.
    pub seconds: f64,
    /// Record spans and report the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    /// Where to read.
    pub env: Env,
    /// Where to write: scratch directory and trace (`<repo>/benchmark/out`).
    pub out_dir: PathBuf,
}

/// A finished run.
#[derive(Debug)]
pub struct RunReport {
    /// The contract's result line: `correct`, `attempted`, `failed`, `metrics`.
    pub result: Json,
    /// The ledger record: the result plus passes, quartiles, exact counts
    /// and the output digest.
    pub record: Json,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn metric(value: f64, unit: &str) -> Json {
    obj(vec![
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// Run one workload.
///
/// # Errors
///
/// A message when the run could not be made at all (no references, no
/// scratch directory, a metric missing): no result may be printed then.
/// Failed operations are not errors; they are counted in the report.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let io = |what: &str, path: &Path, e: std::io::Error| format!("{what} {}: {e}", path.display());
    let work = args
        .out_dir
        .join(format!("work.{}.{}", args.kind.name(), std::process::id()));
    let _ = fs::remove_dir_all(&work);
    fs::create_dir_all(&work).map_err(|e| io("create", &work, e))?;
    // `experiments::{lint, synth, extract}` write `results/*.csv` relative
    // to the current directory: make the scratch directory current so the
    // repo's own results/ is never touched.
    std::env::set_current_dir(&work).map_err(|e| io("enter", &work, e))?;
    let outcome = run_in_scratch(args);
    let _ = std::env::set_current_dir(&args.env.repo);
    let _ = fs::remove_dir_all(&work);
    outcome
}

fn run_in_scratch(args: &RunArgs) -> Result<RunReport, String> {
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let mut absorb = |phase: &str, ops: u64, failed: &[String], failures: &mut Vec<String>| {
        attempted += ops;
        failures.extend(
            failed
                .iter()
                .map(|f| format!("{} / {phase} / {f}", args.kind.name())),
        );
    };

    // Every repeat's operations are checked, so every repeat's are counted.
    let mut setup_s = Vec::new();
    let mut workload = loop {
        let t0 = Instant::now();
        let (w, warmup) = Workload::setup(args.kind, &args.env)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        absorb("set-up", warmup.attempted, &warmup.failures, &mut failures);
        if setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break w;
        }
    };

    let mut tracer = Tracer::new(args.trace);
    let run_span = tracer.open("run");
    let mut layer = BTreeMap::new();
    if args.trace {
        let report = probes::run_all(&mut tracer, &args.env, args.seed)?;
        absorb("probes", report.attempted, &report.failures, &mut failures);
        layer = report.metrics;
    }

    // Timed passes. A traced run alternates traced and untraced passes, so
    // the tracing overhead is measured inside one process.
    let workload_span = tracer.open("workload");
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let last;
    let t_start = Instant::now();
    let mut pass_ix = 0u64;
    loop {
        let traced = args.trace && pass_ix.is_multiple_of(2);
        tracer.enabled = traced;
        let span = tracer.open("pass");
        let t0 = Instant::now();
        let out = workload.pass(&mut tracer, &mut Rng::stream(args.seed, pass_ix));
        let secs = t0.elapsed().as_secs_f64();
        tracer.close(span, &[("ops", out.attempted)]);
        (if traced {
            &mut traced_s
        } else {
            &mut untraced_s
        })
        .push(secs);
        absorb(
            &format!("pass {pass_ix}"),
            out.attempted,
            &out.failures,
            &mut failures,
        );
        pass_ix += 1;
        let paired = !args.trace || pass_ix.is_multiple_of(2);
        if paired && t_start.elapsed().as_secs_f64() >= args.seconds {
            last = out;
            break;
        }
    }
    tracer.enabled = args.trace;
    tracer.close(workload_span, &[("passes", pass_ix)]);
    tracer.close(run_span, &[]);

    let all_s: Vec<f64> = traced_s.iter().chain(&untraced_s).copied().collect();
    let [p25, p50, p75] = quartiles(&all_s);
    let mut metrics: Vec<(String, Json)> = Vec::new();
    if args.trace {
        probes::span_metrics(&tracer, &mut layer);
        harness_metrics(&tracer, &traced_s, &untraced_s, &all_s, &mut layer);
        for m in per_layer() {
            let value = layer
                .get(&m.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))?;
            metrics.push((m.name, metric(*value, m.unit)));
        }
        let path = args
            .out_dir
            .join(format!("trace.{}.json", args.kind.name()));
        fs::write(&path, tracer.to_chrome_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    } else {
        for m in END_TO_END {
            let value = match m.name {
                "pass_s_min" => fastest(&all_s),
                "peak_rss_mb" => peak_rss_mb()?,
                "setup_s" => median(&setup_s),
                other => return Err(format!("end-to-end metric {other} has no measurement")),
            };
            metrics.push((m.name.to_string(), metric(value, m.unit)));
        }
    }

    let failed = failures.len() as u64;
    let result = vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ];
    let counts = last
        .counts
        .iter()
        .map(|(k, v)| ((*k).to_string(), Json::Num(*v as f64)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut record = vec![
        ("workload", Json::Str(args.kind.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(nproc as f64)),
        (
            "setup_s",
            Json::Arr(setup_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("passes", Json::Num(all_s.len() as f64)),
        (
            "pass_s",
            Json::Arr(all_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("pass_s_min", Json::Num(fastest(&all_s))),
        ("pass_s_p25", Json::Num(p25)),
        ("pass_s_p50", Json::Num(p50)),
        ("pass_s_p75", Json::Num(p75)),
        ("items_per_pass", Json::Num(last.attempted as f64)),
        ("fail_share", Json::Num(failed as f64 / attempted as f64)),
        ("counts", Json::Obj(counts)),
        (
            "output_digest",
            Json::Str(format!("{:016x}", last.digest())),
        ),
    ];
    record.extend(result.iter().cloned());
    Ok(RunReport {
        result: obj(result),
        record: obj(record),
        failures,
    })
}

/// The harness's view of itself, from the workload's own passes.
fn harness_metrics(
    tracer: &Tracer,
    traced_s: &[f64],
    untraced_s: &[f64],
    all_s: &[f64],
    layer: &mut BTreeMap<String, f64>,
) {
    // Each traced pass against the untraced pass right after it, so that
    // the box's slow phases fall on both or on neither; then the median pair.
    let pairs: Vec<f64> = traced_s
        .iter()
        .zip(untraced_s)
        .map(|(traced, untraced)| (traced - untraced) / untraced)
        .collect();
    layer.insert("harness.trace_overhead_share".into(), median(&pairs));
    layer.insert("harness.pass_iqr_share".into(), iqr_share(all_s));
    // Time inside a pass that no item span covers, and time the items spend
    // in the harness's own reference checks.
    let spans = tracer.spans();
    let passes: Vec<usize> = tracer.named("pass").collect();
    let pass_ns: u64 = passes.iter().map(|&ix| spans[ix].dur_ns()).sum();
    let self_ns: u64 = passes.iter().map(|&ix| tracer.self_ns(ix)).sum();
    let check_ns: u64 = tracer
        .named("check")
        .filter(|&ix| tracer.has_ancestor(ix, "pass"))
        .map(|ix| spans[ix].dur_ns())
        .sum();
    layer.insert(
        "harness.pass_self_share".into(),
        self_ns as f64 / pass_ns as f64,
    );
    layer.insert(
        "harness.check_share".into(),
        check_ns as f64 / pass_ns as f64,
    );
    layer.insert("harness.spans".into(), spans.len() as f64);
}
