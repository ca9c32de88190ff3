//! `--compare A B`: two ledgers (one JSON record per line, as `run.sh`
//! appends them) side by side — the tool every later performance change uses.
//!
//! For every workload and end-to-end metric (and the median pass, which the
//! issue bounds at 10 %): both medians with quartiles, the ratio B / A
//! (base A), and a verdict. Exact counts and output digests
//! are `identical` or `changed`: a change that only speeds the host must
//! leave them alone.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::{self, Json};
use crate::spec::{EndToEnd, END_TO_END, PASS_P50};
use crate::stats::{quartiles, sorted};

/// The untraced runs of one workload in one ledger.
#[derive(Debug, Default)]
struct Runs {
    /// Metric name to one value per run.
    metrics: BTreeMap<String, Vec<f64>>,
    /// Every distinct `counts` + `output_digest` rendering seen.
    exact: Vec<String>,
    failed: f64,
}

fn load(text: &str) -> Result<BTreeMap<String, Runs>, String> {
    let mut by_workload: BTreeMap<String, Runs> = BTreeMap::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if rec.get("trace") != Some(&Json::Bool(false)) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let runs = by_workload.entry(workload.to_string()).or_default();
        for (name, m) in rec.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.metrics.entry(name.clone()).or_default().push(v);
            }
        }
        if let Some(v) = rec.get(PASS_P50.name).and_then(Json::as_f64) {
            let p50 = runs.metrics.entry(PASS_P50.name.into()).or_default();
            p50.push(v);
        }
        runs.failed += rec.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let exact = format!(
            "{} {}",
            rec.get("counts").map(Json::render).unwrap_or_default(),
            rec.get("output_digest")
                .map(Json::render)
                .unwrap_or_default()
        );
        if !runs.exact.contains(&exact) {
            runs.exact.push(exact);
        }
    }
    Ok(by_workload)
}

/// How B stands against A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    WithinBound,
    /// B's median is worse by more than the bound, and the spread does not
    /// explain it.
    Regressed,
    /// The run-to-run spread is wider than the bound and the two sets of
    /// runs overlap: the metric cannot say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge metric `m` from the values of both sides.
#[must_use]
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let ([a1, a2, a3], [b1, b2, b3]) = (quartiles(a), quartiles(b));
    let lower = m.better == "lower";
    let worse_by = (if lower { b2 - a2 } else { a2 - b2 }) / a2;
    let spread = ((a3 - a1) / a2).max((b3 - b1) / b2);
    let (sa, sb) = (sorted(a), sorted(b));
    let (a_min, a_max) = (sa[0], sa[sa.len() - 1]);
    let (b_min, b_max) = (sb[0], sb[sb.len() - 1]);
    let (b_all_better, b_all_worse) = if lower {
        (b_max < a_min, b_min > a_max)
    } else {
        (b_min > a_max, b_max < a_min)
    };
    if worse_by > m.bound {
        if spread > m.bound && !b_all_worse {
            Verdict::Unresolved
        } else {
            Verdict::Regressed
        }
    } else if spread > m.bound && !b_all_better {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

/// Render the comparison of two ledger texts; the flag says whether B
/// regressed, failed an operation, or changed an exact count.
///
/// # Errors
///
/// A message when a ledger line does not parse.
pub fn compare(a_text: &str, b_text: &str) -> Result<(String, bool), String> {
    let (a, b) = (load(a_text)?, load(b_text)?);
    let mut out = String::new();
    let mut bad = false;
    let show = |v: &[f64]| {
        let [q1, q2, q3] = quartiles(v);
        format!("{q2:.4} [{q1:.4}, {q3:.4}] n={}", v.len())
    };
    for (workload, ra) in &a {
        let Some(rb) = b.get(workload) else {
            let _ = writeln!(out, "{workload}: only in A");
            continue;
        };
        let _ = writeln!(out, "{workload}");
        for m in END_TO_END.iter().chain([&PASS_P50]) {
            let (Some(va), Some(vb)) = (ra.metrics.get(m.name), rb.metrics.get(m.name)) else {
                let _ = writeln!(out, "  {:<12} missing on one side", m.name);
                bad = true;
                continue;
            };
            let verdict = judge(m, va, vb);
            bad |= verdict == Verdict::Regressed;
            let _ = writeln!(
                out,
                "  {:<12} {:<3} A {}   B {}   B/A {:.4} (base A, {} is better, bound {:.0} %)  {}",
                m.name,
                m.unit,
                show(va),
                show(vb),
                quartiles(vb)[1] / quartiles(va)[1],
                m.better,
                m.bound * 100.0,
                verdict.label(),
            );
        }
        let same = ra.exact.len() == 1 && ra.exact == rb.exact;
        bad |= !same || ra.failed + rb.failed > 0.0;
        let _ = writeln!(
            out,
            "  exact counts and output digest: {}   failed operations: A {} B {}",
            if same { "identical" } else { "changed" },
            ra.failed,
            rb.failed
        );
        if !same {
            for (side, runs) in [("A", ra), ("B", rb)] {
                for e in &runs.exact {
                    let _ = writeln!(out, "    {side}: {e}");
                }
            }
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        let _ = writeln!(out, "{workload}: only in B");
    }
    Ok((out, bad))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A time with a 10 % bound, whatever the table says today.
    const PASS: EndToEnd = EndToEnd {
        name: "pass_s_min",
        unit: "s",
        better: "lower",
        bound: 0.10,
    };

    fn around(center: f64, step: f64) -> Vec<f64> {
        (-2..=2).map(|i| center + f64::from(i) * step).collect()
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = around(1.00, 0.005);
        assert_eq!(judge(&PASS, &a, &around(1.05, 0.005)), Verdict::WithinBound);
        assert_eq!(judge(&PASS, &a, &around(0.80, 0.005)), Verdict::WithinBound);
        assert_eq!(judge(&PASS, &a, &around(1.20, 0.005)), Verdict::Regressed);
        // Spread wider than the bound and overlapping runs: cannot say.
        let noisy = around(1.00, 0.06);
        assert_eq!(
            judge(&PASS, &noisy, &around(1.02, 0.06)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&PASS, &noisy, &around(1.15, 0.06)),
            Verdict::Unresolved
        );
        // …unless every run of B is on one side of every run of A.
        assert_eq!(
            judge(&PASS, &noisy, &around(0.50, 0.06)),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(&PASS, &noisy, &around(2.00, 0.06)),
            Verdict::Regressed
        );
    }

    fn record(workload: &str, pass_s: f64, digest: &str) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"trace\": false, \"failed\": 0, \
             \"pass_s_p50\": {pass_s}, \"counts\": {{\"cells\": 36}}, \"output_digest\": \"{digest}\", \
             \"metrics\": {{\"pass_s_min\": {{\"value\": {pass_s}, \"unit\": \"s\"}}, \
             \"peak_rss_mb\": {{\"value\": 6.5, \"unit\": \"MB\"}}, \
             \"setup_s\": {{\"value\": 1.25, \"unit\": \"s\"}}}}}}\n"
        )
    }

    #[test]
    fn comparison_reports_ratios_and_exact_changes() {
        let a: String = [1.00, 1.01, 0.99].map(|s| record("w", s, "abc")).concat();
        let same: String = [1.02, 1.01, 1.03].map(|s| record("w", s, "abc")).concat();
        let (text, bad) = compare(&a, &same).unwrap();
        assert!(!bad, "{text}");
        assert!(text.contains("B/A 1.0200 (base A"), "{text}");
        assert!(text.contains("within-bound") && text.contains("identical"));

        let slow: String = [1.40, 1.41, 1.39].map(|s| record("w", s, "abd")).concat();
        let (text, bad) = compare(&a, &slow).unwrap();
        assert!(bad);
        assert!(
            text.contains("regressed") && text.contains("changed"),
            "{text}"
        );
        // Traced records carry no end-to-end metric and are skipped.
        let traced = a.replace("\"trace\": false", "\"trace\": true");
        assert!(compare(&traced, &a).unwrap().0.contains("only in B"));
    }
}
