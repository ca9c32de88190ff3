//! Source-drift lint for the native `asm!` wrappers.
//!
//! `armbar-barriers` ships a table ([`armbar_barriers::native::ASM_CONTRACT`])
//! of what instruction each `asm!` wrapper promises to emit. This module
//! scrapes the template strings out of the *source text* of
//! `crates/barriers/src/native.rs` (embedded at compile time, so the lint
//! always sees the code it ships with), lifts each template with the real
//! [`crate::parse`] front-end, and compares the classified barrier against
//! the contract. If `dmb_st()` ever stops emitting `dmb ishst` — a typo, a
//! bad merge, a well-meaning "optimization" — the lint fails with the
//! function name and the offending template.
//!
//! Wrappers that contain `asm!` but are missing from the contract are also
//! reported, so new wrappers cannot slip in unchecked.

use armbar_barriers::native::ASM_CONTRACT;
use armbar_barriers::Barrier;

use crate::parse::{parse, AsmInstr, Operand};

/// The embedded source of the native backend, scraped by the lint.
pub const NATIVE_SOURCE: &str = include_str!("../../barriers/src/native.rs");

/// One `asm!` template found in a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrapedAsm {
    /// The enclosing function.
    pub function: String,
    /// The raw template string (placeholders unsubstituted).
    pub template: String,
    /// 1-based source line of the `asm!` invocation.
    pub line: usize,
}

/// One contract function's drift verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftRow {
    /// The wrapper function name.
    pub function: String,
    /// What the contract says it emits.
    pub expected: Barrier,
    /// What lifting its scraped template produced (`None`: no `asm!`
    /// found, or the template did not classify as a barrier/ordered
    /// access).
    pub lifted: Option<Barrier>,
    /// The scraped template, empty when the function had no `asm!`.
    pub template: String,
}

impl DriftRow {
    /// True when the wrapper still emits what it promises.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.lifted == Some(self.expected)
    }
}

/// The full drift report over a source file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DriftReport {
    /// One row per contract entry, contract order.
    pub rows: Vec<DriftRow>,
    /// Functions with `asm!` templates but no contract entry.
    pub uncontracted: Vec<String>,
}

impl DriftReport {
    /// True when every contract row checks out and nothing is uncontracted.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.uncontracted.is_empty() && self.rows.iter().all(DriftRow::ok)
    }

    /// Human-readable multi-line summary (one line per problem; empty when
    /// clean).
    #[must_use]
    pub fn problems(&self) -> Vec<String> {
        let mut out = Vec::new();
        for row in &self.rows {
            if !row.ok() {
                out.push(match row.lifted {
                    Some(got) => format!(
                        "drift: `{}` promises {} but its template `{}` lifts to {got}",
                        row.function, row.expected, row.template
                    ),
                    None if row.template.is_empty() => {
                        format!("drift: `{}` has no asm! template to check", row.function)
                    }
                    None => format!(
                        "drift: `{}` template `{}` does not classify as a barrier",
                        row.function, row.template
                    ),
                });
            }
        }
        for f in &self.uncontracted {
            out.push(format!(
                "drift: `{f}` contains asm! but is missing from ASM_CONTRACT"
            ));
        }
        out
    }
}

fn enclosing_fn_name(line: &str) -> Option<String> {
    let t = line.trim_start();
    if t.starts_with("//") {
        return None;
    }
    let idx = t.find("fn ")?;
    let name: String = t[idx + 3..]
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    (!name.is_empty()).then_some(name)
}

/// Find every `asm!` template string in `src`, with its enclosing function.
#[must_use]
pub fn scrape_asm_templates(src: &str) -> Vec<ScrapedAsm> {
    let lines: Vec<&str> = src.lines().collect();
    let mut current_fn = String::new();
    let mut found = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        if let Some(name) = enclosing_fn_name(line) {
            current_fn = name;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            i += 1;
            continue;
        }
        if let Some(at) = line.find("asm!") {
            // The template is the first string literal after `asm!`; it may
            // start on a following line but never spans lines.
            let mut j = i;
            let mut from = at + 4;
            let mut template = None;
            while j < lines.len() {
                if let Some(q) = lines[j][from..].find('"') {
                    let start = from + q + 1;
                    if let Some(len) = lines[j][start..].find('"') {
                        template = Some(lines[j][start..start + len].to_string());
                    }
                    break;
                }
                j += 1;
                from = 0;
            }
            if let Some(template) = template {
                found.push(ScrapedAsm {
                    function: current_fn.clone(),
                    template,
                    line: i + 1,
                });
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    found
}

/// Replace `{placeholder}` operands with concrete registers `x20, x21, …`
/// so the template becomes parseable assembly.
#[must_use]
pub fn substitute_placeholders(template: &str) -> String {
    let mut out = String::new();
    let mut next = 20u8;
    let mut chars = template.chars();
    while let Some(c) = chars.next() {
        if c == '{' {
            for d in chars.by_ref() {
                if d == '}' {
                    break;
                }
            }
            out.push('x');
            out.push_str(&next.to_string());
            next += 1;
        } else {
            out.push(c);
        }
    }
    out
}

/// Classify a parsed single instruction as the barrier/ordered access it is.
fn classify(instr: &AsmInstr) -> Option<Barrier> {
    match instr.mnemonic.as_str() {
        "isb" => Some(Barrier::Isb),
        "ldar" => Some(Barrier::Ldar),
        "ldapr" => Some(Barrier::Ldapr),
        "stlr" => Some(Barrier::Stlr),
        "dmb" | "dsb" => {
            let Some(Operand::Label(domain)) = instr.operands.first() else {
                return None;
            };
            let dsb = instr.mnemonic == "dsb";
            match domain.as_str() {
                "ish" | "sy" => Some(if dsb {
                    Barrier::DsbFull
                } else {
                    Barrier::DmbFull
                }),
                "ishst" | "st" => Some(if dsb { Barrier::DsbSt } else { Barrier::DmbSt }),
                "ishld" | "ld" => Some(if dsb { Barrier::DsbLd } else { Barrier::DmbLd }),
                _ => None,
            }
        }
        _ => None,
    }
}

/// Lift one scraped template and classify what it emits.
#[must_use]
pub fn lift_template(template: &str) -> Option<Barrier> {
    let concrete = substitute_placeholders(template);
    let file = parse(&concrete).ok()?;
    let instr = file.instrs.first()?;
    classify(instr)
}

/// Check a source file's scraped templates against a contract table.
#[must_use]
pub fn check_drift(src: &str, contract: &[(&str, Barrier)]) -> DriftReport {
    let scraped = scrape_asm_templates(src);
    let rows = contract
        .iter()
        .map(|&(function, expected)| {
            let hit = scraped.iter().find(|s| s.function == function);
            DriftRow {
                function: function.to_string(),
                expected,
                lifted: hit.and_then(|s| lift_template(&s.template)),
                template: hit.map(|s| s.template.clone()).unwrap_or_default(),
            }
        })
        .collect();
    let mut uncontracted: Vec<String> = scraped
        .iter()
        .filter(|s| !contract.iter().any(|&(f, _)| f == s.function))
        .map(|s| s.function.clone())
        .collect();
    uncontracted.dedup();
    DriftReport { rows, uncontracted }
}

/// Check the shipped `armbar-barriers` native backend against its own
/// [`ASM_CONTRACT`]. This is the call CI and `armbar run extract` gate on.
#[must_use]
pub fn check_native_drift() -> DriftReport {
    check_drift(NATIVE_SOURCE, &ASM_CONTRACT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_backend_is_drift_free() {
        let report = check_native_drift();
        assert!(report.is_clean(), "{:#?}", report.problems());
        assert_eq!(report.rows.len(), ASM_CONTRACT.len());
    }

    #[test]
    fn scraper_finds_all_contract_functions() {
        let scraped = scrape_asm_templates(NATIVE_SOURCE);
        for (f, _) in ASM_CONTRACT {
            assert!(
                scraped.iter().any(|s| s.function == f),
                "no asm! scraped for `{f}`"
            );
        }
    }

    #[test]
    fn drift_is_detected() {
        let src = "\
pub fn dmb_st() {
    unsafe {
        core::arch::asm!(\"dmb ish\", options(nostack));
    }
}
";
        let report = check_drift(src, &[("dmb_st", Barrier::DmbSt)]);
        assert!(!report.is_clean());
        assert_eq!(report.rows[0].lifted, Some(Barrier::DmbFull));
        assert!(report.problems()[0].contains("dmb_st"));
    }

    #[test]
    fn uncontracted_asm_is_reported() {
        let src = "\
pub fn sneaky() {
    unsafe { core::arch::asm!(\"isb\"); }
}
";
        let report = check_drift(src, &[]);
        assert_eq!(report.uncontracted, vec!["sneaky".to_string()]);
        assert!(!report.is_clean());
    }

    #[test]
    fn multiline_asm_templates_are_scraped() {
        let scraped = scrape_asm_templates(NATIVE_SOURCE);
        let ldar = scraped
            .iter()
            .find(|s| s.function == "load_acquire_u64")
            .expect("ldar wrapper scraped");
        assert_eq!(ldar.template, "ldar {out}, [{ptr}]");
        assert_eq!(lift_template(&ldar.template), Some(Barrier::Ldar));
    }

    #[test]
    fn placeholder_substitution() {
        assert_eq!(
            substitute_placeholders("stlr {val}, [{ptr}]"),
            "stlr x20, [x21]"
        );
    }
}
