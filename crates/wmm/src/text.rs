//! [`Display`](fmt::Display) for [`Instr`] and [`Program`]: an
//! assembly-like litmus syntax shared by witness rendering, `armbar lift`,
//! and the lint report.
//!
//! The grammar is deliberately close to AArch64 assembly so a reader can
//! diff a lifted program against the `.s` file it came from:
//!
//! ```text
//! init: m1=7 m3=1
//! T0:
//!   str #20, [m1]
//!   dmb ishst
//!   stlr #1, [m100]
//! T1:
//!   ldar r0, [m100]
//!   ldr r1, [m1, r0]        // bogus address dependency on r0
//!   str #9, [m2] if r0      // control dependency on r0
//!   str #5^r0, [m2]         // bogus data dependency (DepConst)
//!   fence CTRL+ISB          // non-instruction taxonomy entries
//! ```
//!
//! Registers print as `r{n}` (dense [`Reg`](crate::model::Reg) indices, not architectural
//! names) and locations as `m{n}`, because a [`Program`]'s operands are
//! already resolved model indices — the symbol names of the source
//! assembly are gone by the time a program exists. Barrier *instructions*
//! print as their real mnemonics (`dmb ish`, `isb`, …); taxonomy entries
//! that are not standalone instructions (dependency idioms, `LDAR` as a
//! fence-position placeholder in mutation experiments) print as
//! `fence <mnemonic>` using [`Barrier::mnemonic`].
//!
//! The text is write-only: nothing parses it back (a `.s` file is the
//! input format, through `armbar-extract`). Its exact bytes are pinned by
//! the golden in `crates/extract/tests/display_golden.rs`.

use core::fmt;

use armbar_barriers::{Acquire, Barrier};

use crate::model::{Instr, Program, Src};

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::Load {
                reg,
                loc,
                acquire,
                addr_dep,
            } => {
                let mnemonic = match acquire {
                    Acquire::No => "ldr",
                    Acquire::Pc => "ldapr",
                    Acquire::Sc => "ldar",
                };
                match addr_dep {
                    None => write!(f, "{mnemonic} r{reg}, [m{loc}]"),
                    Some(d) => write!(f, "{mnemonic} r{reg}, [m{loc}, r{d}]"),
                }
            }
            Instr::Store {
                loc,
                src,
                release,
                addr_dep,
                ctrl_dep,
            } => {
                let mnemonic = if *release { "stlr" } else { "str" };
                write!(f, "{mnemonic} ")?;
                match src {
                    Src::Const(v) => write!(f, "#{v}")?,
                    Src::Reg(r) => write!(f, "r{r}")?,
                    Src::DepConst { reg, value } => write!(f, "#{value}^r{reg}")?,
                }
                match addr_dep {
                    None => write!(f, ", [m{loc}]")?,
                    Some(d) => write!(f, ", [m{loc}, r{d}]")?,
                }
                if let Some(c) = ctrl_dep {
                    write!(f, " if r{c}")?;
                }
                Ok(())
            }
            Instr::Fence(b) => match b {
                Barrier::DmbFull => f.write_str("dmb ish"),
                Barrier::DmbSt => f.write_str("dmb ishst"),
                Barrier::DmbLd => f.write_str("dmb ishld"),
                Barrier::DsbFull => f.write_str("dsb ish"),
                Barrier::DsbSt => f.write_str("dsb ishst"),
                Barrier::DsbLd => f.write_str("dsb ishld"),
                Barrier::Isb => f.write_str("isb"),
                taxonomy => write!(f, "fence {}", taxonomy.mnemonic()),
            },
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.init.is_empty() {
            write!(f, "init:")?;
            for (loc, v) in &self.init {
                write!(f, " m{loc}={v}")?;
            }
            writeln!(f)?;
        }
        for (tid, t) in self.threads.iter().enumerate() {
            writeln!(f, "T{tid}:")?;
            for i in &t.instrs {
                writeln!(f, "  {i}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Thread;

    #[test]
    fn instr_display_examples() {
        assert_eq!(Instr::load(0, 3).to_string(), "ldr r0, [m3]");
        assert_eq!(Instr::load_acq(1, 2).to_string(), "ldar r1, [m2]");
        assert_eq!(Instr::load_acq_pc(1, 2).to_string(), "ldapr r1, [m2]");
        assert_eq!(
            Instr::load_addr_dep(2, 5, 0).to_string(),
            "ldr r2, [m5, r0]"
        );
        assert_eq!(Instr::store(1, 23).to_string(), "str #23, [m1]");
        assert_eq!(Instr::store_rel(1, 23).to_string(), "stlr #23, [m1]");
        assert_eq!(
            Instr::store_data_dep(7, 9, 3).to_string(),
            "str #9^r3, [m7]"
        );
        assert_eq!(
            Instr::store_addr_dep(7, 9, 3).to_string(),
            "str #9, [m7, r3]"
        );
        assert_eq!(
            Instr::store_ctrl_dep(7, 9, 3).to_string(),
            "str #9, [m7] if r3"
        );
        assert_eq!(Instr::Fence(Barrier::DmbSt).to_string(), "dmb ishst");
        assert_eq!(Instr::Fence(Barrier::Isb).to_string(), "isb");
        assert_eq!(Instr::Fence(Barrier::Ldar).to_string(), "fence LDAR");
        assert_eq!(Instr::Fence(Barrier::CtrlIsb).to_string(), "fence CTRL+ISB");
    }

    #[test]
    fn store_reg_src_display() {
        let i = Instr::Store {
            loc: 4,
            src: Src::Reg(2),
            release: false,
            addr_dep: None,
            ctrl_dep: None,
        };
        assert_eq!(i.to_string(), "str r2, [m4]");
    }

    #[test]
    fn program_display_with_init() {
        let p = Program {
            threads: vec![
                Thread {
                    instrs: vec![
                        Instr::store(0, 23),
                        Instr::Fence(Barrier::DmbSt),
                        Instr::store(1, 1),
                    ],
                },
                Thread {
                    instrs: vec![Instr::load_acq(0, 1), Instr::load(1, 0)],
                },
            ],
            init: vec![(0, 7), (9, 1)],
        };
        assert_eq!(
            p.to_string(),
            "init: m0=7 m9=1\nT0:\n  str #23, [m0]\n  dmb ishst\n  str #1, [m1]\n\
             T1:\n  ldar r0, [m1]\n  ldr r1, [m0]\n"
        );
    }
}
