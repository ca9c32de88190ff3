//! Program mutation: enumerate the order-preserving *sites* of a
//! [`Program`], delete them, or substitute a different approach.
//!
//! This is the surgical half of `armbar lint`: the analyzer proposes a
//! mutation (drop a barrier, downgrade `DSB` to `DMB st`, turn a
//! `DMB full` into a bogus address dependency) and the explorer then
//! compares the mutated program's [`OutcomeSet`](crate::explore::OutcomeSet)
//! against the original's, so every proposal ships with a machine-checked
//! verdict instead of a plausible-sounding claim.
//!
//! Removing a site only ever *relaxes* the per-thread ordering relation —
//! a fence stops pivoting, a flag stops ordering, a dependency edge
//! disappears — so the mutated outcome set is always a superset of the
//! original's. The lint leans on that monotonicity: a removal is safe
//! exactly when the sets are *equal*, and a substitution is safe exactly
//! when it adds no outcome.

use armbar_barriers::{Acquire, Barrier};

use crate::model::{Instr, Program, Src};

/// What kind of order-preserving construct sits at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SiteKind {
    /// A standalone [`Instr::Fence`] carrying this barrier.
    Fence(Barrier),
    /// An RCsc acquire annotation on a load (`LDAR`).
    Acquire,
    /// An RCpc acquire annotation on a load (`LDAPR`).
    AcquirePc,
    /// The `release` flag of a store (`STLR`).
    Release,
    /// A bogus address dependency (`addr_dep`) on a load or store.
    AddrDep,
    /// A bogus data dependency (a [`Src::DepConst`] store operand).
    DataDep,
    /// A control dependency (`ctrl_dep`) on a store.
    CtrlDep,
}

impl SiteKind {
    /// The [`Barrier`] taxonomy entry this site realizes — the thing whose
    /// cost the advisor and the cost ranking reason about.
    #[must_use]
    pub fn as_barrier(self) -> Barrier {
        match self {
            SiteKind::Fence(b) => b,
            SiteKind::Acquire => Barrier::Ldar,
            SiteKind::AcquirePc => Barrier::Ldapr,
            SiteKind::Release => Barrier::Stlr,
            SiteKind::AddrDep => Barrier::AddrDep,
            SiteKind::DataDep => Barrier::DataDep,
            SiteKind::CtrlDep => Barrier::Ctrl,
        }
    }
}

/// One order-preserving site: thread `tid`, instruction `idx`, and what
/// kind of construct lives there.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BarrierSite {
    /// Thread index.
    pub tid: usize,
    /// Instruction index in that thread's program order.
    pub idx: usize,
    /// The construct at that instruction.
    pub kind: SiteKind,
}

impl BarrierSite {
    /// Short human-readable label, e.g. `T0#1 DMB full`.
    #[must_use]
    pub fn describe(&self) -> String {
        format!("T{}#{} {}", self.tid, self.idx, self.kind.as_barrier())
    }
}

/// Every order-preserving site of `program`, in deterministic
/// (thread-major, program-order) order. One instruction can host several
/// sites (e.g. a store with both an address and a control dependency).
#[must_use]
pub fn barrier_sites(program: &Program) -> Vec<BarrierSite> {
    let mut sites = Vec::new();
    for (tid, thread) in program.threads.iter().enumerate() {
        for (idx, instr) in thread.instrs.iter().enumerate() {
            let mut push = |kind| sites.push(BarrierSite { tid, idx, kind });
            match instr {
                Instr::Fence(b) => push(SiteKind::Fence(*b)),
                Instr::Load {
                    acquire, addr_dep, ..
                } => {
                    match acquire {
                        Acquire::No => {}
                        Acquire::Pc => push(SiteKind::AcquirePc),
                        Acquire::Sc => push(SiteKind::Acquire),
                    }
                    if addr_dep.is_some() {
                        push(SiteKind::AddrDep);
                    }
                }
                Instr::Store {
                    src,
                    release,
                    addr_dep,
                    ctrl_dep,
                    ..
                } => {
                    if *release {
                        push(SiteKind::Release);
                    }
                    if addr_dep.is_some() {
                        push(SiteKind::AddrDep);
                    }
                    if matches!(src, Src::DepConst { .. }) {
                        push(SiteKind::DataDep);
                    }
                    if ctrl_dep.is_some() {
                        push(SiteKind::CtrlDep);
                    }
                }
            }
        }
    }
    sites
}

/// `program` with the construct at `site` deleted: the fence instruction
/// removed, or the flag/dependency cleared. Values, locations, and every
/// other ordering construct are untouched, so outcomes of the mutated
/// program are directly comparable to the original's.
///
/// # Panics
///
/// Panics when `site` does not name a construct of `program` (sites must
/// come from [`barrier_sites`] on the same program).
#[must_use]
pub fn remove_site(program: &Program, site: BarrierSite) -> Program {
    let mut p = program.clone();
    let instr = &mut p.threads[site.tid].instrs[site.idx];
    match (site.kind, &mut *instr) {
        (SiteKind::Fence(b), Instr::Fence(f)) => {
            assert_eq!(*f, b, "site names a different fence");
            p.threads[site.tid].instrs.remove(site.idx);
        }
        (SiteKind::Acquire, Instr::Load { acquire, .. }) => {
            assert_eq!(*acquire, Acquire::Sc, "site names a non-LDAR load");
            *acquire = Acquire::No;
        }
        (SiteKind::AcquirePc, Instr::Load { acquire, .. }) => {
            assert_eq!(*acquire, Acquire::Pc, "site names a non-LDAPR load");
            *acquire = Acquire::No;
        }
        (SiteKind::Release, Instr::Store { release, .. }) => {
            assert!(*release, "site names a non-release store");
            *release = false;
        }
        (SiteKind::AddrDep, Instr::Load { addr_dep, .. })
        | (SiteKind::AddrDep, Instr::Store { addr_dep, .. }) => {
            assert!(addr_dep.is_some(), "site names a dep-free access");
            *addr_dep = None;
        }
        (SiteKind::DataDep, Instr::Store { src, .. }) => {
            let Src::DepConst { value, .. } = *src else {
                panic!("site names a store without a bogus data dependency");
            };
            *src = Src::Const(value);
        }
        (SiteKind::CtrlDep, Instr::Store { ctrl_dep, .. }) => {
            assert!(ctrl_dep.is_some(), "site names a ctrl-free store");
            *ctrl_dep = None;
        }
        (kind, instr) => panic!("site kind {kind:?} does not match {instr:?}"),
    }
    p
}

/// The nearest load *before* `idx` in the thread (its destination register
/// is the natural root for a constructed dependency).
fn preceding_load(program: &Program, tid: usize, idx: usize) -> Option<(usize, u8)> {
    program.threads[tid].instrs[..idx]
        .iter()
        .enumerate()
        .rev()
        .find_map(|(i, instr)| match instr {
            Instr::Load { reg, .. } => Some((i, *reg)),
            _ => None,
        })
}

/// `program` with the fence at `site` replaced by `approach`.
///
/// * Standalone barrier instructions (and `CTRL+ISB`, which the model
///   carries as a fence) substitute in place; [`Barrier::None`] deletes the
///   fence.
/// * `LDAR` annotates the nearest preceding load of the same thread.
/// * `STLR` annotates the next following store of the same thread.
/// * The dependency idioms consume the nearest preceding load's register:
///   `ADDR DEP` feeds the next following access's address, `DATA DEP` the
///   next following store's value, `CTRL` the next following store's
///   branch condition.
///
/// Returns `None` when the rewrite is not constructible in this thread
/// shape (no preceding load, no following store, the operand is already
/// dependency-carrying, …) — the advisor may suggest approaches a
/// particular program cannot express, and the lint simply skips those.
///
/// # Panics
///
/// Panics when `site` is not a fence site of `program`.
#[must_use]
pub fn replace_fence(program: &Program, site: BarrierSite, approach: Barrier) -> Option<Program> {
    let SiteKind::Fence(orig) = site.kind else {
        panic!("replace_fence requires a fence site, got {:?}", site.kind);
    };
    assert!(
        matches!(
            program.threads[site.tid].instrs.get(site.idx),
            Some(Instr::Fence(f)) if *f == orig
        ),
        "site does not name a fence of this program"
    );
    if approach == Barrier::None {
        return Some(remove_site(program, site));
    }
    if approach.is_standalone() {
        let mut p = program.clone();
        p.threads[site.tid].instrs[site.idx] = Instr::Fence(approach);
        return Some(p);
    }

    // Access-attached approaches: rewrite a neighbour, then drop the fence.
    let mut p = program.clone();
    let thread = &mut p.threads[site.tid];
    match approach {
        Barrier::Ldar | Barrier::Ldapr => {
            let (i, _) = preceding_load(program, site.tid, site.idx)?;
            let Instr::Load { acquire, .. } = &mut thread.instrs[i] else {
                unreachable!("preceding_load returns loads");
            };
            if *acquire != Acquire::No {
                return None;
            }
            *acquire = if approach == Barrier::Ldar {
                Acquire::Sc
            } else {
                Acquire::Pc
            };
        }
        Barrier::Stlr => {
            let i = thread.instrs[site.idx + 1..]
                .iter()
                .position(|instr| matches!(instr, Instr::Store { .. }))
                .map(|off| site.idx + 1 + off)?;
            let Instr::Store { release, .. } = &mut thread.instrs[i] else {
                unreachable!("position matched a store");
            };
            if *release {
                return None;
            }
            *release = true;
        }
        Barrier::AddrDep | Barrier::DataDep | Barrier::Ctrl => {
            let (_, reg) = preceding_load(program, site.tid, site.idx)?;
            let want_store = approach != Barrier::AddrDep;
            let i = thread.instrs[site.idx + 1..]
                .iter()
                .position(|instr| match instr {
                    Instr::Store { .. } => true,
                    Instr::Load { .. } => !want_store,
                    Instr::Fence(_) => false,
                })
                .map(|off| site.idx + 1 + off)?;
            match (&mut thread.instrs[i], approach) {
                (Instr::Load { addr_dep, .. }, Barrier::AddrDep)
                | (Instr::Store { addr_dep, .. }, Barrier::AddrDep) => {
                    if addr_dep.is_some() {
                        return None;
                    }
                    *addr_dep = Some(reg);
                }
                (Instr::Store { src, .. }, Barrier::DataDep) => {
                    let Src::Const(value) = *src else {
                        return None;
                    };
                    *src = Src::DepConst { reg, value };
                }
                (Instr::Store { ctrl_dep, .. }, Barrier::Ctrl) => {
                    if ctrl_dep.is_some() {
                        return None;
                    }
                    *ctrl_dep = Some(reg);
                }
                _ => return None,
            }
        }
        _ => return None,
    }
    p.threads[site.tid].instrs.remove(site.idx);
    Some(p)
}

/// `program` with the acquire annotation at `site` rewritten to `to` —
/// the LDAR↔LDAPR strength dial. Returns `None` when the load already
/// carries `to` (nothing to rewrite); use [`remove_site`] to drop the
/// annotation entirely (`to == Acquire::No` is rejected the same way when
/// it would be a no-op, and otherwise behaves like a removal).
///
/// # Panics
///
/// Panics when `site` is not an acquire site
/// ([`SiteKind::Acquire`]/[`SiteKind::AcquirePc`]) of `program`.
#[must_use]
pub fn rewrite_acquire(program: &Program, site: BarrierSite, to: Acquire) -> Option<Program> {
    let expect = match site.kind {
        SiteKind::Acquire => Acquire::Sc,
        SiteKind::AcquirePc => Acquire::Pc,
        other => panic!("rewrite_acquire requires an acquire site, got {other:?}"),
    };
    let mut p = program.clone();
    let Some(Instr::Load { acquire, .. }) = p.threads[site.tid].instrs.get_mut(site.idx) else {
        panic!("site does not name a load of this program");
    };
    assert_eq!(*acquire, expect, "site annotation mismatch");
    if *acquire == to {
        return None;
    }
    *acquire = to;
    Some(p)
}

/// One site-directed rewrite, the unit a [`RewritePlan`] composes.
///
/// Each variant wraps one of the site-level entry points ([`remove_site`],
/// [`replace_fence`], [`rewrite_acquire`]) with the site it targets, so a
/// plan can order its applications soundly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rewrite {
    /// Delete the construct at the site ([`remove_site`]).
    Remove(BarrierSite),
    /// Swap the fence at the site for a different approach
    /// ([`replace_fence`]); [`Barrier::None`] behaves like a removal.
    ReplaceFence(BarrierSite, Barrier),
    /// Re-dial the acquire annotation at the site ([`rewrite_acquire`]).
    RewriteAcquire(BarrierSite, Acquire),
}

impl Rewrite {
    /// The site this rewrite targets (in the coordinates of the program the
    /// sites were enumerated from).
    #[must_use]
    pub fn site(&self) -> BarrierSite {
        match *self {
            Rewrite::Remove(s) | Rewrite::ReplaceFence(s, _) | Rewrite::RewriteAcquire(s, _) => s,
        }
    }

    /// The approach left standing at the site after this rewrite — what the
    /// cost ranking should charge for it. [`Barrier::None`] means the site
    /// is gone entirely.
    #[must_use]
    pub fn approach(&self) -> Barrier {
        match *self {
            Rewrite::Remove(_) => Barrier::None,
            Rewrite::ReplaceFence(_, b) => b,
            Rewrite::RewriteAcquire(_, to) => to.barrier().unwrap_or(Barrier::None),
        }
    }

    /// Apply this rewrite alone to `program`. `None` when the rewrite is
    /// not constructible (see [`replace_fence`]) or is a no-op
    /// ([`rewrite_acquire`] to the annotation already present).
    #[must_use]
    pub fn apply(&self, program: &Program) -> Option<Program> {
        match *self {
            Rewrite::Remove(site) => Some(remove_site(program, site)),
            Rewrite::ReplaceFence(site, approach) => replace_fence(program, site, approach),
            Rewrite::RewriteAcquire(site, to) => rewrite_acquire(program, site, to),
        }
    }
}

/// A *composable* set of rewrites against one program.
///
/// The site-level entry points each take sites enumerated from the program
/// they are applied to. Chaining them naively — `remove_site` then
/// `replace_fence` with sites both computed from the *original* program —
/// is unsound: a fence removal shifts every later index in its thread, so
/// the second call silently rewrites the wrong instruction (or trips an
/// assertion if the shifted slot holds a different construct). `RewritePlan`
/// fixes the composition by applying rewrites in **descending**
/// `(tid, idx)` order: a removal at index `i` only renumbers indices
/// strictly greater than `i` in the same thread, and those have all been
/// applied already. Neighbour edits made by [`replace_fence`] (acquire
/// flags on preceding loads, release flags / constructed dependencies on
/// following accesses) change instruction *fields*, never indices, and the
/// forward scans skip fences, so the neighbour resolved mid-plan is the
/// same instruction the rewrite would target on the original program.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RewritePlan {
    rewrites: Vec<Rewrite>,
}

impl RewritePlan {
    /// An empty plan (applies as the identity).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A plan over the given rewrites.
    #[must_use]
    pub fn from_rewrites(rewrites: Vec<Rewrite>) -> Self {
        Self { rewrites }
    }

    /// Add one rewrite. Order of insertion is irrelevant: application order
    /// is decided by [`RewritePlan::apply`].
    pub fn push(&mut self, rewrite: Rewrite) {
        self.rewrites.push(rewrite);
    }

    /// The rewrites in insertion order.
    #[must_use]
    pub fn rewrites(&self) -> &[Rewrite] {
        &self.rewrites
    }

    /// Number of rewrites in the plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rewrites.len()
    }

    /// `true` when the plan is the identity.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rewrites.is_empty()
    }

    /// Apply every rewrite to `program`, highest `(tid, idx)` first so no
    /// site index ever goes stale. All sites must come from
    /// [`barrier_sites`] on `program` itself.
    ///
    /// Returns `None` when any constituent rewrite is unconstructible or a
    /// no-op (see [`Rewrite::apply`]) — a partial application is never
    /// returned.
    ///
    /// # Panics
    ///
    /// Panics when two rewrites target the same site, or when a site does
    /// not name a construct of `program`.
    #[must_use]
    pub fn apply(&self, program: &Program) -> Option<Program> {
        let mut ordered: Vec<&Rewrite> = self.rewrites.iter().collect();
        // Descending (tid, idx); same-index sites (distinct constructs on
        // one access) are field edits and cannot interfere, but order them
        // by kind anyway so application is deterministic.
        ordered.sort_by_key(|r| {
            let s = r.site();
            (
                core::cmp::Reverse(s.tid),
                core::cmp::Reverse(s.idx),
                s.kind.as_barrier() as usize,
            )
        });
        for pair in ordered.windows(2) {
            assert!(
                pair[0].site() != pair[1].site(),
                "two rewrites target the same site {}",
                pair[0].site().describe()
            );
        }
        let mut p = program.clone();
        for rewrite in ordered {
            p = rewrite.apply(&p)?;
        }
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::explore;
    use crate::litmus::message_passing;
    use crate::model::{MemoryModel, Thread};

    fn mp_fixed() -> Program {
        message_passing(Barrier::DmbSt, Barrier::DmbLd).program
    }

    #[test]
    fn sites_enumerate_in_program_order() {
        let p = mp_fixed();
        let sites = barrier_sites(&p);
        assert_eq!(sites.len(), 2);
        assert_eq!(sites[0].kind, SiteKind::Fence(Barrier::DmbSt));
        assert_eq!((sites[0].tid, sites[0].idx), (0, 1));
        assert_eq!(sites[1].kind, SiteKind::Fence(Barrier::DmbLd));
        assert_eq!(sites[1].describe(), "T1#1 DMB ld");
    }

    #[test]
    fn flag_and_dep_sites_are_found() {
        let p = message_passing(Barrier::Stlr, Barrier::Ldar).program;
        let kinds: Vec<SiteKind> = barrier_sites(&p).iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SiteKind::Release, SiteKind::Acquire]);

        let t = Thread {
            instrs: vec![Instr::load(0, 0), Instr::store_data_dep(1, 9, 0)],
        };
        let p = Program {
            threads: vec![t],
            init: vec![],
        };
        let kinds: Vec<SiteKind> = barrier_sites(&p).iter().map(|s| s.kind).collect();
        assert_eq!(kinds, vec![SiteKind::DataDep]);
    }

    #[test]
    fn removal_only_relaxes() {
        // Dropping any site of the fixed MP yields a superset of outcomes.
        let p = mp_fixed();
        let base = explore(&p, MemoryModel::ArmWmm);
        for site in barrier_sites(&p) {
            let cut = remove_site(&p, site);
            let got = explore(&cut, MemoryModel::ArmWmm);
            let diff = base.diff(&got);
            assert!(
                diff.removed.is_empty(),
                "removing {} lost outcomes",
                site.describe()
            );
            assert!(
                !diff.added.is_empty(),
                "both MP barriers are necessary, removing {} must widen",
                site.describe()
            );
        }
    }

    #[test]
    fn remove_clears_flags_and_deps() {
        let p = message_passing(Barrier::Stlr, Barrier::Ldar).program;
        for site in barrier_sites(&p) {
            let cut = remove_site(&p, site);
            assert!(
                barrier_sites(&cut).len() < barrier_sites(&p).len(),
                "site count must drop"
            );
            // Instruction count is unchanged for flag sites.
            assert_eq!(cut.threads[site.tid].instrs.len(), 2);
        }
    }

    #[test]
    fn replace_fence_with_weaker_instruction() {
        let p = message_passing(Barrier::DsbFull, Barrier::DmbLd).program;
        let site = barrier_sites(&p)[0];
        let q = replace_fence(&p, site, Barrier::DmbSt).expect("instruction swap");
        assert!(matches!(
            q.threads[0].instrs[1],
            Instr::Fence(Barrier::DmbSt)
        ));
        // DSB full -> DMB st preserves the forbidden set for MP's producer.
        let base = explore(&p, MemoryModel::ArmWmm);
        let swapped = explore(&q, MemoryModel::ArmWmm);
        assert_eq!(base, swapped);
    }

    #[test]
    fn replace_fence_with_addr_dep_rewrites_consumer() {
        let p = message_passing(Barrier::DmbSt, Barrier::DmbFull).program;
        let site = barrier_sites(&p)[1];
        let q = replace_fence(&p, site, Barrier::AddrDep).expect("dep constructible");
        // Fence gone, data load now address-depends on the flag load.
        assert_eq!(q.threads[1].instrs.len(), 2);
        assert!(matches!(
            q.threads[1].instrs[1],
            Instr::Load {
                addr_dep: Some(0),
                ..
            }
        ));
        let base = explore(&p, MemoryModel::ArmWmm);
        let dep = explore(&q, MemoryModel::ArmWmm);
        assert!(base.diff(&dep).added.is_empty(), "dep must not widen");
    }

    #[test]
    fn replace_fence_ldar_and_stlr() {
        let p = message_passing(Barrier::DmbSt, Barrier::DmbLd).program;
        let sites = barrier_sites(&p);
        let q = replace_fence(&p, sites[1], Barrier::Ldar).expect("consumer has a load");
        assert!(matches!(
            q.threads[1].instrs[0],
            Instr::Load {
                acquire: Acquire::Sc,
                ..
            }
        ));
        let q = replace_fence(&p, sites[1], Barrier::Ldapr).expect("consumer has a load");
        assert!(matches!(
            q.threads[1].instrs[0],
            Instr::Load {
                acquire: Acquire::Pc,
                ..
            }
        ));
        let q = replace_fence(&p, sites[0], Barrier::Stlr).expect("producer has a store");
        assert!(matches!(
            q.threads[0].instrs[1],
            Instr::Store { release: true, .. }
        ));
        // Producer side has no preceding load: dependencies and LDAR are
        // not constructible there.
        assert!(replace_fence(&p, sites[0], Barrier::AddrDep).is_none());
        assert!(replace_fence(&p, sites[0], Barrier::Ldar).is_none());
    }

    #[test]
    fn replace_fence_none_removes() {
        let p = mp_fixed();
        let site = barrier_sites(&p)[0];
        let q = replace_fence(&p, site, Barrier::None).expect("removal");
        assert_eq!(q.threads[0].instrs.len(), 2);
    }

    #[test]
    fn rewrite_acquire_dials_between_ldar_and_ldapr() {
        let p = message_passing(Barrier::Stlr, Barrier::Ldar).program;
        let site = barrier_sites(&p)
            .into_iter()
            .find(|s| s.kind == SiteKind::Acquire)
            .expect("consumer LDAR site");
        let down = rewrite_acquire(&p, site, Acquire::Pc).expect("downgrade");
        assert!(matches!(
            down.threads[1].instrs[0],
            Instr::Load {
                acquire: Acquire::Pc,
                ..
            }
        ));
        // The downgraded program exposes an AcquirePc site that dials back up.
        let pc_site = barrier_sites(&down)
            .into_iter()
            .find(|s| s.kind == SiteKind::AcquirePc)
            .expect("LDAPR site after downgrade");
        let up = rewrite_acquire(&down, pc_site, Acquire::Sc).expect("upgrade");
        assert_eq!(up, p);
        // Rewriting to the annotation already present is a no-op.
        assert!(rewrite_acquire(&p, site, Acquire::Sc).is_none());
    }

    /// Three same-kind fences in a row: composing "remove #1, upgrade #2"
    /// with stale original-program sites silently upgrades #3 instead.
    fn triple_fence() -> Program {
        let t0 = Thread {
            instrs: vec![
                Instr::store(0, 1),
                Instr::Fence(Barrier::DmbSt),
                Instr::Fence(Barrier::DmbSt),
                Instr::Fence(Barrier::DmbSt),
                Instr::store(1, 1),
            ],
        };
        Program {
            threads: vec![t0],
            init: vec![],
        }
    }

    #[test]
    fn naive_sequential_rewrites_hit_the_wrong_instruction() {
        let p = triple_fence();
        let sites = barrier_sites(&p);
        assert_eq!(sites.len(), 3);
        let (first, second) = (sites[0], sites[1]);

        // Intended composition: delete fence #1, upgrade fence #2 to DMB full.
        let plan = RewritePlan::from_rewrites(vec![
            Rewrite::Remove(first),
            Rewrite::ReplaceFence(second, Barrier::DmbFull),
        ]);
        let composed = plan.apply(&p).expect("both rewrites constructible");
        let fences: Vec<_> = composed.threads[0]
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Fence(b) => Some(*b),
                _ => None,
            })
            .collect();
        assert_eq!(fences, vec![Barrier::DmbFull, Barrier::DmbSt]);

        // The naive chain applies `second` to a program whose indices have
        // shifted: slot #2 now holds what used to be fence #3, and because
        // the kinds coincide the mis-rewrite is *silent*.
        let cut = remove_site(&p, first);
        let naive = replace_fence(&cut, second, Barrier::DmbFull).expect("silently applies");
        let naive_fences: Vec<_> = naive.threads[0]
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::Fence(b) => Some(*b),
                _ => None,
            })
            .collect();
        assert_eq!(
            naive_fences,
            vec![Barrier::DmbSt, Barrier::DmbFull],
            "the naive chain upgrades fence #3, not fence #2"
        );
        assert_ne!(naive, composed);
    }

    #[test]
    fn plan_composes_two_rewrites_on_the_same_thread() {
        // MP consumer with a redundant leading fence: delete it and swap the
        // real fence for a constructed address dependency, in one plan.
        let mut p = message_passing(Barrier::DmbSt, Barrier::DmbFull).program;
        p.threads[1]
            .instrs
            .insert(1, Instr::Fence(Barrier::DmbFull));
        let sites = barrier_sites(&p);
        let consumer: Vec<_> = sites.iter().filter(|s| s.tid == 1).copied().collect();
        assert_eq!(consumer.len(), 2);
        let plan = RewritePlan::from_rewrites(vec![
            Rewrite::Remove(consumer[0]),
            Rewrite::ReplaceFence(consumer[1], Barrier::AddrDep),
        ]);
        let q = plan.apply(&p).expect("both rewrites constructible");
        assert_eq!(q.threads[1].instrs.len(), 2);
        assert!(matches!(
            q.threads[1].instrs[1],
            Instr::Load {
                addr_dep: Some(0),
                ..
            }
        ));
        // The dependency still pins MP's forbidden outcome.
        let base = explore(&p, MemoryModel::ArmWmm);
        let got = explore(&q, MemoryModel::ArmWmm);
        assert!(base.diff(&got).added.is_empty(), "plan must not widen");
    }

    #[test]
    fn plan_applies_across_threads_and_detects_noops() {
        let p = message_passing(Barrier::DmbSt, Barrier::DmbLd).program;
        let sites = barrier_sites(&p);
        let plan = RewritePlan::from_rewrites(vec![
            Rewrite::ReplaceFence(sites[0], Barrier::Stlr),
            Rewrite::ReplaceFence(sites[1], Barrier::Ldapr),
        ]);
        let q = plan.apply(&p).expect("both attachable");
        assert!(matches!(
            q.threads[0].instrs[1],
            Instr::Store { release: true, .. }
        ));
        assert!(matches!(
            q.threads[1].instrs[0],
            Instr::Load {
                acquire: Acquire::Pc,
                ..
            }
        ));
        // Any unconstructible member poisons the whole plan.
        let bad = RewritePlan::from_rewrites(vec![
            Rewrite::Remove(sites[1]),
            Rewrite::ReplaceFence(sites[0], Barrier::AddrDep),
        ]);
        assert!(bad.apply(&p).is_none(), "producer has no preceding load");
        // An empty plan is the identity.
        assert_eq!(RewritePlan::new().apply(&p), Some(p));
    }

    #[test]
    #[should_panic(expected = "same site")]
    fn plan_rejects_duplicate_sites() {
        let p = mp_fixed();
        let site = barrier_sites(&p)[0];
        let plan = RewritePlan::from_rewrites(vec![
            Rewrite::Remove(site),
            Rewrite::ReplaceFence(site, Barrier::DmbFull),
        ]);
        let _ = plan.apply(&p);
    }

    #[test]
    fn acquire_pc_sites_are_enumerated_and_removable() {
        let t = Thread {
            instrs: vec![Instr::load_acq_pc(0, 0), Instr::store(1, 1)],
        };
        let p = Program {
            threads: vec![t],
            init: vec![],
        };
        let sites = barrier_sites(&p);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].kind, SiteKind::AcquirePc);
        assert_eq!(sites[0].kind.as_barrier(), Barrier::Ldapr);
        let cut = remove_site(&p, sites[0]);
        assert!(barrier_sites(&cut).is_empty());
    }
}
