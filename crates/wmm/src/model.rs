//! Litmus programs and the per-model ordering relation.
//!
//! A [`Program`] is a handful of loop-free [`Thread`]s over a small set of
//! shared locations. The memory model enters in exactly one place:
//! [`MemoryModel::ordered`] says whether instruction `i` must perform before
//! instruction `j` of the same thread. The explorer treats everything else
//! (interleaving, atomic global performs) identically across models.

use armbar_barriers::{AccessType, Acquire, Barrier};

/// A shared memory location (small dense index).
pub type Loc = u8;

/// A thread-local register (small dense index).
pub type Reg = u8;

/// The value operand of a store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Src {
    /// A constant.
    Const(u64),
    /// The value of a register (a *real* data dependency on the load that
    /// wrote the register).
    Reg(Reg),
    /// A constant computed through a register (`v + (r ^ r)`): the paper's
    /// *bogus* data dependency — same value as `Const`, but ordered after
    /// the producing load.
    DepConst {
        /// The register the bogus dependency goes through.
        reg: Reg,
        /// The value actually stored.
        value: u64,
    },
}

impl Src {
    /// The register this operand depends on, if any.
    #[must_use]
    pub fn dep_reg(self) -> Option<Reg> {
        match self {
            Src::Const(_) => None,
            Src::Reg(r) | Src::DepConst { reg: r, .. } => Some(r),
        }
    }
}

/// One instruction of a litmus thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `reg = [loc]`.
    Load {
        /// Destination register.
        reg: Reg,
        /// Location read.
        loc: Loc,
        /// Acquire annotation: none, RCpc (`LDAPR`) or RCsc (`LDAR`).
        acquire: Acquire,
        /// Bogus address dependency: the effective address is computed from
        /// this register (`ADDR DEP`).
        addr_dep: Option<Reg>,
    },
    /// `[loc] = src`.
    Store {
        /// Location written.
        loc: Loc,
        /// Value operand (possibly dependency-carrying).
        src: Src,
        /// Store-release (`STLR`)?
        release: bool,
        /// Bogus address dependency on a register.
        addr_dep: Option<Reg>,
        /// Control dependency: this store sits inside a branch whose
        /// condition was computed from this register (`CTRL`).
        ctrl_dep: Option<Reg>,
    },
    /// A standalone barrier.
    Fence(Barrier),
}

impl Instr {
    /// Access type, if this is a memory access.
    #[must_use]
    pub fn access_type(&self) -> Option<AccessType> {
        match self {
            Instr::Load { .. } => Some(AccessType::Load),
            Instr::Store { .. } => Some(AccessType::Store),
            Instr::Fence(_) => None,
        }
    }

    /// Location touched, if a memory access.
    #[must_use]
    pub fn loc(&self) -> Option<Loc> {
        match self {
            Instr::Load { loc, .. } | Instr::Store { loc, .. } => Some(*loc),
            Instr::Fence(_) => None,
        }
    }

    /// Register written (loads only).
    #[must_use]
    pub fn writes_reg(&self) -> Option<Reg> {
        match self {
            Instr::Load { reg, .. } => Some(*reg),
            _ => None,
        }
    }

    /// Registers this instruction syntactically depends on.
    #[must_use]
    pub fn dep_regs(&self) -> Vec<Reg> {
        match self {
            Instr::Load { addr_dep, .. } => addr_dep.iter().copied().collect(),
            Instr::Store {
                src,
                addr_dep,
                ctrl_dep,
                ..
            } => src
                .dep_reg()
                .into_iter()
                .chain(addr_dep.iter().copied())
                .chain(ctrl_dep.iter().copied())
                .collect(),
            Instr::Fence(_) => Vec::new(),
        }
    }

    /// Convenience constructors.
    #[must_use]
    pub fn load(reg: Reg, loc: Loc) -> Instr {
        Instr::Load {
            reg,
            loc,
            acquire: Acquire::No,
            addr_dep: None,
        }
    }

    /// RCsc load-acquire (`LDAR`).
    #[must_use]
    pub fn load_acq(reg: Reg, loc: Loc) -> Instr {
        Instr::Load {
            reg,
            loc,
            acquire: Acquire::Sc,
            addr_dep: None,
        }
    }

    /// RCpc load-acquire (`LDAPR`).
    #[must_use]
    pub fn load_acq_pc(reg: Reg, loc: Loc) -> Instr {
        Instr::Load {
            reg,
            loc,
            acquire: Acquire::Pc,
            addr_dep: None,
        }
    }

    /// Load with a bogus address dependency on `dep`.
    #[must_use]
    pub fn load_addr_dep(reg: Reg, loc: Loc, dep: Reg) -> Instr {
        Instr::Load {
            reg,
            loc,
            acquire: Acquire::No,
            addr_dep: Some(dep),
        }
    }

    /// Plain constant store.
    #[must_use]
    pub fn store(loc: Loc, value: u64) -> Instr {
        Instr::Store {
            loc,
            src: Src::Const(value),
            release: false,
            addr_dep: None,
            ctrl_dep: None,
        }
    }

    /// Store-release of a constant.
    #[must_use]
    pub fn store_rel(loc: Loc, value: u64) -> Instr {
        Instr::Store {
            loc,
            src: Src::Const(value),
            release: true,
            addr_dep: None,
            ctrl_dep: None,
        }
    }

    /// Store with a bogus data dependency on `dep`.
    #[must_use]
    pub fn store_data_dep(loc: Loc, value: u64, dep: Reg) -> Instr {
        Instr::Store {
            loc,
            src: Src::DepConst { reg: dep, value },
            release: false,
            addr_dep: None,
            ctrl_dep: None,
        }
    }

    /// Store with a bogus address dependency on `dep`.
    #[must_use]
    pub fn store_addr_dep(loc: Loc, value: u64, dep: Reg) -> Instr {
        Instr::Store {
            loc,
            src: Src::Const(value),
            release: false,
            addr_dep: Some(dep),
            ctrl_dep: None,
        }
    }

    /// Store under a control dependency on `dep`.
    #[must_use]
    pub fn store_ctrl_dep(loc: Loc, value: u64, dep: Reg) -> Instr {
        Instr::Store {
            loc,
            src: Src::Const(value),
            release: false,
            addr_dep: None,
            ctrl_dep: Some(dep),
        }
    }
}

/// A straight-line litmus thread.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Thread {
    /// Instructions in program order.
    pub instrs: Vec<Instr>,
}

/// A multi-threaded litmus program.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Program {
    /// The threads.
    pub threads: Vec<Thread>,
    /// Initial values of locations (unmentioned locations start at 0).
    pub init: Vec<(Loc, u64)>,
}

/// The memory model the explorer enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryModel {
    /// ARM weakly-ordered, multi-copy-atomic.
    ArmWmm,
    /// x86 total store order.
    X86Tso,
    /// Sequential consistency.
    Sc,
}

impl MemoryModel {
    /// All models.
    pub const ALL: [MemoryModel; 3] = [MemoryModel::ArmWmm, MemoryModel::X86Tso, MemoryModel::Sc];

    /// Must instruction `i` perform before instruction `j` (`i` earlier in
    /// program order) within one thread?
    ///
    /// The relation is computed per *pair*; the explorer requires all
    /// ordered predecessors of `j` to have performed before `j` may.
    #[must_use]
    pub fn ordered(self, thread: &Thread, i: usize, j: usize) -> bool {
        debug_assert!(i < j);
        let a = &thread.instrs[i];
        let b = &thread.instrs[j];

        // Fences always perform in program order relative to everything
        // (they are ordering points, not reorderable operations).
        if matches!(a, Instr::Fence(_)) || matches!(b, Instr::Fence(_)) {
            return Self::fence_edge(self, thread, i, j);
        }

        let (Some(ta), Some(tb)) = (a.access_type(), b.access_type()) else {
            return true;
        };

        // Coherence: same-location program order is preserved by all models.
        if a.loc() == b.loc() {
            return true;
        }

        match self {
            MemoryModel::Sc => true,
            MemoryModel::X86Tso => {
                // Only store->load (different locations) may reorder.
                !(ta == AccessType::Store && tb == AccessType::Load)
            }
            MemoryModel::ArmWmm => {
                // Acquire on the earlier load: both RCsc and RCpc order the
                // annotated load before everything younger.
                if let Instr::Load { acquire, .. } = a {
                    if acquire.is_acquire() {
                        return true;
                    }
                }
                // Release on the later store.
                if let Instr::Store { release: true, .. } = b {
                    return true;
                }
                // RCsc: an earlier store-release may not drain past a later
                // LDAR. This is the one edge RCpc relaxes — with
                // `Acquire::Pc` (LDAPR) the pair stays unordered.
                if matches!(a, Instr::Store { release: true, .. })
                    && matches!(
                        b,
                        Instr::Load {
                            acquire: Acquire::Sc,
                            ..
                        }
                    )
                {
                    return true;
                }
                // Dependencies from a's destination register into b. Control
                // dependencies only exist on stores (loads carry address
                // deps), so every syntactic dependency here is ordering.
                if let Some(r) = a.writes_reg() {
                    if b.dep_regs().contains(&r) {
                        return true;
                    }
                }
                // Barrier instructions between i and j.
                for k in (i + 1)..j {
                    if let Instr::Fence(f) = &thread.instrs[k] {
                        if f.orders(ta, tb) {
                            return true;
                        }
                    }
                }
                false
            }
        }
    }

    /// Ordering involving a fence: fences act as pivots. A fence performs
    /// after every earlier access it orders *from*, and before every later
    /// access it orders *to*; fences also stay ordered among themselves.
    fn fence_edge(self, thread: &Thread, i: usize, j: usize) -> bool {
        let a = &thread.instrs[i];
        let b = &thread.instrs[j];
        match (a, b) {
            (Instr::Fence(_), Instr::Fence(_)) => true,
            (Instr::Fence(f), other) => {
                let Some(t) = other.access_type() else {
                    return true;
                };
                match self {
                    MemoryModel::Sc | MemoryModel::X86Tso => true,
                    MemoryModel::ArmWmm => {
                        AccessType::ALL.iter().any(|&e| f.orders(e, t))
                            || f.blocks_issue_of_non_memory()
                    }
                }
            }
            (other, Instr::Fence(f)) => {
                let Some(t) = other.access_type() else {
                    return true;
                };
                match self {
                    MemoryModel::Sc | MemoryModel::X86Tso => true,
                    MemoryModel::ArmWmm => f.waits_for(t),
                }
            }
            _ => unreachable!("at least one side is a fence"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread(instrs: Vec<Instr>) -> Thread {
        Thread { instrs }
    }

    #[test]
    fn wmm_leaves_independent_stores_unordered() {
        let t = thread(vec![Instr::store(0, 1), Instr::store(1, 1)]);
        assert!(!MemoryModel::ArmWmm.ordered(&t, 0, 1));
        assert!(MemoryModel::X86Tso.ordered(&t, 0, 1));
        assert!(MemoryModel::Sc.ordered(&t, 0, 1));
    }

    #[test]
    fn tso_allows_store_load_reordering_only() {
        let t = thread(vec![Instr::store(0, 1), Instr::load(0, 1)]);
        assert!(!MemoryModel::X86Tso.ordered(&t, 0, 1));
        let t2 = thread(vec![Instr::load(0, 0), Instr::store(1, 1)]);
        assert!(MemoryModel::X86Tso.ordered(&t2, 0, 1));
    }

    #[test]
    fn same_location_is_always_ordered() {
        let t = thread(vec![Instr::store(3, 1), Instr::load(0, 3)]);
        for m in MemoryModel::ALL {
            assert!(m.ordered(&t, 0, 1));
        }
    }

    #[test]
    fn dmb_st_orders_stores_not_loads() {
        let t = thread(vec![
            Instr::store(0, 1),
            Instr::Fence(Barrier::DmbSt),
            Instr::store(1, 1),
        ]);
        assert!(MemoryModel::ArmWmm.ordered(&t, 0, 2));
        let t2 = thread(vec![
            Instr::load(0, 0),
            Instr::Fence(Barrier::DmbSt),
            Instr::load(1, 1),
        ]);
        assert!(!MemoryModel::ArmWmm.ordered(&t2, 0, 2));
    }

    #[test]
    fn acquire_and_release_are_one_way() {
        let t = thread(vec![Instr::load_acq(0, 0), Instr::load(1, 1)]);
        assert!(MemoryModel::ArmWmm.ordered(&t, 0, 1));
        let t2 = thread(vec![Instr::store(0, 1), Instr::store_rel(1, 1)]);
        assert!(MemoryModel::ArmWmm.ordered(&t2, 0, 1));
        // Release does NOT order itself before later accesses.
        let t3 = thread(vec![Instr::store_rel(0, 1), Instr::store(1, 1)]);
        assert!(!MemoryModel::ArmWmm.ordered(&t3, 0, 1));
    }

    #[test]
    fn rcsc_orders_release_before_later_ldar_but_rcpc_does_not() {
        // STLR ; LDAR (different locations): RCsc keeps the pair ordered.
        let t = thread(vec![Instr::store_rel(0, 1), Instr::load_acq(1, 1)]);
        assert!(MemoryModel::ArmWmm.ordered(&t, 0, 1));
        // STLR ; LDAPR: the one edge RCpc relaxes.
        let t2 = thread(vec![Instr::store_rel(0, 1), Instr::load_acq_pc(1, 1)]);
        assert!(!MemoryModel::ArmWmm.ordered(&t2, 0, 1));
        // A *plain* earlier store is not pinned by either acquire flavour.
        let t3 = thread(vec![Instr::store(0, 1), Instr::load_acq(1, 1)]);
        assert!(!MemoryModel::ArmWmm.ordered(&t3, 0, 1));
    }

    #[test]
    fn ldapr_still_orders_itself_before_younger_accesses() {
        for later in [Instr::load(1, 1), Instr::store(1, 7)] {
            let t = thread(vec![Instr::load_acq_pc(0, 0), later]);
            assert!(MemoryModel::ArmWmm.ordered(&t, 0, 1));
        }
    }

    #[test]
    fn bogus_data_dep_orders_load_before_store() {
        let t = thread(vec![Instr::load(0, 0), Instr::store_data_dep(1, 9, 0)]);
        assert!(MemoryModel::ArmWmm.ordered(&t, 0, 1));
        // No dep, no order.
        let t2 = thread(vec![Instr::load(0, 0), Instr::store(1, 9)]);
        assert!(!MemoryModel::ArmWmm.ordered(&t2, 0, 1));
    }

    #[test]
    fn addr_dep_orders_load_before_load() {
        let t = thread(vec![Instr::load(0, 0), Instr::load_addr_dep(1, 1, 0)]);
        assert!(MemoryModel::ArmWmm.ordered(&t, 0, 1));
        let t2 = thread(vec![Instr::load(0, 0), Instr::load(1, 1)]);
        assert!(!MemoryModel::ArmWmm.ordered(&t2, 0, 1));
    }

    #[test]
    fn ctrl_dep_orders_load_before_store() {
        let t = thread(vec![Instr::load(0, 0), Instr::store_ctrl_dep(1, 9, 0)]);
        assert!(MemoryModel::ArmWmm.ordered(&t, 0, 1));
    }

    #[test]
    fn fences_pivot_ordering() {
        let t = thread(vec![
            Instr::store(0, 1),
            Instr::Fence(Barrier::DmbFull),
            Instr::load(0, 1),
        ]);
        assert!(
            MemoryModel::ArmWmm.ordered(&t, 0, 1),
            "store before DMB full"
        );
        assert!(
            MemoryModel::ArmWmm.ordered(&t, 1, 2),
            "DMB full before load"
        );
    }

    #[test]
    fn isb_alone_orders_nothing_memory() {
        let t = thread(vec![
            Instr::load(0, 0),
            Instr::Fence(Barrier::Isb),
            Instr::load(1, 1),
        ]);
        // The ISB pivot: load before ISB? ISB orders nothing memory-wise,
        // but blocks issue (pipeline flush) — the later side holds.
        assert!(!MemoryModel::ArmWmm.ordered(&t, 0, 1));
        assert!(MemoryModel::ArmWmm.ordered(&t, 1, 2));
        // Yet the transitive chain load->ISB is missing, so load->load
        // remains unordered (ISB alone is not a memory barrier).
        assert!(!MemoryModel::ArmWmm.ordered(&t, 0, 2));
    }
}
