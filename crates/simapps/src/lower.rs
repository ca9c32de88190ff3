//! The one place a configured [`Barrier`] becomes simulator [`Op`]s.
//!
//! Every workload has the same two kinds of barrier site: a release or
//! response site (a standalone instruction before a publishing store) and
//! a detection site (right after the load that saw a request, a free slot,
//! a link). Access-attached approaches — `STLR`, dependencies — issue
//! nothing standalone: they ride on the accesses the thread emits next.

use armbar_barriers::{Acquire, Barrier};
use armbar_sim::Op;

/// The standalone instruction `barrier` puts at a release/response site, if
/// it is one (`Barrier::INSTRUCTIONS`, or the ISB of `CTRL+ISB`).
pub(crate) fn fence_op(barrier: Barrier) -> Option<Op> {
    match barrier {
        Barrier::None
        | Barrier::Ldar
        | Barrier::Ldapr
        | Barrier::Stlr
        | Barrier::DataDep
        | Barrier::AddrDep
        | Barrier::Ctrl => None,
        f => Some(Op::Fence(f)),
    }
}

/// The op ordering later accesses after the load that just detected
/// something at `detect_addr`. `LDAR` is modelled as the acquire variant of
/// that check: the load re-issued as `LDAR` (cheap; no bus).
pub(crate) fn order_after_load(barrier: Barrier, detect_addr: u64) -> Option<Op> {
    match barrier {
        Barrier::Ldar => Some(Op::Load {
            addr: detect_addr,
            use_value: false,
            acquire: Acquire::Sc,
            dep_on_last_load: false,
        }),
        other => fence_op(other),
    }
}
