//! The one place a configured [`Barrier`] becomes simulator [`Op`]s.
//!
//! Every workload has the same two kinds of barrier site: a release or
//! response site (a standalone instruction before a publishing store) and
//! a detection site (right after the load that saw a request, a free slot,
//! a link). Access-attached approaches — `STLR`, dependencies — issue
//! nothing standalone: they ride on the accesses the thread emits next.

use armbar_barriers::{Acquire, Barrier};
use armbar_sim::{Cpu, Op};

/// Issue the standalone instruction `barrier` puts at a release/response
/// site, if it is one ([`Barrier::is_standalone`]).
pub(crate) async fn fence(cpu: Cpu, barrier: Barrier) {
    if barrier.is_standalone() {
        cpu.op(Op::Fence(barrier)).await;
    }
}

/// Order later accesses after the load that just detected something at
/// `detect_addr`. `LDAR` is modelled as the acquire variant of that check:
/// the load re-issued as `LDAR` (cheap; no bus).
pub(crate) async fn order_after_load(cpu: Cpu, barrier: Barrier, detect_addr: u64) {
    if barrier == Barrier::Ldar {
        cpu.op(Op::Load {
            addr: detect_addr,
            use_value: false,
            acquire: Acquire::Sc,
            dep_on_last_load: false,
        })
        .await;
    } else {
        fence(cpu, barrier).await;
    }
}
