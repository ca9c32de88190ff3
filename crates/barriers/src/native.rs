//! Native barrier execution.
//!
//! On `aarch64` every function lowers to the exact instruction the paper
//! measures, via `core::arch::asm!`. On other architectures the functions map
//! to the strongest cheap equivalent so that code written against this API is
//! portable and every path stays exercised on CI hosts:
//!
//! * x86-TSO already orders load→load, load→store and store→store, so the
//!   DMB/DSB variants other than a store→load ordering need only a compiler
//!   fence (to stop *compiler* reordering); full barriers use `mfence`-class
//!   [`core::sync::atomic::fence`]`(SeqCst)`.
//! * `ISB` has no portable equivalent; we use a compiler fence, which is the
//!   conservative no-op (nothing to flush on the host).
//!
//! Timing experiments must not be run through the portable mapping — that is
//! what the simulator crate is for. The mapping exists for *correctness*
//! portability only.

use core::sync::atomic::{compiler_fence, fence, Ordering};

use crate::kind::Barrier;

/// Full data memory barrier (`DMB ISH`): orders any access against any access.
#[inline(always)]
pub fn dmb_full() {
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `dmb ish` has no operands and no side effects beyond ordering.
    unsafe {
        core::arch::asm!("dmb ish", options(nostack, preserves_flags));
    }
    #[cfg(not(target_arch = "aarch64"))]
    // TSO still reorders store->load; SeqCst fence restores it.
    fence(Ordering::SeqCst);
}

/// Store-to-store data memory barrier (`DMB ISHST`).
#[inline(always)]
pub fn dmb_st() {
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as `dmb_full`.
    unsafe {
        core::arch::asm!("dmb ishst", options(nostack, preserves_flags));
    }
    #[cfg(not(target_arch = "aarch64"))]
    // TSO preserves store->store order; forbid compiler reordering only.
    compiler_fence(Ordering::SeqCst);
}

/// Load-to-load/store data memory barrier (`DMB ISHLD`).
#[inline(always)]
pub fn dmb_ld() {
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as `dmb_full`.
    unsafe {
        core::arch::asm!("dmb ishld", options(nostack, preserves_flags));
    }
    #[cfg(not(target_arch = "aarch64"))]
    // TSO preserves load->load/store order; forbid compiler reordering only.
    compiler_fence(Ordering::SeqCst);
}

/// Full data synchronization barrier (`DSB ISH`).
#[inline(always)]
pub fn dsb_full() {
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as `dmb_full`; `dsb` additionally stalls until completion,
    // which is a performance property, not a safety one.
    unsafe {
        core::arch::asm!("dsb ish", options(nostack, preserves_flags));
    }
    #[cfg(not(target_arch = "aarch64"))]
    fence(Ordering::SeqCst);
}

/// Store-to-store data synchronization barrier (`DSB ISHST`).
#[inline(always)]
pub fn dsb_st() {
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as `dsb_full`.
    unsafe {
        core::arch::asm!("dsb ishst", options(nostack, preserves_flags));
    }
    #[cfg(not(target_arch = "aarch64"))]
    fence(Ordering::SeqCst);
}

/// Load-to-any data synchronization barrier (`DSB ISHLD`).
#[inline(always)]
pub fn dsb_ld() {
    #[cfg(target_arch = "aarch64")]
    // SAFETY: as `dsb_full`.
    unsafe {
        core::arch::asm!("dsb ishld", options(nostack, preserves_flags));
    }
    #[cfg(not(target_arch = "aarch64"))]
    fence(Ordering::SeqCst);
}

/// Instruction synchronization barrier (`ISB`): pipeline flush.
#[inline(always)]
pub fn isb() {
    #[cfg(target_arch = "aarch64")]
    // SAFETY: `isb` flushes the pipeline; no memory or register effects.
    unsafe {
        core::arch::asm!("isb", options(nostack, preserves_flags));
    }
    #[cfg(not(target_arch = "aarch64"))]
    compiler_fence(Ordering::SeqCst);
}

/// Execute a standalone barrier instruction by kind.
///
/// # Panics
///
/// Panics for access-attached approaches (`Ldar`, `Stlr`, dependencies):
/// those do not exist as standalone instructions — use
/// [`load_acquire_u64`] / [`store_release_u64`], or [`run_barrier`]'s
/// degradation, instead.
#[inline]
pub fn execute(barrier: Barrier) {
    match barrier {
        Barrier::None => {}
        Barrier::DmbFull => dmb_full(),
        Barrier::DmbSt => dmb_st(),
        Barrier::DmbLd => dmb_ld(),
        Barrier::DsbFull => dsb_full(),
        Barrier::DsbSt => dsb_st(),
        Barrier::DsbLd => dsb_ld(),
        Barrier::Isb => isb(),
        other => panic!("{other} is access-attached; it cannot be executed standalone"),
    }
}

/// Execute any configurable barrier point on the host, degrading the
/// access-attached idioms to the nearest standalone barrier: `DMB ld` for
/// `LDAR`/`LDAPR` and the dependencies, a full barrier for `STLR` (`DMB st`
/// would not order the earlier loads). The simulator models them precisely;
/// the host locks and channels only need correctness.
#[inline]
pub fn run_barrier(barrier: Barrier) {
    match barrier {
        Barrier::Ldar | Barrier::Ldapr | Barrier::AddrDep | Barrier::DataDep | Barrier::Ctrl => {
            dmb_ld();
        }
        Barrier::CtrlIsb => {
            dmb_ld();
            isb();
        }
        Barrier::Stlr => dmb_full(),
        standalone => execute(standalone),
    }
}

/// Load-acquire (`LDAR`) of a 64-bit value.
///
/// # Safety
///
/// `src` must be valid for reads, 8-byte aligned, and any concurrent writers
/// must use atomic (single-copy-atomic) stores of the full 64 bits.
#[inline(always)]
pub unsafe fn load_acquire_u64(src: *const u64) -> u64 {
    #[cfg(target_arch = "aarch64")]
    {
        let out: u64;
        // SAFETY: caller guarantees `src` is valid and aligned; `ldar` is the
        // architectural load-acquire, single-copy atomic at 64 bits.
        unsafe {
            core::arch::asm!(
                "ldar {out}, [{ptr}]",
                out = out(reg) out,
                ptr = in(reg) src,
                options(nostack, preserves_flags, readonly)
            );
        }
        out
    }
    #[cfg(not(target_arch = "aarch64"))]
    {
        // SAFETY: caller guarantees validity/alignment; AtomicU64 has the
        // same layout as u64.
        unsafe { (*src.cast::<core::sync::atomic::AtomicU64>()).load(Ordering::Acquire) }
    }
}

/// Store-release (`STLR`) of a 64-bit value.
///
/// # Safety
///
/// `dst` must be valid for writes, 8-byte aligned, and concurrent readers
/// must use atomic loads of the full 64 bits.
#[inline(always)]
pub unsafe fn store_release_u64(dst: *mut u64, value: u64) {
    #[cfg(target_arch = "aarch64")]
    // SAFETY: caller guarantees `dst` is valid and aligned; `stlr` is the
    // architectural store-release, single-copy atomic at 64 bits.
    unsafe {
        core::arch::asm!(
            "stlr {val}, [{ptr}]",
            val = in(reg) value,
            ptr = in(reg) dst,
            options(nostack, preserves_flags)
        );
    }
    #[cfg(not(target_arch = "aarch64"))]
    // SAFETY: as in `load_acquire_u64`.
    unsafe {
        (*dst.cast::<core::sync::atomic::AtomicU64>()).store(value, Ordering::Release);
    }
}

/// Plain (relaxed) 64-bit load; single-copy atomic on both backends.
///
/// # Safety
///
/// As [`load_acquire_u64`].
#[inline(always)]
pub unsafe fn load_relaxed_u64(src: *const u64) -> u64 {
    // SAFETY: caller guarantees validity/alignment.
    unsafe { (*src.cast::<core::sync::atomic::AtomicU64>()).load(Ordering::Relaxed) }
}

/// Plain (relaxed) 64-bit store; single-copy atomic on both backends.
///
/// This is the store Pilot relies on: ARMv8 guarantees aligned 64-bit stores
/// are **single-copy atomic**, so flag and payload travel together.
///
/// # Safety
///
/// As [`store_release_u64`].
#[inline(always)]
pub unsafe fn store_relaxed_u64(dst: *mut u64, value: u64) {
    // SAFETY: caller guarantees validity/alignment.
    unsafe {
        (*dst.cast::<core::sync::atomic::AtomicU64>()).store(value, Ordering::Relaxed);
    }
}

/// True when the native aarch64 `asm!` backend is active.
#[must_use]
pub const fn is_native() -> bool {
    cfg!(target_arch = "aarch64")
}

/// The instruction each `asm!` wrapper in this module promises to emit.
///
/// This is the contract the `armbar-extract` drift lint checks: it scrapes
/// the `asm!` template strings out of this file's source, lifts them with
/// the real parser, and fails if any wrapper stops emitting the barrier its
/// name claims (e.g. `dmb_st` drifting away from `dmb ishst`). Keep this
/// table in sync when adding wrappers — an unlisted `asm!` function is
/// itself reported by the lint.
pub const ASM_CONTRACT: [(&str, Barrier); 9] = [
    ("dmb_full", Barrier::DmbFull),
    ("dmb_st", Barrier::DmbSt),
    ("dmb_ld", Barrier::DmbLd),
    ("dsb_full", Barrier::DsbFull),
    ("dsb_st", Barrier::DsbSt),
    ("dsb_ld", Barrier::DsbLd),
    ("isb", Barrier::Isb),
    ("load_acquire_u64", Barrier::Ldar),
    ("store_release_u64", Barrier::Stlr),
];

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::AtomicU64;

    #[test]
    fn standalone_barriers_execute() {
        for b in Barrier::INSTRUCTIONS {
            execute(b);
        }
        execute(Barrier::None);
    }

    #[test]
    #[should_panic(expected = "access-attached")]
    fn ldar_is_not_standalone() {
        execute(Barrier::Ldar);
    }

    #[test]
    fn every_barrier_point_runs_on_the_host() {
        for b in Barrier::ALL {
            run_barrier(b);
        }
    }

    #[test]
    fn acquire_release_roundtrip() {
        let cell = AtomicU64::new(0);
        let ptr = &cell as *const AtomicU64 as *mut u64;
        // SAFETY: `cell` is a live, aligned AtomicU64.
        unsafe {
            store_release_u64(ptr, 0xDEAD_BEEF_CAFE_F00D);
            assert_eq!(load_acquire_u64(ptr), 0xDEAD_BEEF_CAFE_F00D);
            store_relaxed_u64(ptr, 42);
            assert_eq!(load_relaxed_u64(ptr), 42);
        }
    }

    #[test]
    fn message_passing_with_native_barriers() {
        // The Table 1 pattern, run with real threads and the native mapping:
        // the release/acquire pairing must make `local == 23` the only
        // observable outcome on every architecture.
        use std::sync::atomic::{AtomicU64, Ordering};
        for _ in 0..200 {
            let data = AtomicU64::new(0);
            let flag = AtomicU64::new(0);
            std::thread::scope(|s| {
                s.spawn(|| {
                    data.store(23, Ordering::Relaxed);
                    dmb_st();
                    flag.store(1, Ordering::Relaxed);
                });
                s.spawn(|| {
                    while flag.load(Ordering::Relaxed) == 0 {
                        std::hint::spin_loop();
                    }
                    dmb_ld();
                    assert_eq!(data.load(Ordering::Relaxed), 23);
                });
            });
        }
    }
}
