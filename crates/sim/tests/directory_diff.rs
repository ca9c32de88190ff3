//! Differential test of the in-place coherence directory against the naive
//! model it replaced: clone the line state, collect the holders into a
//! `Vec`, build a fresh state and re-insert it. The reference below is that
//! logic verbatim; random call sequences must be indistinguishable through
//! the directory's whole public surface.

use std::collections::HashMap;

use proptest::prelude::*;

use armbar_sim::directory::{AccessOutcome, Directory};
use armbar_sim::{CoreId, Cycle, DistanceClass, LatencyParams, Line, Platform, Topology};

#[derive(Debug, Clone, Default)]
struct RefLineState {
    owner: Option<CoreId>,
    sharers: Vec<CoreId>,
    busy_until: Cycle,
}

/// The pre-rewrite directory: one map, states replaced wholesale.
#[derive(Debug, Default)]
struct RefDirectory {
    lines: HashMap<Line, RefLineState>,
    waiters: HashMap<Line, Vec<CoreId>>,
    region_homes: Vec<(Line, Line, CoreId)>,
}

impl RefDirectory {
    fn set_region_home(&mut self, start_addr: u64, end_addr: u64, home: CoreId) {
        self.region_homes.push((
            Line::containing(start_addr),
            Line::containing(end_addr.saturating_sub(1)),
            home,
        ));
    }

    fn default_state(&self, line: Line) -> RefLineState {
        for &(lo, hi, home) in &self.region_homes {
            if line >= lo && line <= hi {
                return RefLineState {
                    owner: Some(home),
                    sharers: vec![home],
                    busy_until: 0,
                };
            }
        }
        RefLineState::default()
    }

    fn classify(
        topo: &Topology,
        requester: CoreId,
        state: &RefLineState,
        write: bool,
    ) -> DistanceClass {
        if !write && (state.sharers.contains(&requester) || state.owner == Some(requester)) {
            return DistanceClass::Local;
        }
        if write && state.owner == Some(requester) && state.sharers.iter().all(|&c| c == requester)
        {
            return DistanceClass::Local;
        }
        let holders: Vec<CoreId> = if write {
            state
                .owner
                .into_iter()
                .chain(state.sharers.iter().copied())
                .filter(|&c| c != requester)
                .collect()
        } else {
            state
                .owner
                .into_iter()
                .filter(|&c| c != requester)
                .collect()
        };
        if holders.is_empty() {
            if !write && !state.sharers.is_empty() {
                return state
                    .sharers
                    .iter()
                    .map(|&c| topo.distance(requester, c))
                    .min()
                    .unwrap_or(DistanceClass::Memory);
            }
            return DistanceClass::Memory;
        }
        holders
            .iter()
            .map(|&c| topo.distance(requester, c))
            .max()
            .unwrap_or(DistanceClass::Memory)
    }

    fn access(
        &mut self,
        topo: &Topology,
        lat: &LatencyParams,
        requester: CoreId,
        line: Line,
        write: bool,
        now: Cycle,
    ) -> AccessOutcome {
        let state = match self.lines.get(&line) {
            Some(s) => s.clone(),
            None => self.default_state(line),
        };
        let distance = Self::classify(topo, requester, &state, write);
        let transfer = lat.transfer_latency(distance);
        let (latency, new_state) = if write {
            let latency = state.busy_until.saturating_sub(now) + transfer;
            let s = RefLineState {
                owner: Some(requester),
                sharers: vec![requester],
                busy_until: now + latency,
            };
            (latency, s)
        } else {
            let mut s = state;
            if !s.sharers.contains(&requester) {
                s.sharers.push(requester);
            }
            (transfer, s)
        };
        self.lines.insert(line, new_state);
        AccessOutcome {
            distance,
            latency,
            is_rmr: distance.is_rmr(),
        }
    }

    fn owner(&self, line: Line) -> Option<CoreId> {
        self.lines.get(&line).and_then(|s| s.owner)
    }

    fn park_waiter(&mut self, line: Line, core: CoreId) {
        let list = self.waiters.entry(line).or_default();
        if !list.contains(&core) {
            list.push(core);
        }
    }

    fn take_waiters_into(&mut self, line: Line, out: &mut Vec<CoreId>) {
        if let Some(mut list) = self.waiters.remove(&line) {
            out.append(&mut list);
        }
    }

    fn waiter_count(&self) -> usize {
        self.waiters.values().map(Vec::len).sum()
    }
}

#[derive(Debug, Clone, Copy)]
enum Call {
    Access {
        core: u8,
        line: u8,
        write: bool,
        /// Cycles since the previous call (0 keeps writers queuing).
        gap: u8,
    },
    Park {
        core: u8,
        line: u8,
    },
    Take {
        line: u8,
    },
}

fn gen_call() -> impl Strategy<Value = Call> {
    prop_oneof![
        (any::<u8>(), any::<u8>(), any::<bool>(), any::<u8>()).prop_map(
            |(core, line, write, gap)| Call::Access {
                core,
                line,
                write,
                gap
            }
        ),
        (any::<u8>(), any::<u8>(), any::<bool>(), any::<u8>()).prop_map(
            |(core, line, write, gap)| Call::Access {
                core,
                line,
                write,
                gap
            }
        ),
        (any::<u8>(), any::<u8>()).prop_map(|(core, line)| Call::Park { core, line }),
        any::<u8>().prop_map(|line| Call::Take { line }),
    ]
}

/// 24 lines: 0..8 cold, 8..16 homed on a node-0 core, 16..24 on a node-1 one.
fn line_of(raw: u8) -> Line {
    Line(u64::from(raw % 24))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn in_place_directory_matches_the_naive_reference(
        calls in prop::collection::vec(gen_call(), 1..400),
    ) {
        let p = Platform::kunpeng916();
        let (topo, lat) = (&p.topology, &p.latency);
        let cores = topo.core_count();
        let mut dir = Directory::new();
        let mut reference = RefDirectory::default();
        for (start, end, home) in [(8 * 64, 16 * 64, 3), (16 * 64, 24 * 64, 40)] {
            dir.set_region_home(start, end, home);
            reference.set_region_home(start, end, home);
        }
        let mut now: Cycle = 0;
        let (mut woken, mut ref_woken) = (Vec::new(), Vec::new());
        for (i, &call) in calls.iter().enumerate() {
            let touched = match call {
                Call::Access { core, line, write, gap } => {
                    now += Cycle::from(gap % 8) * 5;
                    let (core, line) = (usize::from(core) % cores, line_of(line));
                    prop_assert_eq!(
                        dir.access(topo, lat, core, line, write, now),
                        reference.access(topo, lat, core, line, write, now),
                        "call {} ({:?})", i, call
                    );
                    line
                }
                Call::Park { core, line } => {
                    let (core, line) = (usize::from(core) % cores, line_of(line));
                    dir.park_waiter(line, core);
                    reference.park_waiter(line, core);
                    line
                }
                Call::Take { line } => {
                    let line = line_of(line);
                    dir.take_waiters_into(line, &mut woken);
                    reference.take_waiters_into(line, &mut ref_woken);
                    prop_assert_eq!(&woken, &ref_woken, "call {} ({:?})", i, call);
                    line
                }
            };
            prop_assert_eq!(dir.owner(touched), reference.owner(touched), "call {}", i);
            prop_assert_eq!(dir.waiter_count(), reference.waiter_count(), "call {}", i);
        }
        for raw in 0..24 {
            prop_assert_eq!(dir.owner(line_of(raw)), reference.owner(line_of(raw)));
        }
    }
}

/// A call on the many-core machine: core ids span all 1024 cores, and a
/// read run lists a line into up to 1024 sharer sets before its write.
#[derive(Debug, Clone, Copy)]
enum WideCall {
    Access {
        core: u16,
        line: u8,
        write: bool,
        gap: u8,
    },
    /// `len` reads of `line` by cores `first, first + step, …` (mod 1024),
    /// then a write by `writer`.
    ReadRun {
        line: u8,
        first: u16,
        step: u16,
        len: u16,
        writer: u16,
    },
    Park {
        core: u16,
        line: u8,
    },
    Take {
        line: u8,
    },
}

fn gen_wide_call() -> impl Strategy<Value = WideCall> {
    let access = || {
        (any::<u16>(), any::<u8>(), any::<bool>(), any::<u8>()).prop_map(
            |(core, line, write, gap)| WideCall::Access {
                core,
                line,
                write,
                gap,
            },
        )
    };
    let park =
        || (any::<u16>(), any::<u8>()).prop_map(|(core, line)| WideCall::Park { core, line });
    prop_oneof![
        access(),
        access(),
        (
            (any::<u8>(), any::<u16>()),
            1u16..200,
            1u16..1100,
            any::<u16>()
        )
            .prop_map(|((line, first), step, len, writer)| WideCall::ReadRun {
                line,
                first,
                step,
                len,
                writer
            }),
        park(),
        park(),
        any::<u8>().prop_map(|line| WideCall::Take { line }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn many_core_directory_matches_the_naive_reference(
        calls in prop::collection::vec(gen_wide_call(), 1..120),
    ) {
        let p = Platform::manycore(1024);
        let (topo, lat) = (&p.topology, &p.latency);
        let core = |raw: u16| usize::from(raw) % 1024;
        let mut dir = Directory::new();
        let mut reference = RefDirectory::default();
        for (start, end, home) in [(8 * 64, 16 * 64, 3), (16 * 64, 24 * 64, 1000)] {
            dir.set_region_home(start, end, home);
            reference.set_region_home(start, end, home);
        }
        let mut now: Cycle = 0;
        let (mut woken, mut ref_woken) = (Vec::new(), Vec::new());
        for (i, &call) in calls.iter().enumerate() {
            let mut accesses = Vec::new();
            let touched = match call {
                WideCall::Access { core: c, line, write, gap } => {
                    now += Cycle::from(gap % 8) * 5;
                    accesses.push((core(c), write));
                    line_of(line)
                }
                WideCall::ReadRun { line, first, step, len, writer } => {
                    let reader = |k: u16| core(first.wrapping_add(k.wrapping_mul(step)));
                    accesses.extend((0..len).map(|k| (reader(k), false)));
                    accesses.push((core(writer), true));
                    line_of(line)
                }
                WideCall::Park { core: c, line } => {
                    dir.park_waiter(line_of(line), core(c));
                    reference.park_waiter(line_of(line), core(c));
                    line_of(line)
                }
                WideCall::Take { line } => {
                    dir.take_waiters_into(line_of(line), &mut woken);
                    reference.take_waiters_into(line_of(line), &mut ref_woken);
                    prop_assert_eq!(&woken, &ref_woken, "call {} ({:?})", i, call);
                    line_of(line)
                }
            };
            for (k, &(c, write)) in accesses.iter().enumerate() {
                prop_assert_eq!(
                    dir.access(topo, lat, c, touched, write, now),
                    reference.access(topo, lat, c, touched, write, now),
                    "call {} ({:?}) access {}", i, call, k
                );
            }
            prop_assert_eq!(dir.owner(touched), reference.owner(touched), "call {}", i);
            prop_assert_eq!(dir.waiter_count(), reference.waiter_count(), "call {}", i);
        }
        for raw in 0..24 {
            prop_assert_eq!(dir.owner(line_of(raw)), reference.owner(line_of(raw)));
        }
    }
}
