//! Delegation locks on the simulator (Figures 7(b), 7(c), 8(a–c), `dlock`).
//!
//! Five designs over the same request/response protocol (Algorithm 5):
//!
//! * **FFWD**, **RCL** — a dedicated `Server` core sweeps per-client
//!   request lines, executing critical sections and publishing responses.
//!   Responses of one sweep share the response barrier — FFWD's batching.
//!   RCL's request word doubles as the completion channel.
//! * **DSynch**, **flat combining** — migratory combiners: a client that
//!   wins the baton (or the combiner lock) `Visit`s every publication
//!   record and serves the pending ones, including its own. No core is
//!   dedicated.
//! * **CC-Synch** — a swap-based FIFO of recycled nodes; the head of the
//!   queue combines, each waiter spins on one packed status word.
//!
//! All publish responses either the classic way — store `ret`, response
//! barrier (strictly after the critical section's RMRs), store the flag —
//! or via **Pilot** (Algorithm 6): `ret ^ hash` *is* the notification. The
//! sequence is written once, in `Serve`; *where* the stores go is the
//! per-design `Publish` value, which also drives the waiting side
//! (`Await`).
//!
//! Critical sections are parameterized by a [`CsProfile`] so the
//! data-structure benchmarks of Figure 8 (queue/stack/list/hash table) map
//! onto the same machinery: how many shared lines the CS touches, how long
//! the dependent pointer-chase is, and how much ALU work it does.

use armbar_barriers::Barrier;
use armbar_sim::{Op, Platform, SimThread, ThreadCtx, Trace};

use crate::harness::{machine, run_lock, RunOpts};
use crate::lower::{fence_op, order_after_load};
use crate::metrics::DlockMetrics;
use crate::ticket_sim::{modify_lines, run_ticket, LockResult, TicketConfig};

/// Shared layout: per-client slots are fully padded; request and response
/// live on different lines.
const REQ_BASE: u64 = 0x2_0000;
const RESP_BASE: u64 = 0x4_0000;
const RESP_FLAG_BASE: u64 = 0x6_0000;
/// The DSynch baton (combiner role).
const BATON: u64 = 0x8_0000;
/// The flat-combining combiner lock (test-and-test-and-set word).
const FC_LOCK: u64 = 0x9_0000;
/// The CC-Synch queue tail (holds a node id, never 0).
const CC_TAIL: u64 = 0x9_8000;
/// Shared data-structure lines the critical sections touch.
const DATA_BASE: u64 = 0xA_0000;
/// Per-client served-round markers (shared between migrating combiners).
const SERVED_ROUND_BASE: u64 = 0xE_0000;
/// Total served-request counter (server-private line, used for results).
const SERVED: u64 = 0xC_0000;
/// CC-Synch node pool: four padded lines per node (request round, return
/// value, status word, successor pointer). Node ids start at 1.
const NODE_BASE: u64 = 0x10_0000;
/// Per-core combiner-subversion counters: critical sections this core
/// executed *on behalf of other threads*, published before `Halt`.
const SUBV_BASE: u64 = 0x12_0000;

/// CC-Synch status word values (0 = completed in flag mode; pilot packs
/// `round * 4 + 3` so the tag never collides with these).
const CC_WAIT: u64 = 1;
const CC_COMBINER: u64 = 2;
/// Requests one CC-Synch combiner serves before handing off.
const CC_COMBINE_BOUND: u32 = 64;
/// Publication-list passes one flat-combining tenure performs.
const FC_SCAN_PASSES: u32 = 2;

fn req_addr(client: usize) -> u64 {
    REQ_BASE + client as u64 * 128
}

fn resp_addr(client: usize) -> u64 {
    RESP_BASE + client as u64 * 128
}

fn resp_flag_addr(client: usize) -> u64 {
    RESP_FLAG_BASE + client as u64 * 128
}

fn served_round_addr(client: usize) -> u64 {
    SERVED_ROUND_BASE + client as u64 * 128
}

fn subv_addr(core: usize) -> u64 {
    SUBV_BASE + core as u64 * 128
}

fn node_req(node: u64) -> u64 {
    NODE_BASE + node * 256
}

fn node_ret(node: u64) -> u64 {
    NODE_BASE + node * 256 + 64
}

fn node_status(node: u64) -> u64 {
    NODE_BASE + node * 256 + 128
}

fn node_next(node: u64) -> u64 {
    NODE_BASE + node * 256 + 192
}

pub use armbar_barriers::ResponseMode;

/// Shape of the delegated critical section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CsProfile {
    /// Independent shared lines read+written (e.g. queue head + tail).
    pub lines: u32,
    /// Length of a *dependent* load chain (sorted-list walk).
    pub chase: u32,
    /// ALU work.
    pub nops: u32,
}

impl CsProfile {
    /// A bump-a-counter critical section (Figure 7(b)/(c)).
    #[must_use]
    pub fn counter() -> CsProfile {
        CsProfile {
            lines: 1,
            chase: 0,
            nops: 4,
        }
    }

    /// Queue/stack insert+remove pair: head/tail line plus an element line.
    #[must_use]
    pub fn queue_or_stack() -> CsProfile {
        CsProfile {
            lines: 2,
            chase: 0,
            nops: 8,
        }
    }

    /// Sorted-list operation over `preload` members (walks half on
    /// average).
    #[must_use]
    pub fn sorted_list(preload: u32) -> CsProfile {
        CsProfile {
            lines: 1,
            chase: preload / 2,
            nops: 8,
        }
    }
}

/// Barrier pair of Algorithm 5 (`X-Y` in Figure 7(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DelegationBarriers {
    /// Line 4: after detecting the request.
    pub req: Barrier,
    /// Line 7: after the critical section, before the response flag.
    pub resp: Barrier,
}

/// The Figure 7(b) combinations, in the legend's order.
pub const FIG7B_COMBOS: [(&str, DelegationBarriers); 7] = [
    (
        "DMB full-DMB st",
        DelegationBarriers {
            req: Barrier::DmbFull,
            resp: Barrier::DmbSt,
        },
    ),
    (
        "DMB ld-DMB st",
        DelegationBarriers {
            req: Barrier::DmbLd,
            resp: Barrier::DmbSt,
        },
    ),
    (
        "LDAR-DMB st",
        DelegationBarriers {
            req: Barrier::Ldar,
            resp: Barrier::DmbSt,
        },
    ),
    (
        "CTRL+ISB-DMB st",
        DelegationBarriers {
            req: Barrier::CtrlIsb,
            resp: Barrier::DmbSt,
        },
    ),
    (
        "ADDR-DMB st",
        DelegationBarriers {
            req: Barrier::AddrDep,
            resp: Barrier::DmbSt,
        },
    ),
    (
        "LDAR-No Barrier",
        DelegationBarriers {
            req: Barrier::Ldar,
            resp: Barrier::None,
        },
    ),
    (
        "Ideal",
        DelegationBarriers {
            req: Barrier::None,
            resp: Barrier::None,
        },
    ),
];

/// Ops issued to execute one delegated critical section. Returns the op for
/// `cs_step`, or `None` when the CS is finished.
///
/// The dependent chase reads `DATA_BASE + k*64` with an address dependency
/// on the previous load; independent lines are read+written.
fn cs_op(profile: CsProfile, cs_step: &mut u32, last_value: u64, served: u64) -> Option<Op> {
    let step = *cs_step;
    *cs_step += 1;
    if let Some(op) = modify_lines(DATA_BASE, profile.lines, step, last_value) {
        return Some(op);
    }
    let chase_step = step - profile.lines * 2; // load+store per line
    if chase_step < profile.chase {
        // Pointer chase: each node is a distinct line; the address depends
        // on the previous load.
        let addr = DATA_BASE + 0x1000 + u64::from(chase_step) * 64 + (served % 4) * 0x4000;
        return Some(Op::load_dep(addr, true));
    }
    if chase_step == profile.chase && profile.nops > 0 {
        return Some(Op::Nops(profile.nops));
    }
    None
}

/// The election of the lock-based combiners: CAS a free (0) lock word to 1
/// with acquire semantics; the old value tells who won.
fn try_lock(addr: u64) -> Op {
    Op::Rmw {
        addr,
        kind: armbar_sim::RmwKind::Cas { expected: 0 },
        operand: 1,
        acquire: true,
        release: false,
    }
}

// --------------------------------------------------------------- fragments

/// Where the response to one served request goes (Algorithm 5 lines 7-8 /
/// Algorithm 6). Flag mode stores the return value to `ret`, runs the
/// response barrier, then stores `flag_value` to `notify`. Pilot mode
/// stores only `pilot_value` — the shuffled return value *is* the
/// notification — to `notify`.
#[derive(Clone, Copy)]
struct Publish {
    ret: u64,
    notify: u64,
    flag_value: u64,
    pilot_value: u64,
}

impl Publish {
    /// FFWD, DSynch, flat combining: a padded response line and a flag line
    /// per client; the piloted word goes where the return value would. It
    /// differs from the previous round's by construction (round folded in).
    fn slot(client: usize, round: u64, mode: ResponseMode) -> Publish {
        Publish {
            ret: resp_addr(client),
            notify: match mode {
                ResponseMode::Flag => resp_flag_addr(client),
                ResponseMode::Pilot => resp_addr(client),
            },
            flag_value: round,
            pilot_value: round.wrapping_mul(7) | 1,
        }
    }

    /// RCL: completion is a store back into the request word — cleared in
    /// flag mode, the packed (odd) response in pilot mode.
    fn request_word(client: usize, round: u64) -> Publish {
        Publish {
            ret: resp_addr(client),
            notify: req_addr(client),
            flag_value: 0,
            pilot_value: round.wrapping_mul(7) | 1,
        }
    }

    /// CC-Synch: the waiter spins on its node's status word alone — 0 is
    /// "completed", and pilot packs `round * 4 + 3` so the tag never
    /// collides with [`CC_WAIT`] or [`CC_COMBINER`].
    fn status_word(node: u64, round: u64) -> Publish {
        Publish {
            ret: node_ret(node),
            notify: node_status(node),
            flag_value: 0,
            pilot_value: round * 4 + 3,
        }
    }
}

/// Serving one delegated request: the request barrier (Algorithm 5 line 4),
/// the critical section (line 6), the published response (lines 7-8 /
/// Algorithm 6).
struct Serve {
    barriers: DelegationBarriers,
    mode: ResponseMode,
    profile: CsProfile,
    /// Requests served so far.
    served: u64,
    detect_addr: u64,
    round: u64,
    publish: Option<Publish>,
    cs_step: u32,
    phase: u8,
}

impl Serve {
    fn new(cfg: &DelegationConfig) -> Serve {
        Serve {
            barriers: cfg.barriers,
            mode: cfg.mode,
            profile: cfg.profile,
            served: 0,
            detect_addr: 0,
            round: 0,
            publish: None,
            cs_step: 0,
            phase: 0,
        }
    }

    /// Start serving `round`, which the load of `detect_addr` just detected.
    /// `publish` is `None` for the server's own request: the result is
    /// local, nobody needs notifying.
    fn begin(&mut self, detect_addr: u64, round: u64, publish: Option<Publish>) {
        self.detect_addr = detect_addr;
        self.begin_ordered(round, publish);
        self.phase = 0;
    }

    /// As [`Serve::begin`], for a server that already issued the request
    /// barrier itself (CC-Synch reads the request between the two).
    fn begin_ordered(&mut self, round: u64, publish: Option<Publish>) {
        self.round = round;
        self.publish = publish;
        self.phase = 1;
    }

    /// The next op, or `None` once the request is served.
    fn step(&mut self, ctx: &ThreadCtx) -> Option<Op> {
        loop {
            match self.phase {
                0 => {
                    self.phase = 1;
                    if let Some(op) = order_after_load(self.barriers.req, self.detect_addr) {
                        return Some(op);
                    }
                }
                1 => match cs_op(
                    self.profile,
                    &mut self.cs_step,
                    ctx.last_value(),
                    self.served,
                ) {
                    Some(op) => return Some(op),
                    None => {
                        self.cs_step = 0;
                        self.served += 1;
                        self.phase = 2;
                    }
                },
                2 => {
                    let publish = self.publish?;
                    match self.mode {
                        ResponseMode::Flag => {
                            self.phase = 3;
                            return Some(Op::store(publish.ret, self.round.wrapping_mul(3)));
                        }
                        ResponseMode::Pilot => {
                            // The shuffled ret is the notification; hashing
                            // is two local ALU ops, and no barrier follows.
                            self.phase = 4;
                            return Some(Op::Nops(2));
                        }
                    }
                }
                3 => {
                    self.phase = 4;
                    if let Some(op) = fence_op(self.barriers.resp) {
                        return Some(op);
                    }
                }
                4 => {
                    let publish = self.publish?;
                    self.phase = 5;
                    let value = match self.mode {
                        ResponseMode::Flag => publish.flag_value,
                        ResponseMode::Pilot => publish.pilot_value,
                    };
                    return Some(Op::store(publish.notify, value));
                }
                _ => return None,
            }
        }
    }
}

/// Outcome of one [`Await::poll`] or [`Visit::step`] call.
enum Polled {
    /// Issue this op and call again.
    Emit(Op),
    /// The request has been served (and its response decoded).
    Served,
    /// Nothing yet; what to do next is the caller's policy.
    Miss,
}

/// The waiting end of a [`Publish`]: one look at the word the response is
/// announced in. Flag mode tests it against `flag_value` — an absolute
/// test, immune to stale delta state — then reads the return value behind
/// a dependency (the cheap client-side ordering). Pilot mode tests a packed
/// word against `pilot_value`; a response slot is decoded by Algorithm 4:
/// watch the response word for a change, fall back to the flag.
struct Await {
    mode: ResponseMode,
    /// A response slot's fallback flag line (Algorithm 4 line 2); `None`
    /// when the response is a packed word.
    fallback: Option<u64>,
    old_resp: u64,
    old_flag: u64,
    phase: u8,
}

impl Await {
    fn new(cfg: &DelegationConfig, fallback: Option<u64>) -> Await {
        Await {
            mode: cfg.mode,
            fallback,
            old_resp: 0,
            old_flag: 0,
            phase: 0,
        }
    }

    fn poll(&mut self, expect: Publish, ctx: &ThreadCtx) -> Polled {
        let (phase, v) = (self.phase, ctx.last_value());
        self.phase = 0;
        match (phase, self.mode, self.fallback) {
            (0, _, _) => {
                self.phase = 1;
                Polled::Emit(Op::load_use(expect.notify))
            }
            (1, ResponseMode::Flag, _) if v == expect.flag_value => {
                self.phase = 3;
                Polled::Emit(Op::load_dep(expect.ret, true))
            }
            (1, ResponseMode::Pilot, None) if v == expect.pilot_value => Polled::Served,
            (1, ResponseMode::Pilot, Some(_)) if v != self.old_resp => {
                self.old_resp = v;
                Polled::Served
            }
            (1, ResponseMode::Pilot, Some(flag)) => {
                self.phase = 2;
                Polled::Emit(Op::load_use(flag))
            }
            (2, _, _) if v != self.old_flag => {
                self.old_flag = v;
                Polled::Served
            }
            (3, _, _) => Polled::Served,
            _ => Polled::Miss,
        }
    }

    /// A combiner `published` its own response during its sweep: synchronize
    /// the decode state with it.
    fn served_self(&mut self, published: Publish) {
        if self.mode == ResponseMode::Pilot {
            self.old_resp = published.pilot_value;
        }
    }
}

/// A migratory combiner visiting one client's publication record: read the
/// posted round, compare it with the served-round marker, and claim and
/// serve a new request. The marker is shared state: combiners migrate, so
/// progress must live in memory, not in a core-local array. The response
/// is published to the combiner itself too (uniform path).
struct Visit {
    id: usize,
    serve: Serve,
    /// Critical sections executed on behalf of *other* clients (the
    /// combiner-subversion counter).
    for_others: u64,
    round: u64,
    phase: u8,
}

impl Visit {
    fn new(id: usize, cfg: &DelegationConfig) -> Visit {
        Visit {
            id,
            serve: Serve::new(cfg),
            for_others: 0,
            round: 0,
            phase: 0,
        }
    }

    /// What a visit to the combiner's own record publishes for `round`.
    fn own(&self, round: u64) -> Publish {
        Publish::slot(self.id, round, self.serve.mode)
    }

    /// [`Polled::Served`] once `client`'s pending request has been served,
    /// [`Polled::Miss`] if it had none.
    fn step(&mut self, client: usize, ctx: &ThreadCtx) -> Polled {
        match self.phase {
            0 => {
                self.phase = 1;
                Polled::Emit(Op::load_use(req_addr(client)))
            }
            1 => {
                self.round = ctx.last_value();
                self.phase = 2;
                Polled::Emit(Op::load_use(served_round_addr(client)))
            }
            2 if self.round == ctx.last_value() => {
                self.phase = 0;
                Polled::Miss
            }
            2 => {
                let publish = Publish::slot(client, self.round, self.serve.mode);
                self.serve
                    .begin(req_addr(client), self.round, Some(publish));
                self.phase = 3;
                Polled::Emit(Op::store(served_round_addr(client), self.round))
            }
            _ => {
                if let Some(op) = self.serve.step(ctx) {
                    return Polled::Emit(op);
                }
                if client != self.id {
                    self.for_others += 1;
                }
                self.phase = 0;
                Polled::Served
            }
        }
    }
}

/// The end of a client's operation: mark the iteration and pace by the
/// interval, or — after the last one — retire.
struct Tail {
    iterations: u64,
    done: u64,
    interval_nops: u32,
    /// Where a thread that can combine publishes its subversion counter
    /// before `Halt`.
    subv: Option<u64>,
    phase: u8,
}

impl Tail {
    fn new(cfg: &DelegationConfig, subv: Option<u64>) -> Tail {
        Tail {
            iterations: cfg.per_client,
            done: 0,
            interval_nops: cfg.interval_nops,
            subv,
            phase: 0,
        }
    }

    /// The next op after a completed operation, or `None` when the next
    /// request should be posted. `for_others` is the number of critical
    /// sections this thread ran on behalf of other threads so far.
    fn step(&mut self, for_others: u64) -> Option<Op> {
        match self.phase {
            0 => {
                self.done += 1;
                if self.done >= self.iterations {
                    self.phase = 3;
                    return Some(match self.subv {
                        Some(addr) => Op::store(addr, for_others),
                        None => Op::Halt,
                    });
                }
                self.phase = if self.interval_nops > 0 { 1 } else { 2 };
                Some(Op::IterationMark)
            }
            1 => {
                self.phase = 2;
                Some(Op::Nops(self.interval_nops))
            }
            2 => {
                self.phase = 0;
                None
            }
            _ => Some(Op::Halt),
        }
    }
}

// -------------------------------------------------------- dedicated server

/// A dedicated server's client (FFWD): posts a request, awaits the response
/// in its slot, repeats.
struct Client {
    id: usize,
    round: u64,
    resp: Await,
    tail: Tail,
    state: u8,
}

impl SimThread for Client {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            match self.state {
                // Post the request: one store carrying round+payload.
                0 => {
                    self.round += 1;
                    self.state = 1;
                    return Op::store(req_addr(self.id), self.round);
                }
                // Await the response. In flag mode the client looks at the
                // response line first, then at the flag word that signals.
                1 => {
                    self.state = 2;
                    if self.resp.mode == ResponseMode::Flag {
                        return Op::load_use(resp_addr(self.id));
                    }
                }
                2 => {
                    let expect = Publish::slot(self.id, self.round, self.resp.mode);
                    match self.resp.poll(expect, ctx) {
                        Polled::Emit(op) => return op,
                        Polled::Served => self.state = 3,
                        Polled::Miss => {
                            self.state = 1;
                            return Op::Nops(1);
                        }
                    }
                }
                _ => match self.tail.step(0) {
                    Some(op) => return op,
                    None => self.state = 0,
                },
            }
        }
    }
}

/// An RCL client: the request word it spins on is also the completion
/// channel, so one padded line round-trips per operation.
struct RclClient {
    id: usize,
    round: u64,
    resp: Await,
    tail: Tail,
    state: u8,
}

impl SimThread for RclClient {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            match self.state {
                // Post the request: an even, non-zero word (round * 2).
                0 => {
                    self.round += 1;
                    self.state = 1;
                    return Op::store(req_addr(self.id), self.round * 2);
                }
                // Spin on the same word: cleared (flag) or odd (pilot: the
                // notification and the payload in the word we already hold)
                // means served.
                1 => match self
                    .resp
                    .poll(Publish::request_word(self.id, self.round), ctx)
                {
                    Polled::Emit(op) => return op,
                    Polled::Served => self.state = 2,
                    Polled::Miss => return Op::Nops(1),
                },
                _ => match self.tail.step(0) {
                    Some(op) => return op,
                    None => self.state = 0,
                },
            }
        }
    }
}

/// How the clients of a dedicated server talk to it: what a pending request
/// word looks like and where its response goes.
enum Channel {
    /// FFWD: the word carries the bare round; the server remembers the last
    /// round it saw per client and answers through the client's slot.
    Slot { seen: Vec<u64> },
    /// RCL: the request word doubles as the completion channel.
    RequestWord,
}

impl Channel {
    /// The round `client`'s polled request `word` asks for, if it is new.
    fn pending(&mut self, client: usize, word: u64) -> Option<u64> {
        match self {
            Channel::Slot { seen } => {
                let new = word != seen[client];
                seen[client] = word;
                new.then_some(word)
            }
            // Pending requests are even and non-zero; zero or odd means
            // empty or the server's own earlier response.
            Channel::RequestWord => (word != 0 && word & 1 == 0).then_some(word / 2),
        }
    }

    fn publish(&self, client: usize, round: u64, mode: ResponseMode) -> Publish {
        match self {
            Channel::Slot { .. } => Publish::slot(client, round, mode),
            Channel::RequestWord => Publish::request_word(client, round),
        }
    }
}

/// The dedicated server (FFWD, RCL): sweeps the request lines round-robin
/// (Algorithm 5). Responses of one sweep share the response barrier.
struct Server {
    channel: Channel,
    clients: usize,
    total: u64,
    serve: Serve,
    scan_at: usize,
    state: u8,
}

impl SimThread for Server {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            match self.state {
                // Poll the next client's request line.
                0 => {
                    if self.serve.served >= self.total {
                        // Every critical section a dedicated server runs is
                        // on behalf of someone else: publish the subversion
                        // counter, then retire.
                        self.state = 4;
                        return Op::store(subv_addr(0), self.serve.served);
                    }
                    self.state = 1;
                    return Op::load_use(req_addr(self.scan_at));
                }
                1 => {
                    let client = self.scan_at;
                    if let Some(round) = self.channel.pending(client, ctx.last_value()) {
                        let publish = self.channel.publish(client, round, self.serve.mode);
                        self.serve.begin(req_addr(client), round, Some(publish));
                        self.state = 2;
                    } else {
                        self.scan_at = (client + 1) % self.clients;
                        self.state = 0;
                    }
                }
                2 => match self.serve.step(ctx) {
                    Some(op) => return op,
                    None => {
                        self.scan_at = (self.scan_at + 1) % self.clients;
                        self.state = 3;
                    }
                },
                3 => {
                    self.state = 0;
                    return Op::store(SERVED, self.serve.served);
                }
                _ => return Op::Halt,
            }
        }
    }
}

// -------------------------------------------------------- DSynch combiner

/// A DSynch-family client: posts its request, then either waits for
/// service or grabs the baton and combines.
struct CombinerClient {
    id: usize,
    clients: usize,
    round: u64,
    resp: Await,
    visit: Visit,
    tail: Tail,
    scan_at: usize,
    poll_misses: u64,
    state: u8,
}

impl SimThread for CombinerClient {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            match self.state {
                // Post own request.
                0 => {
                    self.round += 1;
                    self.state = 1;
                    return Op::store(req_addr(self.id), self.round);
                }
                // Try to become the combiner (baton CAS), else wait.
                1 => {
                    self.state = 2;
                    return try_lock(BATON);
                }
                2 => {
                    if ctx.last_value() == 0 {
                        // We hold the baton: combine.
                        self.scan_at = 0;
                        self.state = 10;
                    } else {
                        // Someone is combining; wait for our response.
                        self.state = 3;
                    }
                }
                // ---------------- waiting side ----------------
                // Spinning is local: the polled lines are ours, so until a
                // combiner writes them the loads hit in our cache.
                3 => match self.resp.poll(self.visit.own(self.round), ctx) {
                    Polled::Emit(op) => return op,
                    Polled::Served => self.state = 30,
                    // Not served yet: spin locally, retrying the baton only
                    // occasionally so a released lock cannot strand us.
                    Polled::Miss => {
                        self.poll_misses += 1;
                        self.state = if self.poll_misses.is_multiple_of(8) {
                            1
                        } else {
                            3
                        };
                        return Op::Nops(2);
                    }
                },
                // ---------------- combiner side ----------------
                // Scan all clients once, serving pending requests.
                10 => {
                    if self.scan_at >= self.clients {
                        // Sweep done: release the baton (store-release keeps
                        // the protocol sound; its cost is shared across the
                        // whole sweep).
                        self.state = 11;
                        return Op::store_release(BATON, 0);
                    }
                    match self.visit.step(self.scan_at, ctx) {
                        Polled::Emit(op) => return op,
                        Polled::Served | Polled::Miss => self.scan_at += 1,
                    }
                }
                11 => {
                    // Our own request was served during the sweep (we always
                    // serve ourselves).
                    self.resp.served_self(self.visit.own(self.round));
                    self.state = 30;
                }
                _ => match self.tail.step(self.visit.for_others) {
                    Some(op) => return op,
                    None => self.state = 0,
                },
            }
        }
    }
}

// ------------------------------------------------------- flat combining

/// A flat-combining client: checks its own publication record first, then
/// tries the combiner lock (test-and-test-and-set) and scans all records.
struct FcClient {
    id: usize,
    clients: usize,
    round: u64,
    resp: Await,
    visit: Visit,
    tail: Tail,
    scan_at: usize,
    pass: u32,
    pass_served: u32,
    own_served: bool,
    state: u8,
}

impl SimThread for FcClient {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            match self.state {
                // Post own request into the publication record.
                0 => {
                    self.round += 1;
                    self.own_served = false;
                    self.state = 1;
                    return Op::store(req_addr(self.id), self.round);
                }
                // Check own response before fighting for the lock.
                1 => match self.resp.poll(self.visit.own(self.round), ctx) {
                    Polled::Emit(op) => return op,
                    Polled::Served => self.state = 30,
                    Polled::Miss => self.state = 2,
                },
                // Test-and-test-and-set on the combiner lock.
                2 => {
                    self.state = 3;
                    return Op::load_use(FC_LOCK);
                }
                3 => {
                    if ctx.last_value() != 0 {
                        self.state = 1;
                        return Op::Nops(2);
                    }
                    self.state = 4;
                    return try_lock(FC_LOCK);
                }
                4 => {
                    if ctx.last_value() != 0 {
                        self.state = 1;
                        return Op::Nops(2);
                    }
                    self.pass = 0;
                    self.pass_served = 0;
                    self.scan_at = 0;
                    self.state = 10;
                }
                // ---------------- combiner scan ----------------
                10 => {
                    if self.scan_at >= self.clients {
                        // Pass done: go again only if this one served
                        // anything and passes remain.
                        if self.pass_served == 0 || self.pass + 1 >= FC_SCAN_PASSES {
                            // Release the combiner lock.
                            self.state = 11;
                            return Op::store_release(FC_LOCK, 0);
                        }
                        self.pass += 1;
                        self.pass_served = 0;
                        self.scan_at = 0;
                        continue;
                    }
                    match self.visit.step(self.scan_at, ctx) {
                        Polled::Emit(op) => return op,
                        Polled::Served => {
                            self.pass_served += 1;
                            self.own_served |= self.scan_at == self.id;
                            self.scan_at += 1;
                        }
                        Polled::Miss => self.scan_at += 1,
                    }
                }
                11 => {
                    if self.own_served {
                        self.resp.served_self(self.visit.own(self.round));
                        self.state = 30;
                    } else {
                        // Someone else got to us first (or nobody yet):
                        // back to watching our record.
                        self.state = 1;
                    }
                }
                _ => match self.tail.step(self.visit.for_others) {
                    Some(op) => return op,
                    None => self.state = 0,
                },
            }
        }
    }
}

// ------------------------------------------------------------- CC-Synch

/// A CC-Synch client: swaps its spare node into the shared tail, adopts
/// the old tail as its request node, and spins on that node's status word
/// alone. The head of the queue combines.
struct CcClient {
    resp: Await,
    serve: Serve,
    tail: Tail,
    /// Node currently owned (spare before enqueue, request node after).
    node: u64,
    /// The node we just pushed as the new tail dummy.
    enqueued: u64,
    round: u64,
    for_others: u64,
    walk_at: u64,
    walk_next: u64,
    bound_served: u32,
    state: u8,
}

impl SimThread for CcClient {
    fn next(&mut self, ctx: &mut ThreadCtx) -> Op {
        loop {
            match self.state {
                // Reset the spare node before exposing it as the new tail.
                0 => {
                    self.round += 1;
                    self.state = 1;
                    return Op::store(node_status(self.node), CC_WAIT);
                }
                1 => {
                    self.state = 2;
                    return Op::store(node_next(self.node), 0);
                }
                // Swap it in; the old tail becomes our request node.
                2 => {
                    self.state = 3;
                    return Op::Rmw {
                        addr: CC_TAIL,
                        kind: armbar_sim::RmwKind::Swap,
                        operand: self.node,
                        acquire: true,
                        release: true,
                    };
                }
                3 => {
                    self.enqueued = self.node;
                    self.node = ctx.last_value();
                    self.state = 4;
                    return Op::store(node_req(self.node), self.round);
                }
                // Linking publishes the request to the combiner.
                4 => {
                    self.state = 5;
                    return Op::store_release(node_next(self.node), self.enqueued);
                }
                // Spin on our node's status word only: it announces the
                // response, or hands us the combiner role.
                5 => match self
                    .resp
                    .poll(Publish::status_word(self.node, self.round), ctx)
                {
                    Polled::Emit(op) => return op,
                    Polled::Served => self.state = 30,
                    Polled::Miss if ctx.last_value() == CC_COMBINER => {
                        self.walk_at = self.node;
                        self.bound_served = 0;
                        self.state = 10;
                    }
                    Polled::Miss => return Op::Nops(2),
                },
                // ---------------- combiner walk ----------------
                10 => {
                    self.state = 11;
                    return Op::load_use(node_next(self.walk_at));
                }
                11 => {
                    let nxt = ctx.last_value();
                    if nxt == 0 || self.bound_served >= CC_COMBINE_BOUND {
                        // Tail dummy (no request) or bound hit: hand the
                        // combiner role to this node's owner. Our own
                        // request (served first in this walk) is complete.
                        self.state = 30;
                        return Op::store_release(node_status(self.walk_at), CC_COMBINER);
                    }
                    self.walk_next = nxt;
                    // Request barrier: order the link detection before the
                    // request read and the critical section.
                    self.state = 12;
                    let link = node_next(self.walk_at);
                    if let Some(op) = order_after_load(self.serve.barriers.req, link) {
                        return op;
                    }
                }
                12 => {
                    self.state = 13;
                    return Op::load_use(node_req(self.walk_at));
                }
                13 => {
                    let round = ctx.last_value();
                    // Our own request: the result is local, no notification
                    // needed.
                    let publish = (self.walk_at != self.node)
                        .then(|| Publish::status_word(self.walk_at, round));
                    self.serve.begin_ordered(round, publish);
                    self.state = 14;
                }
                14 => match self.serve.step(ctx) {
                    Some(op) => return op,
                    None => {
                        self.bound_served += 1;
                        if self.walk_at != self.node {
                            self.for_others += 1;
                        }
                        self.walk_at = self.walk_next;
                        self.state = 10;
                    }
                },
                _ => match self.tail.step(self.for_others) {
                    Some(op) => return op,
                    None => self.state = 0,
                },
            }
        }
    }
}

// ------------------------------------------------------------- run harness

/// Which delegation lock to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DelegationKind {
    /// Dedicated-server FFWD.
    Ffwd,
    /// Migratory combiner (CC-Synch/DSM-Synch family).
    DSynch,
    /// Remote core locking: a dedicated server whose request word doubles
    /// as the completion channel (one line round-trip per operation).
    Rcl,
    /// Flat combining: publication list + elected combiner
    /// (test-and-test-and-set lock, bounded scan passes).
    FlatCombining,
    /// Textbook CC-Synch: swap-based FIFO of recycled nodes, each waiter
    /// spinning on a single packed status word.
    CcSynch,
}

impl DelegationKind {
    /// All delegation designs, in the order the experiments sweep them.
    pub const ALL: [DelegationKind; 5] = [
        DelegationKind::Ffwd,
        DelegationKind::DSynch,
        DelegationKind::Rcl,
        DelegationKind::FlatCombining,
        DelegationKind::CcSynch,
    ];

    /// Short label used in CSV rows.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DelegationKind::Ffwd => "ffwd",
            DelegationKind::DSynch => "dsynch",
            DelegationKind::Rcl => "rcl",
            DelegationKind::FlatCombining => "flatcomb",
            DelegationKind::CcSynch => "ccsynch",
        }
    }

    /// Does this design dedicate a server core on top of the clients?
    #[must_use]
    pub fn has_server_core(self) -> bool {
        matches!(self, DelegationKind::Ffwd | DelegationKind::Rcl)
    }
}

/// Configuration of one delegation run.
#[derive(Debug, Clone, Copy)]
pub struct DelegationConfig {
    /// Which lock.
    pub kind: DelegationKind,
    /// Client cores (FFWD adds one server core on top).
    pub clients: usize,
    /// Barrier pair.
    pub barriers: DelegationBarriers,
    /// Flag or Pilot responses.
    pub mode: ResponseMode,
    /// Critical-section shape.
    pub profile: CsProfile,
    /// Requests per client.
    pub per_client: u64,
    /// Nops between a client's requests (Figure 7(c)'s interval).
    pub interval_nops: u32,
}

impl DelegationConfig {
    /// A reasonable default: FFWD, 8 clients, best barriers, counter CS.
    #[must_use]
    pub fn default_ffwd() -> DelegationConfig {
        DelegationConfig {
            kind: DelegationKind::Ffwd,
            clients: 8,
            barriers: DelegationBarriers {
                req: Barrier::Ldar,
                resp: Barrier::DmbSt,
            },
            mode: ResponseMode::Flag,
            profile: CsProfile::counter(),
            per_client: 40,
            interval_nops: 0,
        }
    }
}

/// Run a delegation benchmark; returns total served requests / second.
#[must_use]
pub fn run_delegation(platform: &Platform, cfg: DelegationConfig) -> LockResult {
    run_delegation_with(platform, cfg, RunOpts::default())
        .0
        .result
}

/// [`run_delegation`] under explicit [`RunOpts`], with the full
/// response-time science — per-operation latency histogram (merged over
/// clients), Jain's fairness index over per-client throughput, and the
/// combiner-subversion counter — and the recorded trace.
#[must_use]
pub fn run_delegation_with(
    platform: &Platform,
    cfg: DelegationConfig,
    opts: RunOpts,
) -> (DlockMetrics, Trace) {
    // Dedicated-server layouts use core 0 for the server plus one core per
    // client, combiner layouts place the clients on cores 0..clients.
    let first_client = usize::from(cfg.kind.has_server_core());
    let active_cores = first_client + cfg.clients;
    let mut m = machine("delegation", platform, active_cores, opts);
    let total = cfg.per_client * cfg.clients as u64;
    if cfg.kind.has_server_core() {
        let channel = match cfg.kind {
            DelegationKind::Rcl => Channel::RequestWord,
            _ => Channel::Slot {
                seen: vec![0; cfg.clients],
            },
        };
        m.add_thread_on(
            0,
            Box::new(Server {
                channel,
                clients: cfg.clients,
                total,
                serve: Serve::new(&cfg),
                scan_at: 0,
                state: 0,
            }),
        );
    }
    if cfg.kind == DelegationKind::CcSynch {
        // Node ids 1..=clients are the clients' initial spares; node
        // clients+1 is the initial tail dummy holding the combiner role.
        let dummy = cfg.clients as u64 + 1;
        m.preset_memory(CC_TAIL, dummy);
        m.preset_memory(node_status(dummy), CC_COMBINER);
    }
    for id in 0..cfg.clients {
        let core = first_client + id;
        let slot = Await::new(&cfg, Some(resp_flag_addr(id)));
        let word = Await::new(&cfg, None);
        let combiner_tail = Tail::new(&cfg, Some(subv_addr(core)));
        let thread: Box<dyn SimThread> = match cfg.kind {
            DelegationKind::Ffwd => Box::new(Client {
                id,
                round: 0,
                resp: slot,
                tail: Tail::new(&cfg, None),
                state: 0,
            }),
            DelegationKind::Rcl => Box::new(RclClient {
                id,
                round: 0,
                resp: word,
                tail: Tail::new(&cfg, None),
                state: 0,
            }),
            DelegationKind::DSynch => Box::new(CombinerClient {
                id,
                clients: cfg.clients,
                round: 0,
                resp: slot,
                visit: Visit::new(id, &cfg),
                tail: combiner_tail,
                scan_at: 0,
                poll_misses: 0,
                state: 0,
            }),
            DelegationKind::FlatCombining => Box::new(FcClient {
                id,
                clients: cfg.clients,
                round: 0,
                resp: slot,
                visit: Visit::new(id, &cfg),
                tail: combiner_tail,
                scan_at: 0,
                pass: 0,
                pass_served: 0,
                own_served: false,
                state: 0,
            }),
            DelegationKind::CcSynch => Box::new(CcClient {
                resp: word,
                serve: Serve::new(&cfg),
                tail: combiner_tail,
                node: id as u64 + 1,
                enqueued: 0,
                round: 0,
                for_others: 0,
                walk_at: 0,
                walk_next: 0,
                bound_served: 0,
                state: 0,
            }),
        };
        m.add_thread_on(core, thread);
    }
    let (mut metrics, trace) = run_lock("delegation", &mut m, total, first_client..active_cores);
    metrics.subverted = (0..active_cores).map(|c| m.read_memory(subv_addr(c))).sum();
    (metrics, trace)
}

/// Figure 7(c): throughput of the five lock variants at one contention
/// interval (`10^n × 128` nops).
#[must_use]
pub fn fig7c_point(
    platform: &Platform,
    clients: usize,
    interval_nops: u32,
    per: u64,
) -> [(String, f64); 5] {
    let delegation = |kind, mode| {
        let cfg = DelegationConfig {
            kind,
            clients,
            barriers: DelegationBarriers {
                req: Barrier::Ldar,
                resp: Barrier::DmbSt,
            },
            mode,
            profile: CsProfile::counter(),
            per_client: per,
            interval_nops,
        };
        run_delegation(platform, cfg).locks_per_sec
    };
    let ticket = run_ticket(
        platform,
        TicketConfig {
            threads: clients,
            global_lines: 1,
            cs_nops: 4,
            post_nops: interval_nops,
            release_barrier: Barrier::DmbSt,
            per_thread: per,
        },
    );
    use {
        DelegationKind::{DSynch, Ffwd},
        ResponseMode::{Flag, Pilot},
    };
    [
        ("Ticket".into(), ticket.locks_per_sec),
        ("DSynch".into(), delegation(DSynch, Flag)),
        ("DSynch-P".into(), delegation(DSynch, Pilot)),
        ("FFWD".into(), delegation(Ffwd, Flag)),
        ("FFWD-P".into(), delegation(Ffwd, Pilot)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use armbar_sim::Engine;

    fn kunpeng() -> Platform {
        Platform::kunpeng916()
    }

    #[test]
    fn ffwd_serves_every_request() {
        let r = run_delegation(&kunpeng(), DelegationConfig::default_ffwd());
        assert_eq!(r.acquisitions, 8 * 40);
        assert!(r.locks_per_sec > 0.0);
    }

    #[test]
    fn ffwd_pilot_serves_every_request() {
        let cfg = DelegationConfig {
            mode: ResponseMode::Pilot,
            ..DelegationConfig::default_ffwd()
        };
        let r = run_delegation(&kunpeng(), cfg);
        assert_eq!(r.acquisitions, 8 * 40);
    }

    #[test]
    fn dsynch_serves_every_request() {
        for mode in [ResponseMode::Flag, ResponseMode::Pilot] {
            let cfg = DelegationConfig {
                kind: DelegationKind::DSynch,
                clients: 6,
                per_client: 30,
                mode,
                ..DelegationConfig::default_ffwd()
            };
            let r = run_delegation(&kunpeng(), cfg);
            assert_eq!(r.acquisitions, 180, "{mode:?}");
        }
    }

    #[test]
    fn fig7b_bus_free_request_barriers_beat_dmb_full() {
        let run = |barriers| {
            run_delegation(
                &kunpeng(),
                DelegationConfig {
                    barriers,
                    clients: 8,
                    per_client: 40,
                    ..DelegationConfig::default_ffwd()
                },
            )
            .locks_per_sec
        };
        let full = run(DelegationBarriers {
            req: Barrier::DmbFull,
            resp: Barrier::DmbSt,
        });
        let ldar = run(DelegationBarriers {
            req: Barrier::Ldar,
            resp: Barrier::DmbSt,
        });
        let addr = run(DelegationBarriers {
            req: Barrier::AddrDep,
            resp: Barrier::DmbSt,
        });
        assert!(
            ldar > full,
            "LDAR {ldar} over DMB full {full} (Observation 6)"
        );
        assert!(addr >= ldar * 0.95, "deps at least as good as LDAR");
    }

    #[test]
    fn fig7b_removing_the_response_barrier_helps() {
        let run = |barriers| {
            run_delegation(
                &kunpeng(),
                DelegationConfig {
                    barriers,
                    clients: 8,
                    per_client: 40,
                    profile: CsProfile::queue_or_stack(),
                    ..DelegationConfig::default_ffwd()
                },
            )
            .locks_per_sec
        };
        let with = run(DelegationBarriers {
            req: Barrier::Ldar,
            resp: Barrier::DmbSt,
        });
        let without = run(DelegationBarriers {
            req: Barrier::Ldar,
            resp: Barrier::None,
        });
        assert!(
            without > with * 1.05,
            "no-resp {without} vs {with} (the paper's ~22%)"
        );
    }

    #[test]
    fn fig7c_pilot_helps_both_delegation_locks_at_high_contention() {
        let p = kunpeng();
        let point = fig7c_point(&p, 8, 0, 30);
        let get = |name: &str| {
            point
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
                .expect("variant present")
        };
        assert!(get("DSynch-P") > get("DSynch"), "{point:?}");
        assert!(get("FFWD-P") > get("FFWD"), "{point:?}");
    }

    #[test]
    fn fig7c_pilot_gain_fades_at_low_contention() {
        let p = kunpeng();
        let gain_at = |interval| {
            let point = fig7c_point(&p, 6, interval, 20);
            let get = |name: &str| {
                point
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, v)| v)
                    .expect("present")
            };
            get("DSynch-P") / get("DSynch")
        };
        let high = gain_at(0);
        let low = gain_at(12_800);
        assert!(high > low, "gain at high contention {high} > at low {low}");
        assert!(
            low > 0.9,
            "Pilot never degrades much below baseline, got {low}"
        );
    }

    #[test]
    fn determinism() {
        let cfg = DelegationConfig {
            kind: DelegationKind::DSynch,
            clients: 4,
            per_client: 20,
            ..DelegationConfig::default_ffwd()
        };
        let a = run_delegation(&kunpeng(), cfg);
        let b = run_delegation(&kunpeng(), cfg);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn rcl_serves_every_request() {
        for mode in [ResponseMode::Flag, ResponseMode::Pilot] {
            let cfg = DelegationConfig {
                kind: DelegationKind::Rcl,
                clients: 6,
                per_client: 30,
                mode,
                ..DelegationConfig::default_ffwd()
            };
            let r = run_delegation(&kunpeng(), cfg);
            assert_eq!(r.acquisitions, 180, "{mode:?}");
            assert!(r.locks_per_sec > 0.0);
        }
    }

    #[test]
    fn flat_combining_serves_every_request() {
        for mode in [ResponseMode::Flag, ResponseMode::Pilot] {
            let cfg = DelegationConfig {
                kind: DelegationKind::FlatCombining,
                clients: 6,
                per_client: 30,
                mode,
                ..DelegationConfig::default_ffwd()
            };
            let r = run_delegation(&kunpeng(), cfg);
            assert_eq!(r.acquisitions, 180, "{mode:?}");
        }
    }

    #[test]
    fn ccsynch_serves_every_request() {
        for mode in [ResponseMode::Flag, ResponseMode::Pilot] {
            let cfg = DelegationConfig {
                kind: DelegationKind::CcSynch,
                clients: 6,
                per_client: 30,
                mode,
                ..DelegationConfig::default_ffwd()
            };
            let r = run_delegation(&kunpeng(), cfg);
            assert_eq!(r.acquisitions, 180, "{mode:?}");
        }
    }

    #[test]
    fn dedicated_servers_subvert_everything() {
        // FFWD and RCL run every critical section on the server core.
        for kind in [DelegationKind::Ffwd, DelegationKind::Rcl] {
            let cfg = DelegationConfig {
                kind,
                clients: 4,
                per_client: 20,
                ..DelegationConfig::default_ffwd()
            };
            let m = run_delegation_with(&kunpeng(), cfg, RunOpts::default()).0;
            assert_eq!(m.subverted, m.total_ops, "{kind:?}");
            assert!((m.subverted_share() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn combiners_subvert_some_but_not_all() {
        // A migratory combiner serves its own request too, so subversion
        // sits strictly between 0 and the total.
        for kind in [
            DelegationKind::DSynch,
            DelegationKind::FlatCombining,
            DelegationKind::CcSynch,
        ] {
            let cfg = DelegationConfig {
                kind,
                clients: 6,
                per_client: 30,
                ..DelegationConfig::default_ffwd()
            };
            let m = run_delegation_with(&kunpeng(), cfg, RunOpts::default()).0;
            assert!(m.subverted > 0, "{kind:?}: combining must serve others");
            assert!(
                m.subverted < m.total_ops,
                "{kind:?}: every client serves itself at least once"
            );
        }
    }

    #[test]
    fn metrics_are_coherent_for_every_kind() {
        for kind in DelegationKind::ALL {
            let cfg = DelegationConfig {
                kind,
                clients: 4,
                per_client: 20,
                ..DelegationConfig::default_ffwd()
            };
            let m = run_delegation_with(&kunpeng(), cfg, RunOpts::default()).0;
            // One latency sample per IterationMark: each client marks all
            // but its final completion (the final one halts instead).
            assert_eq!(m.latency.total(), 4 * (20 - 1), "{kind:?}");
            let (p50, p99, p999, max) = m.latency.summary();
            assert!(p50 <= p99 && p99 <= p999 && p999 <= max, "{kind:?}");
            assert!(max > 0, "{kind:?}: operations take time");
            assert!(
                m.fairness > 0.0 && m.fairness <= 1.0,
                "{kind:?}: Jain in (0,1], got {}",
                m.fairness
            );
        }
    }

    #[test]
    fn engines_agree_on_every_kind() {
        for kind in DelegationKind::ALL {
            let cfg = DelegationConfig {
                kind,
                clients: 3,
                per_client: 15,
                ..DelegationConfig::default_ffwd()
            };
            let on = |engine| RunOpts {
                engine: Some(engine),
                trace_capacity: None,
            };
            let a = run_delegation_with(&kunpeng(), cfg, on(Engine::EventDriven)).0;
            let b = run_delegation_with(&kunpeng(), cfg, on(Engine::LockstepOracle)).0;
            assert_eq!(a.result.cycles, b.result.cycles, "{kind:?}");
            assert_eq!(a.latency, b.latency, "{kind:?}");
            assert_eq!(a.subverted, b.subverted, "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "delegation: not enough cores: 65 > 64")]
    fn the_server_core_counts_against_the_core_budget() {
        let cfg = DelegationConfig {
            clients: 64,
            per_client: 1,
            ..DelegationConfig::default_ffwd()
        };
        let _ = run_delegation(&kunpeng(), cfg);
    }
}
