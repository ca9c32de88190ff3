//! Delegation locks on the simulator (Figures 7(b), 7(c), 8(a–c), `dlock`).
//!
//! Five designs over the same request/response protocol (Algorithm 5):
//!
//! * **FFWD**, **RCL** — a dedicated `server` core sweeps per-client
//!   request lines, executing critical sections and publishing responses.
//!   Responses of one sweep share the response barrier — FFWD's batching.
//!   RCL's request word doubles as the completion channel.
//! * **DSynch**, **flat combining** — migratory combiners: a client that
//!   wins the baton (or the combiner lock) `visit`s every publication
//!   record and serves the pending ones, including its own. No core is
//!   dedicated.
//! * **CC-Synch** — a swap-based FIFO of recycled nodes; the head of the
//!   queue combines, each waiter spins on one packed status word.
//!
//! All publish responses either the classic way — store `ret`, response
//! barrier (strictly after the critical section's RMRs), store the flag —
//! or via **Pilot** (Algorithm 6): `ret ^ hash` *is* the notification. The
//! sequence is written once, in `serve`; *where* the stores go is the
//! per-design `Publish` value, which also drives the waiting side
//! (`Response::poll`).
//!
//! Critical sections are parameterized by a [`CsProfile`] so the
//! data-structure benchmarks of Figure 8 (queue/stack/list/hash table) map
//! onto the same machinery: how many shared lines the CS touches, how long
//! the dependent pointer-chase is, and how much ALU work it does.

use armbar_barriers::Barrier;
use armbar_sim::{Cpu, Machine, Op, Platform, RmwKind, Script, SimThread, Trace};

use crate::harness::{machine, run_lock, RunOpts};
use crate::lower::{fence, order_after_load};
use crate::metrics::DlockMetrics;
use crate::ticket_sim::{modify_lines, LockResult};

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

/// One delegated critical section, the `served + 1`th this thread executes:
/// independent lines are read+written, then the dependent chase reads
/// `DATA_BASE + 0x1000 + k*64` with an address dependency on the previous
/// load (each node is a distinct line), then the ALU work.
async fn critical_section(cpu: Cpu, profile: CsProfile, served: u64) {
    modify_lines(cpu, DATA_BASE, profile.lines).await;
    for k in 0..u64::from(profile.chase) {
        let addr = DATA_BASE + 0x1000 + k * 64 + (served % 4) * 0x4000;
        cpu.op(Op::load_dep(addr, true)).await;
    }
    if profile.nops > 0 {
        cpu.op(Op::Nops(profile.nops)).await;
    }
}

/// The election of the lock-based combiners: CAS a free (0) lock word to 1
/// with acquire semantics; the old value tells who won.
fn try_lock(addr: u64) -> Op {
    Op::Rmw {
        addr,
        kind: RmwKind::Cas { expected: 0 },
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

/// Serving request `round`, whose detection the caller already ordered with
/// the request barrier (Algorithm 5 line 4): the critical section (line 6)
/// and the published response (lines 7-8 / Algorithm 6). `served` counts
/// the requests this thread served. `publish` is `None` for the server's
/// own request: the result is local, nobody needs notifying.
async fn serve(
    cpu: Cpu,
    cfg: &DelegationConfig,
    served: &mut u64,
    round: u64,
    publish: Option<Publish>,
) {
    critical_section(cpu, cfg.profile, *served).await;
    *served += 1;
    let Some(publish) = publish else { return };
    match cfg.mode {
        ResponseMode::Flag => {
            cpu.op(Op::store(publish.ret, round.wrapping_mul(3))).await;
            fence(cpu, cfg.barriers.resp).await;
            cpu.op(Op::store(publish.notify, publish.flag_value)).await;
        }
        ResponseMode::Pilot => {
            // The shuffled ret is the notification; hashing is two local
            // ALU ops, and no barrier follows.
            cpu.op(Op::Nops(2)).await;
            cpu.op(Op::store(publish.notify, publish.pilot_value)).await;
        }
    }
}

/// The waiting end of a [`Publish`]. Flag mode tests the announcing word
/// against `flag_value` — an absolute test, immune to stale delta state —
/// then reads the return value behind a dependency (the cheap client-side
/// ordering). Pilot mode tests a packed word against `pilot_value`; a
/// response slot is decoded by Algorithm 4: watch the response word for a
/// change, fall back to the flag.
struct Response {
    mode: ResponseMode,
    /// A response slot's fallback flag line (Algorithm 4 line 2); `None`
    /// when the response is a packed word.
    fallback: Option<u64>,
    old_resp: u64,
    old_flag: u64,
}

impl Response {
    fn new(cfg: &DelegationConfig, fallback: Option<u64>) -> Response {
        Response {
            mode: cfg.mode,
            fallback,
            old_resp: 0,
            old_flag: 0,
        }
    }

    /// One look at the word `expect` is announced in: `None` once the
    /// request has been served (and its response decoded), else the word
    /// just polled — what to do next is the caller's policy.
    async fn poll(&mut self, cpu: Cpu, expect: Publish) -> Option<u64> {
        let word = cpu.op(Op::load_use(expect.notify)).await;
        match (self.mode, self.fallback) {
            (ResponseMode::Flag, _) if word == expect.flag_value => {
                cpu.op(Op::load_dep(expect.ret, true)).await;
                None
            }
            (ResponseMode::Pilot, None) if word == expect.pilot_value => None,
            (ResponseMode::Pilot, Some(_)) if word != self.old_resp => {
                self.old_resp = word;
                None
            }
            (ResponseMode::Pilot, Some(flag)) => {
                let flag = cpu.op(Op::load_use(flag)).await;
                if flag == self.old_flag {
                    return Some(flag);
                }
                self.old_flag = flag;
                None
            }
            _ => Some(word),
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

/// A migratory combiner visiting `client`'s publication record: read the
/// posted round, compare it with the served-round marker, and claim and
/// serve a new request; `false` if there was none. The marker is shared
/// state: combiners migrate, so progress must live in memory, not in a
/// core-local array. The response is published to the combiner itself too
/// (uniform path).
async fn visit(cpu: Cpu, cfg: &DelegationConfig, served: &mut u64, client: usize) -> bool {
    let round = cpu.op(Op::load_use(req_addr(client))).await;
    let marker = cpu.op(Op::load_use(served_round_addr(client))).await;
    if round == marker {
        return false;
    }
    cpu.op(Op::store(served_round_addr(client), round)).await;
    order_after_load(cpu, cfg.barriers.req, req_addr(client)).await;
    let publish = Publish::slot(client, round, cfg.mode);
    serve(cpu, cfg, served, round, Some(publish)).await;
    true
}

/// The end of a client's `round`th operation: mark the iteration and pace
/// by the interval; `false` after the last one, when the client retires.
async fn tail(cpu: Cpu, cfg: &DelegationConfig, round: u64) -> bool {
    if round >= cfg.per_client {
        return false;
    }
    cpu.op(Op::IterationMark).await;
    if cfg.interval_nops > 0 {
        cpu.op(Op::Nops(cfg.interval_nops)).await;
    }
    true
}

// -------------------------------------------------------- dedicated server

/// A dedicated server's client (FFWD): posts a request, awaits the response
/// in its slot, repeats.
async fn ffwd_client(cpu: Cpu, id: usize, cfg: DelegationConfig) {
    let mut resp = Response::new(&cfg, Some(resp_flag_addr(id)));
    let mut round = 0;
    loop {
        // Post the request: one store carrying round+payload.
        round += 1;
        cpu.op(Op::store(req_addr(id), round)).await;
        // Await the response. In flag mode the client looks at the response
        // line first, then at the flag word that signals.
        let expect = Publish::slot(id, round, cfg.mode);
        loop {
            cpu.spin_mark().await;
            if cfg.mode == ResponseMode::Flag {
                cpu.op(Op::load_use(resp_addr(id))).await;
            }
            if resp.poll(cpu, expect).await.is_none() {
                break;
            }
            cpu.op(Op::Nops(1)).await;
        }
        if !tail(cpu, &cfg, round).await {
            return;
        }
    }
}

/// An RCL client: the request word it spins on is also the completion
/// channel, so one padded line round-trips per operation.
async fn rcl_client(cpu: Cpu, id: usize, cfg: DelegationConfig) {
    let mut resp = Response::new(&cfg, None);
    let mut round = 0;
    loop {
        // Post the request: an even, non-zero word (round * 2).
        round += 1;
        cpu.op(Op::store(req_addr(id), round * 2)).await;
        // Spin on the same word: cleared (flag) or odd (pilot: the
        // notification and the payload in the word we already hold) means
        // served.
        let expect = Publish::request_word(id, round);
        loop {
            cpu.spin_mark().await;
            if resp.poll(cpu, expect).await.is_none() {
                break;
            }
            cpu.op(Op::Nops(1)).await;
        }
        if !tail(cpu, &cfg, round).await {
            return;
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
/// (Algorithm 5) until all `total` requests are served; responses of one
/// sweep share the response barrier. Each sweep is a marked poll loop that
/// serving closes, so only idle sweeps are ever compared.
async fn server(cpu: Cpu, cfg: DelegationConfig, mut channel: Channel, total: u64) {
    let mut served = 0;
    let mut client = 0;
    while served < total {
        if client == 0 {
            cpu.spin_mark().await;
        }
        // Poll the next client's request line.
        let word = cpu.op(Op::load_use(req_addr(client))).await;
        if let Some(round) = channel.pending(client, word) {
            order_after_load(cpu, cfg.barriers.req, req_addr(client)).await;
            let publish = channel.publish(client, round, cfg.mode);
            serve(cpu, &cfg, &mut served, round, Some(publish)).await;
            cpu.op(Op::store(SERVED, served)).await;
        }
        client = (client + 1) % cfg.clients;
    }
    // Every critical section a dedicated server runs is on behalf of someone
    // else: publish the subversion counter, then retire.
    cpu.op(Op::store(subv_addr(0), served)).await;
}

// -------------------------------------------------------- DSynch combiner

/// A DSynch-family client: posts its request, then either waits for
/// service or grabs the baton and combines.
async fn dsynch_client(cpu: Cpu, id: usize, cfg: DelegationConfig) {
    let mut resp = Response::new(&cfg, Some(resp_flag_addr(id)));
    let (mut served, mut for_others) = (0, 0);
    let mut poll_misses = 0u64;
    let mut round = 0;
    loop {
        // Post own request.
        round += 1;
        cpu.op(Op::store(req_addr(id), round)).await;
        let own = Publish::slot(id, round, cfg.mode);
        // Try to become the combiner (baton CAS), else wait.
        'operation: loop {
            if cpu.op(try_lock(BATON)).await == 0 {
                // We hold the baton: scan all clients once, serving pending
                // requests — ours among them, we always serve ourselves.
                for client in 0..cfg.clients {
                    if visit(cpu, &cfg, &mut served, client).await && client != id {
                        for_others += 1;
                    }
                }
                // Sweep done: release the baton (store-release keeps the
                // protocol sound; its cost is shared across the whole sweep).
                cpu.op(Op::store_release(BATON, 0)).await;
                resp.served_self(own);
                break;
            }
            // Someone is combining; wait for our response. Spinning is
            // local: the polled lines are ours, so until a combiner writes
            // them the loads hit in our cache. (No `spin_mark`: the miss
            // counter below makes an iteration depend on more than the
            // values it loads.)
            while resp.poll(cpu, own).await.is_some() {
                // Not served yet: spin locally, retrying the baton only
                // occasionally so a released lock cannot strand us.
                poll_misses += 1;
                cpu.op(Op::Nops(2)).await;
                if poll_misses.is_multiple_of(8) {
                    continue 'operation;
                }
            }
            break;
        }
        if !tail(cpu, &cfg, round).await {
            break;
        }
    }
    cpu.op(Op::store(subv_addr(id), for_others)).await;
}

// ------------------------------------------------------- flat combining

/// A flat-combining client: checks its own publication record first, then
/// tries the combiner lock (test-and-test-and-set) and scans all records.
async fn fc_client(cpu: Cpu, id: usize, cfg: DelegationConfig) {
    let mut resp = Response::new(&cfg, Some(resp_flag_addr(id)));
    let (mut served, mut for_others) = (0, 0);
    let mut round = 0;
    loop {
        // Post own request into the publication record.
        round += 1;
        cpu.op(Op::store(req_addr(id), round)).await;
        let own = Publish::slot(id, round, cfg.mode);
        // Check own response before fighting for the lock.
        loop {
            cpu.spin_mark().await;
            if resp.poll(cpu, own).await.is_none() {
                break;
            }
            // Test-and-test-and-set on the combiner lock.
            if cpu.op(Op::load_use(FC_LOCK)).await != 0 || cpu.op(try_lock(FC_LOCK)).await != 0 {
                cpu.op(Op::Nops(2)).await;
                continue;
            }
            // Combiner scan: go again only if the last pass served anything
            // and passes remain.
            let mut own_served = false;
            for _pass in 0..FC_SCAN_PASSES {
                let mut pass_served = 0;
                for client in 0..cfg.clients {
                    if visit(cpu, &cfg, &mut served, client).await {
                        pass_served += 1;
                        if client == id {
                            own_served = true;
                        } else {
                            for_others += 1;
                        }
                    }
                }
                if pass_served == 0 {
                    break;
                }
            }
            // Release the combiner lock.
            cpu.op(Op::store_release(FC_LOCK, 0)).await;
            if own_served {
                resp.served_self(own);
                break;
            }
            // Someone else got to us first (or nobody yet): back to watching
            // our record.
        }
        if !tail(cpu, &cfg, round).await {
            break;
        }
    }
    cpu.op(Op::store(subv_addr(id), for_others)).await;
}

// ------------------------------------------------------------- CC-Synch

/// A CC-Synch client: swaps its spare node into the shared tail, adopts
/// the old tail as its request node, and spins on that node's status word
/// alone. The head of the queue combines.
async fn cc_client(cpu: Cpu, id: usize, cfg: DelegationConfig) {
    let mut resp = Response::new(&cfg, None);
    let (mut served, mut for_others) = (0, 0);
    // Node currently owned (spare before enqueue, request node after).
    let mut node = id as u64 + 1;
    let mut round = 0;
    loop {
        // Reset the spare node before exposing it as the new tail.
        round += 1;
        cpu.op(Op::store(node_status(node), CC_WAIT)).await;
        cpu.op(Op::store(node_next(node), 0)).await;
        // Swap it in; the old tail becomes our request node.
        let enqueued = node;
        node = cpu
            .op(Op::Rmw {
                addr: CC_TAIL,
                kind: RmwKind::Swap,
                operand: enqueued,
                acquire: true,
                release: true,
            })
            .await;
        cpu.op(Op::store(node_req(node), round)).await;
        // Linking publishes the request to the combiner.
        cpu.op(Op::store_release(node_next(node), enqueued)).await;
        // Spin on our node's status word only: it announces the response,
        // or hands us the combiner role.
        let expect = Publish::status_word(node, round);
        loop {
            cpu.spin_mark().await;
            let Some(status) = resp.poll(cpu, expect).await else {
                break;
            };
            if status != CC_COMBINER {
                cpu.op(Op::Nops(2)).await;
                continue;
            }
            // Combiner walk, from our own node (served first).
            let mut at = node;
            let mut bound_served = 0;
            loop {
                let link = node_next(at);
                let next = cpu.op(Op::load_use(link)).await;
                if next == 0 || bound_served >= CC_COMBINE_BOUND {
                    break;
                }
                // Request barrier: order the link detection before the
                // request read and the critical section.
                order_after_load(cpu, cfg.barriers.req, link).await;
                let request = cpu.op(Op::load_use(node_req(at))).await;
                // Our own request: the result is local, no notification
                // needed.
                let publish = (at != node).then(|| Publish::status_word(at, request));
                serve(cpu, &cfg, &mut served, request, publish).await;
                bound_served += 1;
                if at != node {
                    for_others += 1;
                }
                at = next;
            }
            // Tail dummy (no request) or bound hit: hand the combiner role
            // to this node's owner. Our own request is complete.
            cpu.op(Op::store_release(node_status(at), CC_COMBINER))
                .await;
            break;
        }
        if !tail(cpu, &cfg, round).await {
            break;
        }
    }
    cpu.op(Op::store(subv_addr(id), for_others)).await;
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

/// The machine of one delegation run under `opts`: server and client
/// threads attached, nothing run yet.
#[must_use]
pub fn delegation_machine(platform: &Platform, cfg: DelegationConfig, opts: RunOpts) -> Machine {
    // Dedicated-server layouts use core 0 for the server plus one core per
    // client, combiner layouts place the clients on cores 0..clients.
    let first_client = usize::from(cfg.kind.has_server_core());
    let mut m = machine("delegation", platform, first_client + cfg.clients, opts);
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
            Box::new(Script::new(|cpu| server(cpu, cfg, channel, total))),
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
        let thread: Box<dyn SimThread> = match cfg.kind {
            DelegationKind::Ffwd => Box::new(Script::new(|cpu| ffwd_client(cpu, id, cfg))),
            DelegationKind::Rcl => Box::new(Script::new(|cpu| rcl_client(cpu, id, cfg))),
            DelegationKind::DSynch => Box::new(Script::new(|cpu| dsynch_client(cpu, id, cfg))),
            DelegationKind::FlatCombining => Box::new(Script::new(|cpu| fc_client(cpu, id, cfg))),
            DelegationKind::CcSynch => Box::new(Script::new(|cpu| cc_client(cpu, id, cfg))),
        };
        m.add_thread_on(first_client + id, thread);
    }
    m
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
    let mut m = delegation_machine(platform, cfg, opts);
    let first_client = usize::from(cfg.kind.has_server_core());
    let active_cores = first_client + cfg.clients;
    let total = cfg.per_client * cfg.clients as u64;
    let (mut metrics, trace) = run_lock("delegation", &mut m, total, first_client..active_cores);
    metrics.subverted = (0..active_cores).map(|c| m.read_memory(subv_addr(c))).sum();
    (metrics, trace)
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

    /// Figure 7(c)'s delegation cell: the counter critical section with
    /// `interval_nops` between a client's requests.
    fn fig7c(
        kind: DelegationKind,
        mode: ResponseMode,
        clients: usize,
        interval: u32,
        per: u64,
    ) -> f64 {
        let cfg = DelegationConfig {
            kind,
            clients,
            mode,
            per_client: per,
            interval_nops: interval,
            ..DelegationConfig::default_ffwd()
        };
        run_delegation(&kunpeng(), cfg).locks_per_sec
    }

    #[test]
    fn fig7c_pilot_helps_both_delegation_locks_at_high_contention() {
        for kind in [DelegationKind::DSynch, DelegationKind::Ffwd] {
            let flag = fig7c(kind, ResponseMode::Flag, 8, 0, 30);
            let pilot = fig7c(kind, ResponseMode::Pilot, 8, 0, 30);
            assert!(pilot > flag, "{kind:?}: Pilot {pilot} vs Flag {flag}");
        }
    }

    #[test]
    fn fig7c_pilot_gain_fades_at_low_contention() {
        let gain_at = |interval| {
            let dsynch = |mode| fig7c(DelegationKind::DSynch, mode, 6, interval, 20);
            dsynch(ResponseMode::Pilot) / dsynch(ResponseMode::Flag)
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

    /// Figure 7(c)'s 10^3 column: twelve clients that sit in 128 000 nops
    /// between requests leave a dedicated server sweeping idle request
    /// lines. The sweep is a marked poll loop, so the event engine parks
    /// the server, often with its last responses still draining — and must
    /// read exactly like the oracle, which runs every sweep.
    #[test]
    fn idle_dedicated_servers_park_and_read_like_the_oracle() {
        for kind in [DelegationKind::Ffwd, DelegationKind::Rcl] {
            for mode in ResponseMode::ALL {
                let cfg = DelegationConfig {
                    kind,
                    clients: 12,
                    mode,
                    per_client: 8,
                    interval_nops: 128_000,
                    ..DelegationConfig::default_ffwd()
                };
                let run = |engine| {
                    let opts = RunOpts {
                        engine: Some(engine),
                        trace_capacity: None,
                    };
                    let mut m = delegation_machine(&kunpeng(), cfg, opts);
                    assert!(m.run(1 << 40).halted, "{kind:?} {mode:?}");
                    m
                };
                let (ev, or) = (run(Engine::EventDriven), run(Engine::LockstepOracle));
                assert_eq!(ev.now(), or.now(), "{kind:?} {mode:?}");
                for core in 0..=12 {
                    assert_eq!(
                        ev.core_stats(core),
                        or.core_stats(core),
                        "{kind:?} {mode:?}"
                    );
                }
                let words = (0..12).flat_map(|c| [req_addr(c), resp_addr(c), resp_flag_addr(c)]);
                for addr in words.chain([SERVED, subv_addr(0)]) {
                    assert_eq!(ev.read_memory(addr), or.read_memory(addr), "{addr:#x}");
                }
                let server = (ev.core(0), or.core(0));
                assert!(server.0.spin_periods_skipped() > 0, "{kind:?} {mode:?}");
                assert!(
                    10 * server.0.steps() < server.1.steps(),
                    "{kind:?} {mode:?}: the server took {} steps, the oracle's {}",
                    server.0.steps(),
                    server.1.steps()
                );
            }
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
