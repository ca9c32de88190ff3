//! The dedicated-server skeleton: one server thread owns the protected
//! state and sweeps per-client slots (Algorithm 5's server loop); clients
//! post into their slot and wait on it.
//!
//! What a request and a response look like *in the slot* is the [`Slot`]
//! protocol, a static type parameter: the one in [`crate::ffwd`] or the one
//! in [`crate::rcl`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crossbeam::utils::Backoff;

use armbar_barriers::native::run_barrier;
use armbar_barriers::ResponseMode;
use armbar_pilot::{spin_until, HashPool};

use crate::core::Core;
use crate::exec::{Executor, OpId, OpTable};

/// One client's communication slot under a dedicated server. Not an
/// extension point: its methods take this crate's private core, so the two
/// in-crate protocols are the only implementations there can be.
pub trait Slot: Default + Send + Sync + 'static {
    /// One end's private memory of a slot: the client keeps one, the server
    /// one per client.
    type End: Send;

    /// A fresh end, before the slot's first round.
    fn end(pool: &HashPool) -> Self::End;
    /// Client: write the request and publish it.
    fn post(&self, end: &mut Self::End, op: OpId, arg: u64);
    /// Client: one look at the slot — the result, once the request is served.
    fn poll<T>(&self, core: &Core<T>, end: &mut Self::End) -> Option<u64>;
    /// Server (lines 1-3): the word announcing a request not yet served.
    fn detect(&self, end: &mut Self::End) -> Option<u64>;
    /// Server, after the request barrier: the detected request's op and arg.
    fn request(&self, detected: u64) -> (OpId, u64);
    /// Server (lines 7-8 / Algorithm 6): publish the result.
    fn respond<T>(&self, core: &Core<T>, end: &mut Self::End, raw: u64);
}

struct Shared<T, S> {
    core: Core<T>,
    slots: Vec<S>,
    /// Set by the one `start_server` call a lock accepts.
    started: AtomicBool,
    stop: AtomicBool,
}

/// A dedicated-server delegation lock over slot protocol `S`. Construct
/// with [`Dedicated::new`], then [`Dedicated::start_server`].
pub struct Dedicated<T, S> {
    shared: Arc<Shared<T, S>>,
}

/// A client handle: everything one thread needs to submit requests.
pub struct Client<T, S: Slot> {
    shared: Arc<Shared<T, S>>,
    id: usize,
    end: S::End,
}

impl<T: Send + 'static, S: Slot> Dedicated<T, S> {
    /// A lock for clients `0..max_clients` answering in `mode`, with the
    /// paper's best barrier pair.
    ///
    /// # Panics
    ///
    /// Panics if `max_clients == 0`.
    #[must_use]
    pub fn new(max_clients: usize, state: T, ops: OpTable<T>, mode: ResponseMode) -> Self {
        assert!(max_clients > 0);
        Dedicated {
            shared: Arc::new(Shared {
                core: Core::new(state, ops, mode),
                slots: (0..max_clients).map(|_| S::default()).collect(),
                started: AtomicBool::new(false),
                stop: AtomicBool::new(false),
            }),
        }
    }

    /// Obtain the client handle for slot `id`. A slot's decode state lives
    /// in its handle, so each slot must be claimed once.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn client(&self, id: usize) -> Client<T, S> {
        assert!(id < self.shared.slots.len(), "client id out of range");
        Client {
            shared: Arc::clone(&self.shared),
            id,
            end: S::end(&self.shared.core.pool),
        }
    }

    /// Spawn the dedicated server thread. Stop it with
    /// [`Dedicated::shutdown`].
    ///
    /// # Panics
    ///
    /// Panics on a second call: the server owns the state for good.
    #[must_use]
    #[allow(unsafe_code)]
    pub fn start_server(&self) -> JoinHandle<()> {
        let again = self.shared.started.swap(true, Ordering::Relaxed);
        assert!(!again, "a dedicated lock has one server");
        let shared = Arc::clone(&self.shared);
        std::thread::spawn(move || {
            let core = &shared.core;
            let mut ends: Vec<S::End> = shared.slots.iter().map(|_| S::end(&core.pool)).collect();
            let backoff = Backoff::new();
            // Scanning all slots per sweep lets responses drain together —
            // the store-buffer-friendliness the paper credits FFWD with.
            loop {
                let mut served = 0u32;
                for (slot, end) in shared.slots.iter().zip(&mut ends) {
                    let Some(detected) = slot.detect(end) else {
                        continue;
                    };
                    // Line 4: order the detection before op/arg and the CS.
                    run_barrier(core.req_barrier);
                    let (op, arg) = slot.request(detected);
                    // Line 6. SAFETY: `started` admits one server thread per
                    // lock, and nothing else in the skeleton serves.
                    let raw = unsafe { core.serve(op, arg) };
                    slot.respond(core, end, raw);
                    served += 1;
                }
                if served == 0 {
                    if shared.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    backoff.snooze();
                } else {
                    backoff.reset();
                }
            }
        })
    }

    /// Ask the server loop to exit once it drains outstanding requests.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Relaxed);
    }
}

impl<T, S: Slot> Client<T, S> {
    /// Submit one critical section and wait for its result.
    pub fn execute(&mut self, op: OpId, arg: u64) -> u64 {
        let slot = &self.shared.slots[self.id];
        slot.post(&mut self.end, op, arg);
        spin_until(|| slot.poll(&self.shared.core, &mut self.end))
    }
}

/// A sharable pool of client handles implementing [`Executor`], one per
/// slot of the lock, each used by one pre-registered thread.
pub struct ClientPool<T, S: Slot> {
    clients: Vec<Mutex<Client<T, S>>>,
}

impl<T: Send + 'static, S: Slot> ClientPool<T, S> {
    /// Claim every slot of `lock` as handles `0..max_clients`.
    #[must_use]
    pub fn new(lock: &Dedicated<T, S>) -> Self {
        ClientPool {
            clients: (0..lock.shared.slots.len())
                .map(|id| Mutex::new(lock.client(id)))
                .collect(),
        }
    }
}

impl<T: Send + 'static, S: Slot> Executor<T> for ClientPool<T, S> {
    fn execute(&self, handle: usize, id: OpId, arg: u64) -> u64 {
        // Each handle is used by exactly one thread; the Mutex is
        // uncontended and only satisfies the `&self` signature.
        self.clients[handle]
            .lock()
            .expect("a client panicked mid-request")
            .execute(id, arg)
    }
}
