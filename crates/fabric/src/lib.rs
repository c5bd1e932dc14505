//! Execution platforms ("fabrics") for `parquake`.
//!
//! The paper measured a pthreads server on a 4-way Xeon with 2-way
//! hyper-threading. This reproduction must run on arbitrary hosts —
//! including single-core CI boxes — so every server and bot is written
//! against the [`Fabric`] trait, which provides the pthreads-shaped
//! primitive set the original used (mutexes, condition variables,
//! select-style blocking receive) plus a virtual clock and a way to
//! charge modelled CPU cost. Two implementations exist:
//!
//! * [`real::RealFabric`] — plain OS threads, `parking_lot` locks and
//!   condvars, in-memory message ports, wall-clock time. Runs the same
//!   protocol under true preemption; on a multicore host it measures
//!   real scaling.
//! * [`virt::VirtualSmp`] — a **deterministic virtual-time SMP
//!   simulator**: tasks are cooperative OS threads serialized by a
//!   scheduler that always advances the globally minimal virtual time
//!   point. Locks, condvars, timed waits and message delivery have
//!   exact virtual-time semantics, and `charge()` advances the calling
//!   task's clock by modelled work (with an optional hyper-threading
//!   efficiency model pairing tasks onto cores). Lock queueing, barrier
//!   imbalance and saturation *emerge* from the server algorithm run on
//!   this fabric, reproducing the paper's testbed on one core.
//!
//! Synchronization the experiment wants to *measure* must go through
//! the fabric; anything that bypasses it (e.g. a raw `std::sync::Mutex`
//! inside a task) is invisible to the virtual clock and can deadlock
//! the cooperative scheduler.

pub mod fault;
pub mod real;
pub mod virt;
pub mod witness;

use std::sync::Arc;

pub use witness::LockWitness;

/// Virtual or wall-clock nanoseconds since the fabric run started.
pub type Nanos = u64;
/// Task identifier (dense, assigned at spawn).
pub type TaskId = u32;
/// Mutex identifier.
pub type LockId = u32;
/// Condition-variable identifier.
pub type CondId = u32;
/// Message-port identifier (one receive queue per port).
pub type PortId = u32;

/// A datagram-style message delivered to a port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Message {
    /// Port the sender used as its source address (reply-to).
    pub from: PortId,
    /// Fabric time at which the message was sent.
    pub sent_at: Nanos,
    pub payload: Vec<u8>,
}

/// Entry point of a spawned task.
pub type TaskBody = Box<dyn FnOnce(&TaskCtx) + Send + 'static>;

/// The primitive set both fabrics implement. Methods taking a `TaskId`
/// must be called from within that task's body.
pub trait Fabric: Send + Sync {
    /// Short name for reports ("real" / "virtual-smp").
    fn kind(&self) -> &'static str;

    /// Allocate a mutex. Must be called before `run`.
    fn alloc_lock(&self) -> LockId;
    /// Allocate a condition variable. Must be called before `run`.
    fn alloc_cond(&self) -> CondId;
    /// Allocate a message port. Must be called before `run`.
    fn alloc_port(&self) -> PortId;
    /// Allocate a message port whose queue holds at most `capacity`
    /// messages. When a send would overflow it, the *oldest* queued
    /// message is discarded (newest-data-wins, the natural policy for
    /// game traffic) and the port's drop counter is incremented. Must
    /// be called before `run`; `capacity` must be nonzero.
    fn alloc_bounded_port(&self, capacity: usize) -> PortId;
    /// Messages discarded from `port` by the bounded-queue drop policy.
    fn port_dropped(&self, port: PortId) -> u64;
    /// Messages currently queued on `port` (delivered or in flight).
    fn port_pending(&self, port: PortId) -> usize;
    /// Earliest delivery time of any message queued on `port`, or
    /// `None` when the queue is empty. A value at or before the
    /// caller's clock means a `try_recv` would succeed now; a future
    /// value means the message is still in flight (virtual link
    /// latency or fault delay). Real fabrics deliver immediately, so
    /// any queued message reports time 0. Pool schedulers use this to
    /// tell "work is ready" apart from "work is on the wire" without
    /// claiming the port.
    fn port_next_delivery(&self, port: PortId) -> Option<Nanos>;
    /// Ask that every delivery to `port` also wake the waiters of
    /// `cond`, for schedulers that sleep on one condition variable
    /// while watching many ports. Returns whether the fabric does so;
    /// at `false` (the default) the caller must bound its waits
    /// itself. When `true`, a task that found `port` empty while
    /// holding `lock` and then waits on `cond` with `lock` cannot miss
    /// a delivery: the delivering side passes through `lock` before it
    /// notifies. `lock` is not re-entrant, so nothing may send to a
    /// watched port while holding it. Must be called before `run`, at
    /// most once per port.
    fn wake_on_delivery(&self, port: PortId, lock: LockId, cond: CondId) -> bool {
        let _ = (port, lock, cond);
        false
    }

    /// Register a task. `server_cpu` pins the task onto the modelled
    /// server's CPU topology (used by the virtual HT model); `None`
    /// marks an off-server task (bots — the paper's client machines).
    /// Tasks do not start executing until [`Fabric::run`].
    fn spawn(&self, name: &str, server_cpu: Option<u32>, body: TaskBody) -> TaskId;

    /// Start every spawned task and block until all of them finish.
    fn run(&self);

    /// Current time for `task`.
    fn now(&self, task: TaskId) -> Nanos;
    /// Account `ns` of modelled CPU work to `task`. The modelled
    /// machine exists only in virtual time: [`virt::VirtualSmp`]
    /// advances the task's clock by exactly `ns` (HT/bus-scaled);
    /// [`real::RealFabric`] ignores the call — on wall-clock time the
    /// code that ran *is* the cost, and `now()` deltas measure it.
    fn charge(&self, task: TaskId, ns: Nanos);
    /// Acquire a mutex; returns the time spent blocked.
    fn lock(&self, task: TaskId, lock: LockId) -> Nanos;
    /// Release a mutex (must be held by `task`).
    fn unlock(&self, task: TaskId, lock: LockId);
    /// Atomically release `lock`, wait for a signal, reacquire `lock`.
    /// Returns the time spent blocked.
    fn cond_wait(&self, task: TaskId, cond: CondId, lock: LockId) -> Nanos;
    /// As `cond_wait` but wakes at `deadline` if unsignalled. Returns
    /// `(blocked_ns, timed_out)`.
    fn cond_wait_until(
        &self,
        task: TaskId,
        cond: CondId,
        lock: LockId,
        deadline: Nanos,
    ) -> (Nanos, bool);
    /// Wake one waiter.
    fn cond_signal(&self, task: TaskId, cond: CondId);
    /// Wake all waiters.
    fn cond_broadcast(&self, task: TaskId, cond: CondId);

    /// Attach a lock-discipline witness: from now on every lock
    /// acquisition, release and condition wait is reported to it (see
    /// [`witness::LockWitness`]). Attach before `run`; verification
    /// runs only — the witness serializes lock bookkeeping.
    fn attach_witness(&self, w: Arc<LockWitness>);
    /// The witness attached to this fabric, if any.
    fn witness(&self) -> Option<Arc<LockWitness>>;

    /// Mark `port` as a WAN endpoint (a client-side socket reached over
    /// the modelled wide-area path). Only meaningful to fabrics that
    /// scope fault injection ([`VirtualSmpConfig::fault_wan_only`]):
    /// there, a send is faulted only when exactly one endpoint is
    /// WAN-marked, and its direction is client→server when the *sender*
    /// is the marked side. Default: no-op (the real fabric injects at
    /// its socket pumps instead).
    fn mark_wan_port(&self, port: PortId) {
        let _ = port;
    }

    /// Send a datagram from `from` to `to`.
    fn send(&self, task: TaskId, from: PortId, to: PortId, payload: Vec<u8>);
    /// Non-blocking receive.
    fn try_recv(&self, task: TaskId, port: PortId) -> Option<Message>;
    /// Block until `port` has a deliverable message or `deadline`
    /// passes (`None` = wait forever). Returns whether the port is
    /// readable. Only the port's owning task may call this.
    fn wait_readable(&self, task: TaskId, port: PortId, deadline: Option<Nanos>) -> bool;
    /// Sleep until the given absolute time.
    fn sleep_until(&self, task: TaskId, t: Nanos);
}

/// Per-task handle passed to task bodies; wraps the fabric with the
/// task's identity for ergonomic call sites.
pub struct TaskCtx {
    id: TaskId,
    fabric: Arc<dyn Fabric>,
}

impl TaskCtx {
    /// Construct (used by fabric implementations only).
    pub fn new(id: TaskId, fabric: Arc<dyn Fabric>) -> TaskCtx {
        TaskCtx { id, fabric }
    }

    #[inline]
    pub fn id(&self) -> TaskId {
        self.id
    }

    #[inline]
    pub fn fabric(&self) -> &Arc<dyn Fabric> {
        &self.fabric
    }

    #[inline]
    pub fn now(&self) -> Nanos {
        self.fabric.now(self.id)
    }

    #[inline]
    pub fn charge(&self, ns: Nanos) {
        self.fabric.charge(self.id, ns);
    }

    #[inline]
    pub fn lock(&self, l: LockId) -> Nanos {
        self.fabric.lock(self.id, l)
    }

    #[inline]
    pub fn unlock(&self, l: LockId) {
        self.fabric.unlock(self.id, l);
    }

    #[inline]
    pub fn cond_wait(&self, c: CondId, l: LockId) -> Nanos {
        self.fabric.cond_wait(self.id, c, l)
    }

    #[inline]
    pub fn cond_wait_until(&self, c: CondId, l: LockId, deadline: Nanos) -> (Nanos, bool) {
        self.fabric.cond_wait_until(self.id, c, l, deadline)
    }

    #[inline]
    pub fn cond_signal(&self, c: CondId) {
        self.fabric.cond_signal(self.id, c);
    }

    #[inline]
    pub fn cond_broadcast(&self, c: CondId) {
        self.fabric.cond_broadcast(self.id, c);
    }

    #[inline]
    pub fn send(&self, from: PortId, to: PortId, payload: Vec<u8>) {
        self.fabric.send(self.id, from, to, payload);
    }

    #[inline]
    pub fn try_recv(&self, port: PortId) -> Option<Message> {
        self.fabric.try_recv(self.id, port)
    }

    #[inline]
    pub fn wait_readable(&self, port: PortId, deadline: Option<Nanos>) -> bool {
        self.fabric.wait_readable(self.id, port, deadline)
    }

    #[inline]
    pub fn sleep_until(&self, t: Nanos) {
        self.fabric.sleep_until(self.id, t);
    }
}

/// Configuration of the virtual SMP model (the paper's Table 1 machine
/// by default: 4 cores × 2-way HT).
#[derive(Clone, Debug, PartialEq)]
pub struct VirtualSmpConfig {
    /// Physical cores on the modelled server.
    pub cores: u32,
    /// Whether two tasks mapped to one core share it HT-style.
    pub hyperthreading: bool,
    /// Per-context efficiency when both HT contexts of a core compute
    /// simultaneously (two contexts at 0.62 ≈ 1.24× one context — the
    /// usual HT yield; explains the paper's flat 4→8 scaling).
    pub ht_efficiency: f64,
    /// One-way client↔server datagram latency.
    pub link_latency_ns: Nanos,
    /// Shared memory-bus contention: work slows by
    /// `1 + mem_penalty × (busy_cores − 1)` when multiple cores compute
    /// simultaneously (the 400 MHz-FSB quad Xeon of Table 1 was
    /// notoriously bandwidth-bound on pointer-chasing workloads).
    pub mem_penalty: f64,
    /// Schedule-exploration seed. `0` (the default) keeps the canonical
    /// deterministic schedule: equal-time ties dispatch by task id and
    /// contended locks hand off FIFO. Any other value deterministically
    /// perturbs those two decisions (tie-breaks and which waiter
    /// receives a released lock), producing a different — but still
    /// fully reproducible — legal interleaving per seed. Used by the
    /// lock-discipline verification suite to explore many schedules.
    pub schedule_seed: u64,
    /// Datagram fault injection on every port send (`None` = the
    /// paper's lossless LAN). Faults are drawn in virtual-time order
    /// from the config's own seed, so lossy runs replay exactly.
    pub fault: Option<fault::FaultConfig>,
    /// Restrict fault injection to the WAN edge: only sends where
    /// exactly one endpoint was [`Fabric::mark_wan_port`]-marked (bot
    /// client sockets) are faulted; server-internal traffic — arena
    /// directory control, migration capsules, supervision — stays
    /// lossless, mirroring where real-gateway injection happens. Off by
    /// default, which is the historical fault-everything behaviour.
    pub fault_wan_only: bool,
}

impl Default for VirtualSmpConfig {
    fn default() -> Self {
        VirtualSmpConfig {
            cores: 4,
            hyperthreading: true,
            ht_efficiency: 0.62,
            link_latency_ns: 150_000, // 0.15 ms switched 100 Mbit LAN
            mem_penalty: 0.17,
            schedule_seed: 0,
            fault: None,
            fault_wan_only: false,
        }
    }
}

/// Which fabric an experiment runs on.
#[derive(Clone, Debug, PartialEq)]
pub enum FabricKind {
    /// Real OS threads and wall-clock time.
    Real,
    /// Deterministic virtual-time SMP simulation.
    VirtualSmp(VirtualSmpConfig),
}

impl FabricKind {
    /// Instantiate the fabric.
    pub fn build(&self) -> Arc<dyn Fabric> {
        match self {
            FabricKind::Real => real::RealFabric::new_arc(),
            FabricKind::VirtualSmp(cfg) => virt::VirtualSmp::new_arc(cfg.clone()),
        }
    }
}

#[cfg(test)]
mod shared_tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Both fabrics must satisfy this behavioural contract.
    fn contract(fabric: Arc<dyn Fabric>) {
        let lock = fabric.alloc_lock();
        let port_a = fabric.alloc_port();
        let port_b = fabric.alloc_port();
        let counter = Arc::new(AtomicU64::new(0));

        // Task A: increments under lock, sends a message to B.
        let c1 = counter.clone();
        fabric.spawn(
            "a",
            Some(0),
            Box::new(move |ctx| {
                ctx.lock(lock);
                let v = c1.load(Ordering::Relaxed);
                ctx.charge(10_000);
                c1.store(v + 1, Ordering::Relaxed);
                ctx.unlock(lock);
                ctx.send(port_a, port_b, vec![42]);
            }),
        );

        // Task B: waits for the message.
        let c2 = counter.clone();
        fabric.spawn(
            "b",
            Some(1),
            Box::new(move |ctx| {
                assert!(ctx.wait_readable(port_b, None));
                let msg = ctx.try_recv(port_b).expect("readable port must yield");
                assert_eq!(msg.payload, vec![42]);
                ctx.lock(lock);
                let v = c2.load(Ordering::Relaxed);
                c2.store(v + 1, Ordering::Relaxed);
                ctx.unlock(lock);
            }),
        );

        fabric.run();
        assert_eq!(counter.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn real_fabric_contract() {
        contract(FabricKind::Real.build());
    }

    #[test]
    fn virtual_fabric_contract() {
        contract(FabricKind::VirtualSmp(VirtualSmpConfig::default()).build());
    }
}
