//! The deterministic virtual-time SMP fabric.
//!
//! Tasks are OS threads, but **exactly one executes at a time**: every
//! fabric operation is a scheduling point at which the task may hand
//! the (single) CPU to whichever task has the globally smallest virtual
//! time. Blocked tasks with deadlines (sleeps, timed waits, select
//! timeouts) participate in that minimum, so the scheduler never lets a
//! task perform an operation at virtual time *t* while another task
//! could still act at a time earlier than *t* — the conservative
//! parallel-discrete-event invariant that makes the simulation causal
//! and deterministic.
//!
//! Virtual time only advances through [`Fabric::charge`] (modelled CPU
//! work), lock/condvar handoffs, message delivery latency, and
//! deadlines. The hyper-threading model charges work at reduced speed
//! when the sibling context of the same modelled core has runnable
//! work, reproducing the paper's 4-core × 2-way-HT testbed.
//!
//! A port is the same `queue::PortQueue` a [`crate::real::RealFabric`]
//! port is: a copy is due at its send time plus the link latency plus
//! any fault delay, a receive compares the front copy's due time with
//! the *receiving* task's clock (pool workers whose clocks differ read
//! one port), and a bounded port holds at most its capacity of copies,
//! in flight or due. A copy due at its send time (no latency, no fault)
//! skips that comparison: every later operation runs at a virtual time
//! no earlier than the send.
//!
//! Determinism: scheduling decisions depend only on `(virtual time,
//! task id)` and FIFO queues, never on host timing. The same program
//! yields the same interleaving, the same lock wait times, and the same
//! figures on every run and host.

use std::collections::VecDeque;
use std::sync::{Arc, Weak};

use parking_lot::{Condvar, Mutex, MutexGuard};

use crate::queue::PortQueue;
use crate::witness::LockWitness;
use crate::{
    CondId, Fabric, LockId, Message, Nanos, PortId, TaskBody, TaskCtx, TaskId, VirtualSmpConfig,
};

const INF: Nanos = Nanos::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
enum Status {
    NotStarted,
    /// Ready to execute at its clock.
    Runnable,
    /// Currently executing user code.
    Running,
    /// Blocked acquiring a lock (in that lock's FIFO queue).
    LockWait(LockId),
    /// Blocked on a condition variable.
    CondWait {
        cond: CondId,
        relock: LockId,
        deadline: Option<Nanos>,
    },
    /// Blocked until a port becomes readable.
    PortWait {
        port: PortId,
        deadline: Option<Nanos>,
    },
    Sleeping {
        until: Nanos,
    },
    Finished,
}

struct Task {
    name: String,
    clock: Nanos,
    status: Status,
    server_cpu: Option<u32>,
    cv: Arc<Condvar>,
    /// Set when a timed cond wait expired (read back by the waiter).
    timed_out: bool,
    /// Start of the task's current busy stretch (reset on every wake
    /// from a blocked state). The HT model treats a runnable sibling as
    /// occupying its core for the whole interval `[busy_from, ...]`.
    busy_from: Nanos,
}

#[derive(Default)]
struct LockState {
    holder: Option<TaskId>,
    waiters: VecDeque<TaskId>,
}

#[derive(Default)]
struct CondState {
    waiters: VecDeque<TaskId>,
}

struct PortState {
    /// Copies in flight or due, by delivery time — `wake_key` and
    /// `try_recv` only inspect the front.
    queue: PortQueue,
    /// WAN-marked ([`Fabric::mark_wan_port`]) — a client-side endpoint
    /// of the modelled wide-area path, used to scope fault injection
    /// when [`VirtualSmpConfig::fault_wan_only`] is set.
    wan: bool,
    /// Set by [`Fabric::wake_on_delivery`]: a condvar whose first
    /// waiter every send to this port signals.
    watch: Option<CondId>,
}

impl PortState {
    fn with_cap(cap: usize) -> PortState {
        PortState {
            queue: PortQueue::new(cap),
            wan: false,
            watch: None,
        }
    }
}

struct Shared {
    tasks: Vec<Task>,
    locks: Vec<LockState>,
    conds: Vec<CondState>,
    ports: Vec<PortState>,
    live: usize,
    started: bool,
    /// Set when the scheduler finds live tasks but nothing to run;
    /// `run()` panics with this diagnostic.
    deadlock: Option<String>,
    /// Deterministic decision counter for seeded schedule exploration
    /// (advances once per perturbable scheduling decision).
    nonce: u64,
    /// Datagram fault lottery; sends are serialized in virtual-time
    /// order by `sync_point`, so draws replay deterministically.
    fault: Option<crate::fault::FaultLottery>,
}

/// Deterministic virtual-time SMP implementation of [`Fabric`].
pub struct VirtualSmp {
    cfg: VirtualSmpConfig,
    state: Mutex<Shared>,
    done_cv: Condvar,
    pending: Mutex<Vec<(String, Option<u32>, TaskBody)>>,
    me: Mutex<Option<Weak<dyn Fabric>>>,
    witness: Mutex<Option<Arc<LockWitness>>>,
}

impl VirtualSmp {
    pub fn new(cfg: VirtualSmpConfig) -> VirtualSmp {
        let fault = cfg.fault.clone().map(crate::fault::FaultLottery::new);
        VirtualSmp {
            cfg,
            state: Mutex::new(Shared {
                tasks: Vec::new(),
                locks: Vec::new(),
                conds: Vec::new(),
                ports: Vec::new(),
                live: 0,
                started: false,
                deadlock: None,
                nonce: 0,
                fault,
            }),
            done_cv: Condvar::new(),
            pending: Mutex::new(Vec::new()),
            me: Mutex::new(None),
            witness: Mutex::new(None),
        }
    }

    /// Create behind an `Arc<dyn Fabric>` with the self-reference wired.
    pub fn new_arc(cfg: VirtualSmpConfig) -> Arc<dyn Fabric> {
        let arc: Arc<VirtualSmp> = Arc::new(VirtualSmp::new(cfg));
        let weak: Weak<dyn Fabric> = Arc::downgrade(&arc) as Weak<dyn Fabric>;
        *arc.me.lock() = Some(weak);
        arc
    }

    /// The virtual time at which a blocked-with-deadline task would act
    /// if nothing else wakes it; `INF` for indefinitely blocked tasks.
    fn wake_key(g: &Shared, id: usize) -> Nanos {
        let t = &g.tasks[id];
        match &t.status {
            Status::Runnable => t.clock,
            Status::Sleeping { until } => *until,
            Status::CondWait { deadline, .. } => deadline.unwrap_or(INF),
            Status::PortWait { port, deadline } => {
                let dl = deadline.unwrap_or(INF);
                match g.ports[*port as usize].queue.next_due() {
                    Some(due) => dl.min(due.max(t.clock)),
                    None => dl,
                }
            }
            _ => INF,
        }
    }

    /// Smallest wake key over every task except `exclude`.
    fn min_other_key(g: &Shared, exclude: TaskId) -> Nanos {
        let mut best = INF;
        for id in 0..g.tasks.len() {
            if id as TaskId != exclude {
                best = best.min(Self::wake_key(g, id));
            }
        }
        best
    }

    /// splitmix64-style mix of the schedule seed with two decision
    /// inputs; the basis of seeded (but fully deterministic) schedule
    /// perturbation.
    fn mix(&self, a: u64, b: u64) -> u64 {
        let mut z = self
            .cfg
            .schedule_seed
            .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Hand the CPU to the task with the smallest wake key, applying
    /// timeout transitions along the way. Caller's task must already be
    /// in a non-Running state. Equal-time ties break by task id, or by
    /// a seeded hash when schedule exploration is on — either choice is
    /// legal under the conservative virtual-time invariant, which only
    /// constrains *strictly* earlier actions.
    fn dispatch(&self, g: &mut MutexGuard<'_, Shared>) {
        g.nonce = g.nonce.wrapping_add(1);
        let epoch = g.nonce;
        loop {
            if g.live == 0 {
                self.done_cv.notify_all();
                return;
            }
            let mut best: Option<(Nanos, u64, usize)> = None;
            for id in 0..g.tasks.len() {
                let key = Self::wake_key(g, id);
                if key == INF {
                    continue;
                }
                let tie = if self.cfg.schedule_seed == 0 {
                    id as u64
                } else {
                    self.mix(epoch, id as u64)
                };
                match best {
                    Some((bk, bt, bi)) if (bk, bt, bi) <= (key, tie, id) => {}
                    _ => best = Some((key, tie, id)),
                }
            }
            let Some((key, _, id)) = best else {
                let dump: Vec<String> = g
                    .tasks
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| t.status != Status::Finished)
                    .map(|(i, t)| format!("  task {i} '{}' @{} {:?}", t.name, t.clock, t.status))
                    .collect();
                // Record and hand the failure to run(): panicking here
                // (inside a task thread, holding the state mutex) would
                // hang run() on done_cv instead of failing loudly.
                g.deadlock = Some(format!(
                    "virtual-smp deadlock: {} live tasks, none runnable\n{}",
                    g.live,
                    dump.join("\n")
                ));
                self.done_cv.notify_all();
                return;
            };
            match g.tasks[id].status.clone() {
                Status::Runnable => {
                    g.tasks[id].status = Status::Running;
                    g.tasks[id].cv.clone().notify_all();
                    return;
                }
                Status::Sleeping { until } => {
                    g.tasks[id].clock = g.tasks[id].clock.max(until);
                    g.tasks[id].busy_from = g.tasks[id].clock;
                    g.tasks[id].status = Status::Runnable;
                }
                Status::CondWait { cond, relock, .. } => {
                    // Deadline expiry: leave the cond queue and start
                    // reacquiring the lock at the deadline instant.
                    let q = &mut g.conds[cond as usize].waiters;
                    q.retain(|&w| w as usize != id);
                    g.tasks[id].clock = g.tasks[id].clock.max(key);
                    g.tasks[id].busy_from = g.tasks[id].clock;
                    g.tasks[id].timed_out = true;
                    Self::start_relock(g, id as TaskId, relock);
                }
                Status::PortWait { .. } => {
                    g.tasks[id].clock = g.tasks[id].clock.max(key);
                    g.tasks[id].busy_from = g.tasks[id].clock;
                    g.tasks[id].status = Status::Runnable;
                }
                s => unreachable!("dispatch picked {s:?}"),
            }
        }
    }

    /// Acquire `lock` for `task` if free, else queue it (handoff will
    /// resume it later). The task ends up `Runnable` (holding the lock)
    /// or `LockWait`.
    fn start_relock(g: &mut MutexGuard<'_, Shared>, task: TaskId, lock: LockId) {
        let l = &mut g.locks[lock as usize];
        if l.holder.is_none() {
            l.holder = Some(task);
            g.tasks[task as usize].status = Status::Runnable;
        } else {
            l.waiters.push_back(task);
            g.tasks[task as usize].status = Status::LockWait(lock);
        }
    }

    /// Block the calling thread until the scheduler marks it Running.
    fn wait_until_running(&self, g: &mut MutexGuard<'_, Shared>, me: TaskId) {
        while g.tasks[me as usize].status != Status::Running {
            let cv = g.tasks[me as usize].cv.clone();
            cv.wait(g);
        }
    }

    /// Yield if any other task could act at a strictly earlier virtual
    /// time. Every shared-state operation calls this first, which is
    /// what enforces global virtual-time ordering.
    fn sync_point(&self, me: TaskId) -> MutexGuard<'_, Shared> {
        let mut g = self.state.lock();
        debug_assert_eq!(g.tasks[me as usize].status, Status::Running);
        if Self::min_other_key(&g, me) < g.tasks[me as usize].clock {
            g.tasks[me as usize].status = Status::Runnable;
            self.dispatch(&mut g);
            self.wait_until_running(&mut g, me);
        }
        g
    }

    /// SMP model: how long `ns` of work takes on `task`'s context given
    /// sibling activity on the same modelled core (2-way HT) and
    /// concurrent activity on other cores (shared memory bus).
    fn adjusted_cost(&self, g: &Shared, me: TaskId, ns: Nanos) -> Nanos {
        let Some(cpu) = g.tasks[me as usize].server_cpu else {
            return ns; // off-server task (client machine)
        };
        let my_core = cpu % self.cfg.cores;
        let my_end = g.tasks[me as usize].clock.saturating_add(ns);
        let mut same_core_busy = 1u64;
        let mut busy_cores = 1u64 << my_core.min(63);
        for (id, t) in g.tasks.iter().enumerate() {
            if id as TaskId == me {
                continue;
            }
            let Some(c) = t.server_cpu else { continue };
            // A sibling occupies its core during my interval if its
            // current busy stretch started before my end time and it
            // still has runnable work.
            let overlapping =
                matches!(t.status, Status::Runnable | Status::Running) && t.busy_from < my_end;
            if !overlapping {
                continue;
            }
            let core = c % self.cfg.cores;
            busy_cores |= 1 << core.min(63);
            if core == my_core {
                same_core_busy += 1;
            }
        }
        let mut factor = 1.0f64;
        if self.cfg.hyperthreading && same_core_busy > 1 {
            // Two HT contexts each run at `ht_efficiency`; more than
            // two tasks per core time-slice on top of that.
            factor *= 2.0 * self.cfg.ht_efficiency / same_core_busy as f64;
        }
        let n_busy_cores = busy_cores.count_ones() as f64;
        if self.cfg.mem_penalty > 0.0 && n_busy_cores > 1.0 {
            factor /= 1.0 + self.cfg.mem_penalty * (n_busy_cores - 1.0);
        }
        if factor >= 1.0 {
            ns
        } else {
            (ns as f64 / factor).round() as Nanos
        }
    }

    /// Resume `w` with its clock pushed to at least `t`. The task was
    /// blocked, so a new busy stretch starts now.
    fn make_runnable_at(g: &mut MutexGuard<'_, Shared>, w: TaskId, t: Nanos) {
        let task = &mut g.tasks[w as usize];
        task.clock = task.clock.max(t);
        task.busy_from = task.clock;
        task.status = Status::Runnable;
    }

    /// Wake the first waiter of `cond` at `at`: it leaves the queue and
    /// starts reacquiring its lock. Returns whether anyone waited.
    fn signal_one(g: &mut MutexGuard<'_, Shared>, cond: CondId, at: Nanos) -> bool {
        let Some(w) = g.conds[cond as usize].waiters.pop_front() else {
            return false;
        };
        let relock = match g.tasks[w as usize].status.clone() {
            Status::CondWait { relock, .. } => relock,
            s => unreachable!("cond waiter in state {s:?}"),
        };
        g.tasks[w as usize].clock = g.tasks[w as usize].clock.max(at);
        Self::start_relock(g, w, relock);
        true
    }

    /// Release `lock` at time `at`, handing it directly to one waiter if
    /// any are queued. FIFO by default; a nonzero schedule seed picks
    /// the successor pseudo-randomly (all waiters are blocked with no
    /// deadline, so any successor is a legal schedule).
    fn handoff(&self, g: &mut MutexGuard<'_, Shared>, lock: LockId, at: Nanos) {
        let n = g.locks[lock as usize].waiters.len();
        if n == 0 {
            g.locks[lock as usize].holder = None;
            return;
        }
        let idx = if self.cfg.schedule_seed == 0 || n == 1 {
            0
        } else {
            g.nonce = g.nonce.wrapping_add(1);
            (self.mix(g.nonce, lock as u64) % n as u64) as usize
        };
        let w = g.locks[lock as usize]
            .waiters
            .remove(idx)
            .expect("idx < len");
        g.locks[lock as usize].holder = Some(w);
        Self::make_runnable_at(g, w, at);
    }
}

impl Fabric for VirtualSmp {
    fn kind(&self) -> &'static str {
        "virtual-smp"
    }

    fn alloc_lock(&self) -> LockId {
        let mut g = self.state.lock();
        g.locks.push(LockState::default());
        (g.locks.len() - 1) as LockId
    }

    fn alloc_cond(&self) -> CondId {
        let mut g = self.state.lock();
        g.conds.push(CondState::default());
        (g.conds.len() - 1) as CondId
    }

    fn alloc_port(&self) -> PortId {
        let mut g = self.state.lock();
        g.ports.push(PortState::with_cap(usize::MAX));
        (g.ports.len() - 1) as PortId
    }

    fn alloc_bounded_port(&self, capacity: usize) -> PortId {
        let mut g = self.state.lock();
        g.ports.push(PortState::with_cap(capacity));
        (g.ports.len() - 1) as PortId
    }

    fn mark_wan_port(&self, port: PortId) {
        self.state.lock().ports[port as usize].wan = true;
    }

    fn port_dropped(&self, port: PortId) -> u64 {
        self.state.lock().ports[port as usize].queue.dropped()
    }

    fn port_pending(&self, port: PortId) -> usize {
        self.state.lock().ports[port as usize].queue.len()
    }

    fn port_next_delivery(&self, port: PortId) -> Option<Nanos> {
        self.state.lock().ports[port as usize].queue.next_due()
    }

    fn wake_on_delivery(&self, port: PortId, _lock: LockId, cond: CondId) {
        // No task runs between a watcher's check of the port and its
        // wait, so the lock needs no pass-through here.
        let watch = &mut self.state.lock().ports[port as usize].watch;
        assert!(watch.is_none(), "port {port} is already watched");
        *watch = Some(cond);
    }

    fn spawn(&self, name: &str, server_cpu: Option<u32>, body: TaskBody) -> TaskId {
        let mut g = self.state.lock();
        assert!(!g.started, "spawn after run()");
        let id = g.tasks.len() as TaskId;
        g.tasks.push(Task {
            name: name.to_string(),
            clock: 0,
            status: Status::NotStarted,
            server_cpu,
            cv: Arc::new(Condvar::new()),
            timed_out: false,
            busy_from: 0,
        });
        g.live += 1;
        self.pending
            .lock()
            .push((name.to_string(), server_cpu, body));
        id
    }

    fn run(&self) {
        let me = self
            .me
            .lock()
            .clone()
            .expect("VirtualSmp must be created via new_arc()/FabricKind::build");
        let bodies: Vec<(String, Option<u32>, TaskBody)> =
            std::mem::take(&mut *self.pending.lock());
        let mut handles = Vec::new();
        for (i, (name, _cpu, body)) in bodies.into_iter().enumerate() {
            let weak = me.clone();
            let sched: *const VirtualSmp = self;
            // SAFETY: run() blocks until every task thread has finished,
            // so `self` outlives the threads' use of `sched`.
            let sched_addr = sched as usize;
            let handle = std::thread::Builder::new()
                .name(name)
                .stack_size(512 << 10)
                .spawn(move || {
                    let fabric = weak.upgrade().expect("fabric dropped during run");
                    let sched = unsafe { &*(sched_addr as *const VirtualSmp) };
                    let id = i as TaskId;
                    {
                        let mut g = sched.state.lock();
                        sched.wait_until_running(&mut g, id);
                    }
                    let ctx = TaskCtx::new(id, fabric);
                    // A panicking task must not leave run() waiting on
                    // done_cv forever: record the panic, finish the
                    // task, and let run() re-raise it.
                    let result =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
                    if result.is_err() {
                        // The unwind discarded any locks the task held;
                        // tell the witness so the leak is a reported
                        // violation, not a silent wedge. (Before taking
                        // the scheduler lock: the witness has its own.)
                        if let Some(w) = sched.witness() {
                            w.on_unwind(id, sched.now(id));
                        }
                    }
                    let mut g = sched.state.lock();
                    if let Err(payload) = result {
                        let msg = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "<non-string panic>".to_string());
                        let name = g.tasks[id as usize].name.clone();
                        g.deadlock
                            .get_or_insert_with(|| format!("task '{name}' panicked: {msg}"));
                        sched.done_cv.notify_all();
                    }
                    g.tasks[id as usize].status = Status::Finished;
                    g.live -= 1;
                    sched.dispatch(&mut g);
                })
                .expect("thread spawn failed");
            handles.push(handle);
        }
        let deadlock_msg;
        {
            let mut g = self.state.lock();
            assert!(!g.started, "run() called twice");
            g.started = true;
            for t in g.tasks.iter_mut() {
                if t.status == Status::NotStarted {
                    t.status = Status::Runnable;
                }
            }
            if g.live > 0 {
                self.dispatch(&mut g);
                while g.live > 0 && g.deadlock.is_none() {
                    self.done_cv.wait(&mut g);
                }
            }
            deadlock_msg = g.deadlock.take();
        }
        if let Some(msg) = deadlock_msg {
            // The blocked task threads can never finish; detach them
            // and fail loudly with the scheduler's diagnostic.
            for h in handles {
                drop(h);
            }
            panic!("{msg}");
        }
        for h in handles {
            h.join().expect("task panicked");
        }
    }

    fn now(&self, task: TaskId) -> Nanos {
        self.state.lock().tasks[task as usize].clock
    }

    fn charge(&self, task: TaskId, ns: Nanos) -> Nanos {
        let mut g = self.sync_point(task);
        let adj = self.adjusted_cost(&g, task, ns);
        g.tasks[task as usize].clock += adj;
        // Yield after advancing too, so side effects a task performs
        // between fabric calls stay globally ordered by virtual time.
        if Self::min_other_key(&g, task) < g.tasks[task as usize].clock {
            g.tasks[task as usize].status = Status::Runnable;
            self.dispatch(&mut g);
            self.wait_until_running(&mut g, task);
        }
        adj
    }

    fn attach_witness(&self, w: Arc<LockWitness>) {
        *self.witness.lock() = Some(w);
    }

    fn witness(&self) -> Option<Arc<LockWitness>> {
        self.witness.lock().clone()
    }

    fn lock(&self, task: TaskId, lock: LockId) -> Nanos {
        let mut g = self.sync_point(task);
        let t0 = g.tasks[task as usize].clock;
        let l = &mut g.locks[lock as usize];
        assert_ne!(l.holder, Some(task), "recursive lock {lock} by task {task}");
        let blocked = if l.holder.is_none() {
            l.holder = Some(task);
            0
        } else {
            l.waiters.push_back(task);
            g.tasks[task as usize].status = Status::LockWait(lock);
            self.dispatch(&mut g);
            self.wait_until_running(&mut g, task);
            g.tasks[task as usize].clock - t0
        };
        if let Some(w) = self.witness() {
            w.on_acquire(task, lock, g.tasks[task as usize].clock);
        }
        blocked
    }

    fn unlock(&self, task: TaskId, lock: LockId) {
        let mut g = self.sync_point(task);
        if let Some(w) = self.witness() {
            w.on_release(task, lock);
        }
        let my_clock = g.tasks[task as usize].clock;
        assert_eq!(
            g.locks[lock as usize].holder,
            Some(task),
            "task {task} unlocked lock {lock} it does not hold"
        );
        // Direct handoff: the successor owns the lock from the moment
        // of release and resumes at the release time.
        self.handoff(&mut g, lock, my_clock);
    }

    fn cond_wait(&self, task: TaskId, cond: CondId, lock: LockId) -> Nanos {
        self.cond_wait_impl(task, cond, lock, None).0
    }

    fn cond_wait_until(
        &self,
        task: TaskId,
        cond: CondId,
        lock: LockId,
        deadline: Nanos,
    ) -> (Nanos, bool) {
        self.cond_wait_impl(task, cond, lock, Some(deadline))
    }

    fn cond_signal(&self, task: TaskId, cond: CondId) {
        let mut g = self.sync_point(task);
        let my_clock = g.tasks[task as usize].clock;
        Self::signal_one(&mut g, cond, my_clock);
    }

    fn cond_broadcast(&self, task: TaskId, cond: CondId) {
        let mut g = self.sync_point(task);
        let my_clock = g.tasks[task as usize].clock;
        while Self::signal_one(&mut g, cond, my_clock) {}
    }

    fn send(&self, task: TaskId, from: PortId, to: PortId, mut payload: Vec<u8>) {
        let mut g = self.sync_point(task);
        let sent_at = g.tasks[task as usize].clock;
        // Fault lottery: each fate is one copy to deliver with its
        // extra delay; an empty draw drops the datagram. Drawn under
        // the state lock in virtual-time order, hence replayable. With
        // `fault_wan_only`, only sends crossing the WAN edge (exactly
        // one marked endpoint) are faulted — and crucially they draw
        // nothing otherwise, so the lottery's clock advances one draw
        // per WAN datagram regardless of interleaved internal traffic.
        let from_wan = g.ports[from as usize].wan;
        let to_wan = g.ports[to as usize].wan;
        let fates = match g.fault.as_mut() {
            Some(_) if self.cfg.fault_wan_only && from_wan == to_wan => vec![0],
            Some(l) if self.cfg.fault_wan_only => {
                // Marked sender ⇒ the client is talking to the server.
                l.draw_dir(if from_wan {
                    crate::fault::FaultDir::ClientToServer
                } else {
                    crate::fault::FaultDir::ServerToClient
                })
            }
            Some(l) => l.draw(),
            None => vec![0],
        };
        let copies = fates.len();
        for (i, extra) in fates.into_iter().enumerate() {
            let bytes = if i + 1 == copies {
                std::mem::take(&mut payload)
            } else {
                payload.clone()
            };
            let msg = Message {
                from,
                sent_at,
                payload: bytes,
            };
            let due = sent_at + self.cfg.link_latency_ns + extra;
            g.ports[to as usize].queue.push(due, msg);
        }
        // A task blocked on this port will be picked up by the wake-key
        // computation; a watcher is signalled at the send instant and
        // sleeps until the copy is due.
        if let Some(cond) = g.ports[to as usize].watch.filter(|_| copies > 0) {
            Self::signal_one(&mut g, cond, sent_at);
        }
    }

    fn try_recv(&self, task: TaskId, port: PortId) -> Option<Message> {
        let mut g = self.sync_point(task);
        let now = g.tasks[task as usize].clock;
        g.ports[port as usize].queue.pop(|| now)
    }

    fn wait_readable(&self, task: TaskId, port: PortId, deadline: Option<Nanos>) -> bool {
        let mut g = self.sync_point(task);
        loop {
            let now = g.tasks[task as usize].clock;
            if g.ports[port as usize].queue.ready(|| now) {
                return true;
            }
            if let Some(d) = deadline {
                if now >= d {
                    return false;
                }
            }
            g.tasks[task as usize].status = Status::PortWait { port, deadline };
            self.dispatch(&mut g);
            self.wait_until_running(&mut g, task);
        }
    }

    fn sleep_until(&self, task: TaskId, t: Nanos) {
        let mut g = self.sync_point(task);
        if g.tasks[task as usize].clock >= t {
            return;
        }
        g.tasks[task as usize].status = Status::Sleeping { until: t };
        self.dispatch(&mut g);
        self.wait_until_running(&mut g, task);
    }
}

impl VirtualSmp {
    fn cond_wait_impl(
        &self,
        task: TaskId,
        cond: CondId,
        lock: LockId,
        deadline: Option<Nanos>,
    ) -> (Nanos, bool) {
        let mut g = self.sync_point(task);
        let t0 = g.tasks[task as usize].clock;
        if let Some(w) = self.witness() {
            w.on_wait(task, lock, t0);
            w.on_release(task, lock);
        }
        // Release the lock with handoff semantics.
        assert_eq!(
            g.locks[lock as usize].holder,
            Some(task),
            "cond_wait on lock {lock} not held by task {task}"
        );
        self.handoff(&mut g, lock, t0);
        g.tasks[task as usize].timed_out = false;
        g.tasks[task as usize].status = Status::CondWait {
            cond,
            relock: lock,
            deadline,
        };
        g.conds[cond as usize].waiters.push_back(task);
        self.dispatch(&mut g);
        self.wait_until_running(&mut g, task);
        // We resume holding the lock (signal/timeout routed us through
        // start_relock and the handoff chain).
        debug_assert_eq!(g.locks[lock as usize].holder, Some(task));
        if let Some(w) = self.witness() {
            w.on_acquire(task, lock, g.tasks[task as usize].clock);
        }
        let waited = g.tasks[task as usize].clock - t0;
        (waited, g.tasks[task as usize].timed_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FabricKind;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex as StdMutex;

    fn fabric() -> Arc<dyn Fabric> {
        FabricKind::VirtualSmp(VirtualSmpConfig {
            hyperthreading: false,
            link_latency_ns: 1000,
            ..VirtualSmpConfig::default()
        })
        .build()
    }

    #[test]
    fn charge_advances_virtual_time_exactly() {
        let f = fabric();
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        f.spawn(
            "t",
            None,
            Box::new(move |ctx| {
                assert_eq!(ctx.now(), 0);
                assert_eq!(ctx.charge(12345), 12345);
                o.store(ctx.now(), Ordering::Relaxed);
            }),
        );
        f.run();
        assert_eq!(out.load(Ordering::Relaxed), 12345);
    }

    #[test]
    fn charge_returns_the_scaled_advance_beside_a_busy_sibling() {
        // Two contexts of one core at efficiency 0.5: while the sibling
        // computes, a 100 ns charge advances the clock by 200 ns, and
        // `charge` returns what the clock moved, not what was asked.
        let f = FabricKind::VirtualSmp(VirtualSmpConfig {
            cores: 1,
            hyperthreading: true,
            ht_efficiency: 0.5,
            link_latency_ns: 0,
            mem_penalty: 0.0,
            ..VirtualSmpConfig::default()
        })
        .build();
        let returns = Arc::new(StdMutex::new(Vec::new()));
        for i in 0..2 {
            let returns = returns.clone();
            f.spawn(
                &format!("t{i}"),
                Some(0),
                Box::new(move |ctx| {
                    for _ in 0..10 {
                        let before = ctx.now();
                        let advanced = ctx.charge(100);
                        assert_eq!(advanced, ctx.now() - before);
                        returns.lock().unwrap().push(advanced);
                    }
                }),
            );
        }
        f.run();
        let returns = returns.lock().unwrap();
        assert_eq!(returns.len(), 20);
        assert!(returns.contains(&200), "no scaled charge: {returns:?}");
    }

    #[test]
    fn tasks_interleave_by_virtual_time() {
        // Two tasks alternately charging; the event order must follow
        // virtual clocks, not spawn order.
        let f = fabric();
        let log = Arc::new(StdMutex::new(Vec::new()));
        for (id, step) in [(0u64, 30u64), (1, 20)] {
            let log = log.clone();
            f.spawn(
                &format!("t{id}"),
                None,
                Box::new(move |ctx| {
                    for _ in 0..3 {
                        ctx.charge(step);
                        log.lock().unwrap().push((id, ctx.now()));
                    }
                }),
            );
        }
        f.run();
        let events = log.lock().unwrap().clone();
        // Expected completion times: t0: 30,60,90; t1: 20,40,60.
        // Sorted merge: (1,20),(0,30),(1,40),(0,60)|(1,60),(0,90)
        let times: Vec<u64> = events.iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(
            times, sorted,
            "events out of virtual-time order: {events:?}"
        );
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn lock_contention_is_serialized_with_wait_accounting() {
        let f = fabric();
        let l = f.alloc_lock();
        let waits = Arc::new(StdMutex::new(Vec::new()));
        for id in 0..2u64 {
            let waits = waits.clone();
            f.spawn(
                &format!("t{id}"),
                None,
                Box::new(move |ctx| {
                    // Task 1 arrives at the lock slightly later.
                    ctx.charge(10 + id * 5);
                    let w = ctx.lock(0);
                    ctx.charge(100); // critical section
                    ctx.unlock(l);
                    waits.lock().unwrap().push((id, w, ctx.now()));
                }),
            );
        }
        f.run();
        let w = waits.lock().unwrap().clone();
        // Task 0 locks at t=10 free; holds until 110. Task 1 requests at
        // 15, resumes at 110: waited 95, finishes its section at 210.
        assert_eq!(w[0], (0, 0, 110));
        assert_eq!(w[1], (1, 95, 210));
    }

    #[test]
    fn cond_signal_wakes_in_fifo_order() {
        let f = fabric();
        let l = f.alloc_lock();
        let c = f.alloc_cond();
        let order = Arc::new(StdMutex::new(Vec::new()));
        for id in 0..2u64 {
            let order = order.clone();
            f.spawn(
                &format!("w{id}"),
                None,
                Box::new(move |ctx| {
                    ctx.charge(id + 1); // deterministic arrival order
                    ctx.lock(l);
                    ctx.cond_wait(c, l);
                    order.lock().unwrap().push(id);
                    ctx.unlock(l);
                }),
            );
        }
        let order2 = order.clone();
        f.spawn(
            "signaler",
            None,
            Box::new(move |ctx| {
                ctx.charge(1000);
                ctx.lock(l);
                ctx.cond_signal(c);
                ctx.cond_signal(c);
                ctx.unlock(l);
                let _ = &order2;
            }),
        );
        f.run();
        assert_eq!(*order.lock().unwrap(), vec![0, 1]);
    }

    #[test]
    fn cond_timed_wait_times_out_at_deadline() {
        let f = fabric();
        let l = f.alloc_lock();
        let c = f.alloc_cond();
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        f.spawn(
            "w",
            None,
            Box::new(move |ctx| {
                ctx.lock(l);
                let (waited, timed_out) = ctx.cond_wait_until(c, l, 5000);
                assert!(timed_out);
                assert_eq!(waited, 5000);
                assert_eq!(ctx.now(), 5000);
                ctx.unlock(l);
                o.store(1, Ordering::Relaxed);
            }),
        );
        f.run();
        assert_eq!(out.load(Ordering::Relaxed), 1);
    }

    /// Three tasks wait on a condvar that watches a port, as a pool's
    /// idle workers do; a sender hands the port one copy at 500 and one
    /// at 1000, each delivered 1000 later. Waiters 0 and 1 re-check the
    /// port after every wake and then wait until its next delivery;
    /// waiter 2 waits for its deadline only. Each wake logs `(waiter,
    /// time, timed out, payload received)`.
    fn watched_port_run(seed: u64) -> Vec<(u64, Nanos, bool, Option<u8>)> {
        let f = FabricKind::VirtualSmp(VirtualSmpConfig {
            hyperthreading: false,
            link_latency_ns: 1000,
            schedule_seed: seed,
            ..VirtualSmpConfig::default()
        })
        .build();
        let (l, c) = (f.alloc_lock(), f.alloc_cond());
        let (src, p) = (f.alloc_port(), f.alloc_port());
        f.wake_on_delivery(p, l, c);
        let log = Arc::new(StdMutex::new(Vec::new()));
        for id in 0..3u64 {
            let log = log.clone();
            f.spawn(
                &format!("w{id}"),
                None,
                Box::new(move |ctx| {
                    ctx.charge(id + 1); // queue on the condvar in id order
                    ctx.lock(l);
                    let mut deadline = 5_000;
                    loop {
                        let (_, timed_out) = ctx.cond_wait_until(c, l, deadline);
                        let got = ctx.try_recv(p).map(|m| m.payload[0]);
                        log.lock().unwrap().push((id, ctx.now(), timed_out, got));
                        if got.is_some() || id == 2 {
                            break;
                        }
                        deadline = ctx.fabric().port_next_delivery(p).unwrap_or(5_000);
                    }
                    ctx.unlock(l);
                }),
            );
        }
        f.spawn(
            "sender",
            None,
            Box::new(move |ctx| {
                for i in 1..=2u8 {
                    ctx.charge(500);
                    ctx.send(src, p, vec![i]);
                }
            }),
        );
        f.run();
        let v = log.lock().unwrap().clone();
        v
    }

    #[test]
    fn a_send_to_a_watched_port_wakes_one_waiter_at_the_send_instant() {
        assert_eq!(
            watched_port_run(0),
            vec![
                // Each send wakes the first waiter, and only it, when
                // the copy is handed in; the copy is still in flight.
                (0, 500, false, None),
                (1, 1000, false, None),
                // Waiting until the port's next delivery ends at the
                // delivery instant, timed out.
                (0, 1500, true, Some(1)),
                (1, 1500, true, None),
                (1, 2000, true, Some(2)),
                // Nothing signals the third waiter: its deadline
                // expires.
                (2, 5000, true, None),
            ]
        );
    }

    #[test]
    fn seeded_watched_port_runs_replay_identically() {
        for seed in 1..=8 {
            let run = watched_port_run(seed);
            assert_eq!(run.len(), 6, "seed {seed}: {run:?}");
            assert_eq!(run, watched_port_run(seed), "seed {seed} must replay");
        }
    }

    #[test]
    fn message_latency_is_modelled() {
        let f = fabric();
        let a = f.alloc_port();
        let b = f.alloc_port();
        f.spawn(
            "sender",
            None,
            Box::new(move |ctx| {
                ctx.charge(500);
                ctx.send(a, b, vec![7]);
            }),
        );
        f.spawn(
            "receiver",
            None,
            Box::new(move |ctx| {
                assert!(ctx.wait_readable(b, None));
                // Sent at 500 + 1000 latency.
                assert_eq!(ctx.now(), 1500);
                let m = ctx.try_recv(b).unwrap();
                assert_eq!(m.sent_at, 500);
            }),
        );
        f.run();
    }

    #[test]
    fn select_timeout_fires_without_traffic() {
        let f = fabric();
        let p = f.alloc_port();
        f.spawn(
            "lonely",
            None,
            Box::new(move |ctx| {
                assert!(!ctx.wait_readable(p, Some(2000)));
                assert_eq!(ctx.now(), 2000);
            }),
        );
        f.run();
    }

    #[test]
    fn sleep_until_is_exact_and_ordered() {
        let f = fabric();
        let log = Arc::new(StdMutex::new(Vec::new()));
        for (id, t) in [(0u64, 300u64), (1, 100), (2, 200)] {
            let log = log.clone();
            f.spawn(
                &format!("s{id}"),
                None,
                Box::new(move |ctx| {
                    ctx.sleep_until(t);
                    log.lock().unwrap().push(id);
                }),
            );
        }
        f.run();
        assert_eq!(*log.lock().unwrap(), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let f = fabric();
        let l1 = f.alloc_lock();
        let l2 = f.alloc_lock();
        // Classic ABBA deadlock.
        f.spawn(
            "a",
            None,
            Box::new(move |ctx| {
                ctx.lock(l1);
                ctx.charge(10);
                ctx.lock(l2);
                ctx.unlock(l2);
                ctx.unlock(l1);
            }),
        );
        f.spawn(
            "b",
            None,
            Box::new(move |ctx| {
                ctx.lock(l2);
                ctx.charge(10);
                ctx.lock(l1);
                ctx.unlock(l1);
                ctx.unlock(l2);
            }),
        );
        f.run();
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let f = fabric();
            let l = f.alloc_lock();
            let log = Arc::new(StdMutex::new(Vec::new()));
            for id in 0..4u64 {
                let log = log.clone();
                f.spawn(
                    &format!("t{id}"),
                    None,
                    Box::new(move |ctx| {
                        for i in 0..5 {
                            ctx.charge(7 + id * 3 + i);
                            let w = ctx.lock(l);
                            ctx.charge(11);
                            ctx.unlock(0);
                            log.lock().unwrap().push((id, ctx.now(), w));
                        }
                    }),
                );
            }
            f.run();
            let v = log.lock().unwrap().clone();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seeded_schedules_differ_but_replay_identically() {
        // Four tasks contend on one lock from equal start times; the
        // acquisition order is pure scheduling policy. Seeds must (a)
        // replay identically and (b) produce more than one distinct
        // order across a small seed sweep, while seed 0 keeps the
        // canonical id-ordered schedule.
        let run = |seed: u64| {
            let f = FabricKind::VirtualSmp(VirtualSmpConfig {
                hyperthreading: false,
                link_latency_ns: 0,
                schedule_seed: seed,
                ..VirtualSmpConfig::default()
            })
            .build();
            let l = f.alloc_lock();
            let log = Arc::new(StdMutex::new(Vec::new()));
            for id in 0..4u64 {
                let log = log.clone();
                f.spawn(
                    &format!("t{id}"),
                    None,
                    Box::new(move |ctx| {
                        for _ in 0..3 {
                            ctx.lock(l);
                            ctx.charge(10);
                            ctx.unlock(l);
                            log.lock().unwrap().push(id);
                        }
                    }),
                );
            }
            f.run();
            let v = log.lock().unwrap().clone();
            v
        };
        assert_eq!(run(0), run(0));
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..8 {
            assert_eq!(run(seed), run(seed), "seed {seed} must replay");
            distinct.insert(run(seed));
        }
        assert!(distinct.len() > 1, "seed sweep never changed the schedule");
    }

    #[test]
    fn ht_model_slows_paired_contexts() {
        let run = |cpus: [Option<u32>; 2]| {
            let f = FabricKind::VirtualSmp(VirtualSmpConfig {
                cores: 1,
                hyperthreading: true,
                ht_efficiency: 0.5,
                link_latency_ns: 0,
                mem_penalty: 0.0,
                schedule_seed: 0,
                fault: None,
                fault_wan_only: false,
            })
            .build();
            let out = Arc::new(StdMutex::new(Vec::new()));
            for (i, cpu) in cpus.into_iter().enumerate() {
                let out = out.clone();
                f.spawn(
                    &format!("t{i}"),
                    cpu,
                    Box::new(move |ctx| {
                        for _ in 0..10 {
                            ctx.charge(100);
                        }
                        out.lock().unwrap().push(ctx.now());
                    }),
                );
            }
            f.run();
            let v = out.lock().unwrap().clone();
            v
        };
        // Unpaired (client tasks): full speed.
        let solo = run([None, None]);
        assert_eq!(solo, vec![1000, 1000]);
        // Paired on one core at efficiency 0.5: each charge takes
        // 100 / (2*0.5/2) = 200ns while the sibling is busy.
        let paired = run([Some(0), Some(0)]);
        assert!(paired.iter().all(|&t| t > 1500), "paired = {paired:?}");
    }

    fn lossy_fabric(fault: crate::fault::FaultConfig) -> Arc<dyn Fabric> {
        FabricKind::VirtualSmp(VirtualSmpConfig {
            hyperthreading: false,
            link_latency_ns: 1000,
            fault: Some(fault),
            ..VirtualSmpConfig::default()
        })
        .build()
    }

    #[test]
    fn fault_loss_is_deterministic() {
        let run = || {
            let f = lossy_fabric(crate::fault::FaultConfig::loss(0.5, 0xD06));
            let src = f.alloc_port();
            let dst = f.alloc_port();
            f.spawn(
                "sender",
                None,
                Box::new(move |ctx| {
                    for i in 0u8..100 {
                        ctx.send(src, dst, vec![i]);
                        ctx.charge(100);
                    }
                }),
            );
            let got = Arc::new(StdMutex::new(Vec::new()));
            let g = got.clone();
            f.spawn(
                "receiver",
                None,
                Box::new(move |ctx| {
                    ctx.sleep_until(10_000_000);
                    while let Some(m) = ctx.try_recv(dst) {
                        g.lock().unwrap().push(m.payload[0]);
                    }
                }),
            );
            f.run();
            let v = got.lock().unwrap().clone();
            v
        };
        let a = run();
        assert_eq!(a, run(), "lossy run must replay from its seed");
        assert!(!a.is_empty() && a.len() < 100, "loss ~50%: got {}", a.len());
    }

    #[test]
    fn fault_delay_reorders_but_delivery_stays_sorted() {
        let cfg = crate::fault::FaultConfig {
            drop: 0.0,
            duplicate: 0.0,
            delay: 0.7,
            max_delay_ns: 500_000,
            seed: 21,
            ..crate::fault::FaultConfig::none()
        };
        let f = lossy_fabric(cfg);
        let src = f.alloc_port();
        let dst = f.alloc_port();
        f.spawn(
            "sender",
            None,
            Box::new(move |ctx| {
                for i in 0u8..30 {
                    ctx.send(src, dst, vec![i]);
                    ctx.charge(1_000);
                }
            }),
        );
        let got = Arc::new(StdMutex::new(Vec::new()));
        let g = got.clone();
        f.spawn(
            "receiver",
            None,
            Box::new(move |ctx| {
                let mut at = Vec::new();
                for _ in 0..30 {
                    assert!(ctx.wait_readable(dst, Some(10_000_000)));
                    let m = ctx.try_recv(dst).unwrap();
                    at.push((ctx.now(), m.payload[0]));
                }
                *g.lock().unwrap() = at;
            }),
        );
        f.run();
        let at = got.lock().unwrap().clone();
        assert_eq!(at.len(), 30, "no message may be lost by delay");
        // Arrival times never regress (the queue stays sorted) ...
        assert!(at.windows(2).all(|w| w[0].0 <= w[1].0), "{at:?}");
        // ... while payload order differs from send order (reordering).
        let ids: Vec<u8> = at.iter().map(|&(_, i)| i).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..30).collect::<Vec<u8>>());
        assert_ne!(ids, sorted, "delay injection never reordered anything");
    }

    #[test]
    fn fault_duplicates_are_delivered_twice() {
        let cfg = crate::fault::FaultConfig {
            drop: 0.0,
            duplicate: 1.0,
            delay: 0.0,
            max_delay_ns: 0,
            seed: 5,
            ..crate::fault::FaultConfig::none()
        };
        let f = lossy_fabric(cfg);
        let src = f.alloc_port();
        let dst = f.alloc_port();
        f.spawn(
            "sender",
            None,
            Box::new(move |ctx| {
                ctx.send(src, dst, vec![42]);
            }),
        );
        let n = Arc::new(AtomicU64::new(0));
        let nn = n.clone();
        f.spawn(
            "receiver",
            None,
            Box::new(move |ctx| {
                ctx.sleep_until(1_000_000);
                while let Some(m) = ctx.try_recv(dst) {
                    assert_eq!(m.payload, vec![42]);
                    nn.fetch_add(1, Ordering::Relaxed);
                }
            }),
        );
        f.run();
        assert_eq!(n.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn off_server_tasks_do_not_interfere() {
        let f = FabricKind::VirtualSmp(VirtualSmpConfig {
            cores: 1,
            hyperthreading: true,
            ht_efficiency: 0.5,
            link_latency_ns: 0,
            mem_penalty: 0.0,
            schedule_seed: 0,
            fault: None,
            fault_wan_only: false,
        })
        .build();
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        f.spawn(
            "server",
            Some(0),
            Box::new(move |ctx| {
                ctx.charge(1000);
                o.store(ctx.now(), Ordering::Relaxed);
            }),
        );
        f.spawn(
            "bot",
            None,
            Box::new(move |ctx| {
                ctx.charge(1000);
            }),
        );
        f.run();
        // The bot shares no core with the server: no HT penalty.
        assert_eq!(out.load(Ordering::Relaxed), 1000);
    }
}
