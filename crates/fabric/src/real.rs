//! The real-thread fabric: OS threads, parking_lot primitives,
//! wall-clock time.
//!
//! Semantics mirror the pthreads environment of the original server.
//! `charge()` is a no-op: on wall-clock time the code that ran is the
//! cost, and the modelled 2003 Xeon lives only on
//! [`crate::virt::VirtualSmp`]. Nothing here wakes on a timer of its
//! own — a blocked task resumes on a delivery, a signal, the deadline
//! its caller passed or the due time of a held copy. Condition
//! variables may wake spuriously (as pthreads allows); all callers must
//! re-check predicates in a loop.
//!
//! A port delivers as a [`crate::virt::VirtualSmp`] port does: a copy
//! handed in with a delay ([`RealFabric::send_external_delayed`], the
//! gateway's fault-delayed datagrams) is held until its due time on the
//! fabric's clock, and no receive sees it earlier. While a port holds
//! nothing, no call on it reads the clock.
//!
//! A port may instead be a sink ([`RealFabric::sink_port`]): every
//! delivery to it runs the sink's function on the sending thread and
//! queues nothing, so nobody has to wake to forward it. The gateway
//! sinks its reply port into its socket this way.
//!
//! A primitive nobody waits on costs no system call. Fabric locks are
//! the stand-in's `RawMutex` lock word (two atomic operations per
//! uncontended pair). A port counts, under its queue mutex, the tasks
//! parked in `wait_readable`; a delivery reads that count under the
//! same mutex and notifies the port's condvar only when it is nonzero.
//! No wake-up is lost: a task parks only after it saw the queue empty
//! under the mutex and releases the mutex by parking, so a delivery is
//! either already in the queue when the task looks or finds the task
//! counted. Lock, condvar and port tables are append-only until
//! `run()` and frozen by it, so a running task reaches its primitive
//! through one pointer load — no table lock, no reference count.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock, Weak};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RawMutex};

use crate::witness::LockWitness;
use crate::{CondId, Fabric, LockId, Message, Nanos, PortId, TaskBody, TaskCtx, TaskId};

struct CondImpl {
    m: Mutex<()>,
    cv: Condvar,
}

struct PortQueue {
    q: VecDeque<Message>,
    /// Delayed copies not yet due, by due time (ties in hand-off order).
    held: VecDeque<(Nanos, Message)>,
    /// Maximum queued messages (`usize::MAX` = unbounded).
    cap: usize,
    /// Messages discarded by the bounded-queue drop policy.
    dropped: u64,
    /// Tasks parked on the port's condvar in `wait_readable`.
    parked: u32,
}

impl PortQueue {
    /// Enqueue a message sent now, behind the held copies that came due
    /// before it. Returns whether a task is parked on the port and must
    /// be notified.
    fn push(&mut self, msg: Message) -> bool {
        self.release(|| msg.sent_at);
        self.enqueue(msg);
        self.parked > 0
    }

    /// Enqueue with the drop-oldest overflow policy.
    fn enqueue(&mut self, msg: Message) {
        if self.q.len() >= self.cap {
            self.q.pop_front();
            self.dropped += 1;
        }
        self.q.push_back(msg);
    }

    /// Hold `msg` until `due`. Returns whether a task is parked on the
    /// port: it must wake to wait for the new due time instead.
    fn hold(&mut self, due: Nanos, msg: Message) -> bool {
        let at = self.held.partition_point(|&(d, _)| d <= due);
        self.held.insert(at, (due, msg));
        self.parked > 0
    }

    /// Enqueue every held copy due by the time `now` returns, calling
    /// it only when something is held. Returns the earliest due time
    /// still held.
    #[inline(always)]
    fn release(&mut self, now: impl FnOnce() -> Nanos) -> Option<Nanos> {
        if self.held.is_empty() {
            None
        } else {
            self.release_due(now())
        }
    }

    /// The held-copy half of [`PortQueue::release`], kept out of line:
    /// every send and receive on a port that holds nothing (all traffic
    /// without a fault profile) then compiles to the emptiness check
    /// alone, not to a copy of this loop.
    #[cold]
    #[inline(never)]
    fn release_due(&mut self, now: Nanos) -> Option<Nanos> {
        while let Some(&(due, _)) = self.held.front() {
            if due > now {
                return Some(due);
            }
            let (_, msg) = self.held.pop_front().expect("front exists");
            self.enqueue(msg);
        }
        None
    }
}

struct PortImpl {
    q: Mutex<PortQueue>,
    cv: Condvar,
    /// Set by [`Fabric::wake_on_delivery`]: a scheduler's condvar to
    /// ring on every delivery, besides the port's own.
    watch: OnceLock<DeliveryWatch>,
    /// Set by [`RealFabric::sink_port`]: takes every delivery instead
    /// of the queue.
    sink: OnceLock<PortSink>,
}

/// What a sunk port does with a delivery: `(from, payload)`, run on the
/// sender's thread.
type PortSink = Box<dyn Fn(PortId, Vec<u8>) + Send + Sync>;

/// A condvar whose waiters watch a port they do not block on.
struct DeliveryWatch {
    lock: Arc<RawMutex>,
    cond: Arc<CondImpl>,
}

impl PortImpl {
    /// Wake whoever waits for this port, after a delivery that found
    /// `parked` a task on the port's own condvar (the queue lock must
    /// be released: a watcher's lock is taken here).
    fn ring(&self, parked: bool) {
        if parked {
            self.cv.notify_one();
        }
        let Some(w) = self.watch.get() else { return };
        // A watcher checks the port under `lock`, then waits on `cond`;
        // `cond_wait*` takes `cond.m` before it releases `lock`. Passing
        // through `lock` orders this delivery either before that check
        // (the watcher sees the message) or after `cond.m` was taken
        // (the notify below blocks until the watcher is parked) — there
        // is no window in which the wake-up is lost.
        w.lock.lock();
        // SAFETY: acquired on the line above.
        unsafe { w.lock.unlock() };
        let _guard = w.cond.m.lock();
        w.cond.cv.notify_one();
    }
}

/// An id → primitive table: grown under a mutex while the fabric is
/// set up, published once by `run()`. Whoever looks an id up before
/// then (set-up code, an outside thread already injecting traffic)
/// goes through the mutex and a reference count; a running task does
/// not.
struct Table<T> {
    building: Mutex<Vec<Arc<T>>>,
    frozen: OnceLock<Box<[Arc<T>]>>,
}

impl<T> Table<T> {
    fn new() -> Table<T> {
        Table {
            building: Mutex::new(Vec::new()),
            frozen: OnceLock::new(),
        }
    }

    fn push(&self, t: T) -> u32 {
        let mut v = self.building.lock();
        assert!(!self.is_frozen(), "allocation after run()");
        v.push(Arc::new(t));
        (v.len() - 1) as u32
    }

    fn freeze(&self) {
        let v = self.building.lock();
        let fresh = self.frozen.set(v.clone().into_boxed_slice()).is_ok();
        assert!(fresh, "run() called twice");
    }

    fn is_frozen(&self) -> bool {
        self.frozen.get().is_some()
    }

    /// Borrowed from the frozen table, or counted out of the growing
    /// one.
    #[inline]
    fn get(&self, id: u32) -> Cow<'_, Arc<T>> {
        match self.frozen.get() {
            Some(t) => Cow::Borrowed(&t[id as usize]),
            None => Cow::Owned(self.building.lock()[id as usize].clone()),
        }
    }
}

/// OS-thread implementation of [`Fabric`].
pub struct RealFabric {
    epoch: Instant,
    locks: Table<RawMutex>,
    conds: Table<CondImpl>,
    ports: Table<PortImpl>,
    pending: Mutex<Vec<(String, TaskBody)>>,
    me: Mutex<Option<Weak<dyn Fabric>>>,
    /// Write-once, before `run()`: every `lock`/`unlock` reads it, and
    /// two threads on different locks must not meet on the way.
    witness: OnceLock<Arc<LockWitness>>,
}

impl RealFabric {
    pub fn new() -> RealFabric {
        RealFabric {
            epoch: Instant::now(),
            locks: Table::new(),
            conds: Table::new(),
            ports: Table::new(),
            pending: Mutex::new(Vec::new()),
            me: Mutex::new(None),
            witness: OnceLock::new(),
        }
    }

    /// Create behind an `Arc<dyn Fabric>` with the self-reference wired
    /// up (needed to hand `TaskCtx`s to spawned threads).
    pub fn new_arc() -> Arc<dyn Fabric> {
        Self::new_arc_pair().1
    }

    /// As [`RealFabric::new_arc`], but also return the concrete handle —
    /// needed by gateways that inject external traffic (e.g. the real
    /// UDP bridge) via [`RealFabric::send_external`].
    pub fn new_arc_pair() -> (Arc<RealFabric>, Arc<dyn Fabric>) {
        let arc: Arc<RealFabric> = Arc::new(RealFabric::new());
        let dyn_arc: Arc<dyn Fabric> = arc.clone();
        let weak: Weak<dyn Fabric> = Arc::downgrade(&dyn_arc);
        *arc.me.lock() = Some(weak);
        (arc, dyn_arc)
    }

    /// Inject a datagram from *outside* the fabric (a plain OS thread,
    /// e.g. a socket pump). Real fabric only: ports are plain queues,
    /// so external producers are safe.
    pub fn send_external(&self, from: PortId, to: PortId, payload: Vec<u8>) {
        let p = self.ports.get(to);
        if let Some(sink) = p.sink.get() {
            return sink(from, payload);
        }
        let parked = p.q.lock().push(Message {
            from,
            sent_at: self.clock(),
            payload,
        });
        p.ring(parked);
    }

    /// As [`RealFabric::send_external`], but the port holds the
    /// datagram for `delay` on the fabric's clock: `try_recv` and
    /// `wait_readable` see it no earlier, `port_next_delivery` names
    /// its due time, `port_pending` counts it, and a watcher is rung so
    /// it can sleep until then. Gateway pumps hand fault-delayed copies
    /// in this way. A sunk port holds nothing: handing it a delayed
    /// copy panics.
    pub fn send_external_delayed(&self, from: PortId, to: PortId, payload: Vec<u8>, delay: Nanos) {
        let p = self.ports.get(to);
        assert!(
            p.sink.get().is_none(),
            "port {to} is a sink and holds nothing"
        );
        let sent_at = self.clock();
        let msg = Message {
            from,
            sent_at,
            payload,
        };
        let parked = p.q.lock().hold(sent_at + delay, msg);
        p.ring(parked);
    }

    /// As [`RealFabric::send_external`], but enqueue a whole batch of
    /// datagrams for one destination port under a single queue lock
    /// with a single wakeup. Gateway pumps use this after a batched
    /// `recvmmsg` so N datagrams cost one lock hand-off instead of N;
    /// consumers drain in `try_recv` loops, so one notify suffices.
    pub fn send_external_batch(
        &self,
        from: PortId,
        to: PortId,
        payloads: impl IntoIterator<Item = Vec<u8>>,
    ) {
        let p = self.ports.get(to);
        if let Some(sink) = p.sink.get() {
            return payloads.into_iter().for_each(|payload| sink(from, payload));
        }
        let sent_at = self.clock();
        let mut q = p.q.lock();
        let mut any = false;
        let mut parked = false;
        for payload in payloads {
            parked = q.push(Message {
                from,
                sent_at,
                payload,
            });
            any = true;
        }
        drop(q);
        if any {
            p.ring(parked);
        }
    }

    /// Make `port` a sink: from now on every delivery to it — a task's
    /// `send`, `send_external`, `send_external_batch` — runs
    /// `sink(from, payload)` on the sending thread and queues nothing,
    /// so `try_recv` never yields and `port_pending` stays 0. Set-up
    /// only, like every allocation: panics after `run()`, or if the
    /// port already has a sink.
    pub fn sink_port(&self, port: PortId, sink: impl Fn(PortId, Vec<u8>) + Send + Sync + 'static) {
        assert!(!self.ports.is_frozen(), "sink after run()");
        let fresh = self.ports.get(port).sink.set(Box::new(sink)).is_ok();
        assert!(fresh, "port {port} already has a sink");
    }

    fn abs_instant(&self, t: Nanos) -> Instant {
        self.epoch + Duration::from_nanos(t)
    }

    #[inline(always)]
    fn clock(&self) -> Nanos {
        self.epoch.elapsed().as_nanos() as Nanos
    }
}

impl Default for RealFabric {
    fn default() -> Self {
        RealFabric::new()
    }
}

impl Fabric for RealFabric {
    fn kind(&self) -> &'static str {
        "real"
    }

    fn alloc_lock(&self) -> LockId {
        self.locks.push(RawMutex::INIT)
    }

    fn alloc_cond(&self) -> CondId {
        self.conds.push(CondImpl {
            m: Mutex::new(()),
            cv: Condvar::new(),
        })
    }

    fn alloc_port(&self) -> PortId {
        self.alloc_bounded_port(usize::MAX)
    }

    fn alloc_bounded_port(&self, capacity: usize) -> PortId {
        assert!(capacity > 0, "bounded port needs capacity >= 1");
        self.ports.push(PortImpl {
            q: Mutex::new(PortQueue {
                q: VecDeque::new(),
                held: VecDeque::new(),
                cap: capacity,
                dropped: 0,
                parked: 0,
            }),
            cv: Condvar::new(),
            watch: OnceLock::new(),
            sink: OnceLock::new(),
        })
    }

    fn port_dropped(&self, port: PortId) -> u64 {
        self.ports.get(port).q.lock().dropped
    }

    fn port_pending(&self, port: PortId) -> usize {
        let p = self.ports.get(port);
        let q = p.q.lock();
        q.q.len() + q.held.len()
    }

    fn port_next_delivery(&self, port: PortId) -> Option<Nanos> {
        // Anything queued is receivable now; otherwise the earliest
        // held copy is (a due time already past means it is too).
        let p = self.ports.get(port);
        let q = p.q.lock();
        if q.q.is_empty() {
            q.held.front().map(|&(due, _)| due)
        } else {
            Some(0)
        }
    }

    fn wake_on_delivery(&self, port: PortId, lock: LockId, cond: CondId) {
        let watch = DeliveryWatch {
            lock: self.locks.get(lock).into_owned(),
            cond: self.conds.get(cond).into_owned(),
        };
        let fresh = self.ports.get(port).watch.set(watch).is_ok();
        assert!(fresh, "port {port} is already watched");
    }

    fn spawn(&self, name: &str, _server_cpu: Option<u32>, body: TaskBody) -> TaskId {
        let mut pending = self.pending.lock();
        assert!(!self.locks.is_frozen(), "spawn after run()");
        pending.push((name.to_string(), body));
        (pending.len() - 1) as TaskId
    }

    fn run(&self) {
        self.locks.freeze();
        self.conds.freeze();
        self.ports.freeze();
        let tasks: Vec<(String, TaskBody)> = std::mem::take(&mut *self.pending.lock());
        let me = self.me.lock().clone().expect(
            "RealFabric must be created via new_arc()/FabricKind::build so tasks can \
             reference it",
        );
        let mut handles = Vec::new();
        for (i, (name, body)) in tasks.into_iter().enumerate() {
            let weak = me.clone();
            let handle = std::thread::Builder::new()
                .name(name)
                .stack_size(1 << 20)
                .spawn(move || {
                    let fabric = weak.upgrade().expect("fabric dropped during run");
                    let ctx = TaskCtx::new(i as TaskId, fabric);
                    // A panicking task would leave peers blocked on
                    // fabric primitives forever; fail the whole process
                    // loudly instead of hanging.
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&ctx)));
                    if let Err(payload) = r {
                        let msg = payload
                            .downcast_ref::<String>()
                            .cloned()
                            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                            .unwrap_or_else(|| "<non-string panic>".to_string());
                        eprintln!("fatal: real-fabric task panicked: {msg}");
                        // Name any locks the unwind leaked before dying:
                        // the wedge they would cause is the bug to debug.
                        if let Some(w) = ctx.fabric().witness() {
                            let task = i as TaskId;
                            w.on_unwind(task, ctx.fabric().now(task));
                            for v in &w.report().violations {
                                eprintln!("fatal: {v}");
                            }
                        }
                        std::process::abort();
                    }
                })
                .expect("thread spawn failed");
            handles.push(handle);
        }
        for h in handles {
            h.join().expect("task panicked");
        }
    }

    fn now(&self, _task: TaskId) -> Nanos {
        self.clock()
    }

    fn charge(&self, _task: TaskId, _ns: Nanos) {}

    fn attach_witness(&self, w: Arc<LockWitness>) {
        let fresh = self.witness.set(w).is_ok();
        assert!(fresh, "a witness is already attached");
    }

    fn witness(&self) -> Option<Arc<LockWitness>> {
        self.witness.get().cloned()
    }

    fn lock(&self, task: TaskId, lock: LockId) -> Nanos {
        let l = self.locks.get(lock);
        let blocked = if l.try_lock() {
            0
        } else {
            let t0 = self.now(task);
            l.lock();
            self.now(task) - t0
        };
        if let Some(w) = self.witness.get() {
            w.on_acquire(task, lock, self.now(task));
        }
        blocked
    }

    fn unlock(&self, task: TaskId, lock: LockId) {
        if let Some(w) = self.witness.get() {
            w.on_release(task, lock);
        }
        // SAFETY: protocol — the calling task holds the lock (verified
        // in debug runs by the LinkTable owner checks layered above).
        unsafe { self.locks.get(lock).unlock() };
    }

    fn cond_wait(&self, task: TaskId, cond: CondId, lock: LockId) -> Nanos {
        let c = self.conds.get(cond);
        let t0 = self.now(task);
        if let Some(w) = self.witness.get() {
            w.on_wait(task, lock, t0);
        }
        {
            let mut guard = c.m.lock();
            // Release the user lock only after taking the condvar's
            // internal mutex: signalers hold the user lock, so no
            // wakeup can be lost in between.
            self.unlock(task, lock);
            c.cv.wait(&mut guard);
        }
        self.lock(task, lock);
        self.now(task) - t0
    }

    fn cond_wait_until(
        &self,
        task: TaskId,
        cond: CondId,
        lock: LockId,
        deadline: Nanos,
    ) -> (Nanos, bool) {
        let c = self.conds.get(cond);
        let t0 = self.now(task);
        if let Some(w) = self.witness.get() {
            w.on_wait(task, lock, t0);
        }
        let timed_out;
        {
            let mut guard = c.m.lock();
            self.unlock(task, lock);
            let r = c.cv.wait_until(&mut guard, self.abs_instant(deadline));
            timed_out = r.timed_out();
        }
        self.lock(task, lock);
        (self.now(task) - t0, timed_out)
    }

    fn cond_signal(&self, _task: TaskId, cond: CondId) {
        let c = self.conds.get(cond);
        let _guard = c.m.lock();
        c.cv.notify_one();
    }

    fn cond_broadcast(&self, _task: TaskId, cond: CondId) {
        let c = self.conds.get(cond);
        let _guard = c.m.lock();
        c.cv.notify_all();
    }

    fn send(&self, task: TaskId, from: PortId, to: PortId, payload: Vec<u8>) {
        let p = self.ports.get(to);
        if let Some(sink) = p.sink.get() {
            return sink(from, payload);
        }
        let parked = p.q.lock().push(Message {
            from,
            sent_at: self.now(task),
            payload,
        });
        p.ring(parked);
    }

    fn try_recv(&self, _task: TaskId, port: PortId) -> Option<Message> {
        let p = self.ports.get(port);
        let mut q = p.q.lock();
        q.release(|| self.clock());
        q.q.pop_front()
    }

    fn wait_readable(&self, _task: TaskId, port: PortId, deadline: Option<Nanos>) -> bool {
        let p = self.ports.get(port);
        let mut q = p.q.lock();
        let mut expired = false;
        loop {
            let held = q.release(|| self.clock());
            if !q.q.is_empty() {
                return true;
            }
            if expired {
                return false;
            }
            // Wake at the deadline or when the earliest held copy is
            // due, whichever comes first.
            let wake = deadline.into_iter().chain(held).min();
            // Counted from before the queue mutex is released (by the
            // wait) until after it is held again: a delivery either is
            // in the queue already or sees this task counted.
            q.parked += 1;
            let timed_out = match wake {
                Some(t) => p.cv.wait_until(&mut q, self.abs_instant(t)).timed_out(),
                None => {
                    p.cv.wait(&mut q);
                    false
                }
            };
            q.parked -= 1;
            expired = timed_out && wake == deadline;
        }
    }

    fn sleep_until(&self, task: TaskId, t: Nanos) {
        let now = self.now(task);
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FabricKind;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn lock_provides_mutual_exclusion() {
        let fabric = FabricKind::Real.build();
        let lock = fabric.alloc_lock();
        let shared = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            let s = shared.clone();
            fabric.spawn(
                "worker",
                None,
                Box::new(move |ctx| {
                    for _ in 0..500 {
                        ctx.lock(lock);
                        // Non-atomic read-modify-write protected by the
                        // fabric lock.
                        let v = s.load(Ordering::Relaxed);
                        std::hint::spin_loop();
                        s.store(v + 1, Ordering::Relaxed);
                        ctx.unlock(lock);
                    }
                }),
            );
        }
        fabric.run();
        assert_eq!(shared.load(Ordering::Relaxed), 2000);
    }

    #[test]
    fn message_roundtrip_and_timeout() {
        let fabric = FabricKind::Real.build();
        let a = fabric.alloc_port();
        let b = fabric.alloc_port();
        fabric.spawn(
            "pinger",
            None,
            Box::new(move |ctx| {
                ctx.send(a, b, vec![1, 2, 3]);
                assert!(ctx.wait_readable(a, None));
                let m = ctx.try_recv(a).unwrap();
                assert_eq!(m.payload, vec![9]);
                assert_eq!(m.from, b);
            }),
        );
        fabric.spawn(
            "ponger",
            None,
            Box::new(move |ctx| {
                assert!(ctx.wait_readable(b, None));
                let m = ctx.try_recv(b).unwrap();
                assert_eq!(m.payload, vec![1, 2, 3]);
                ctx.send(b, a, vec![9]);
                // Timeout path: no more messages are coming.
                let deadline = ctx.now() + 2_000_000; // 2ms
                assert!(!ctx.wait_readable(b, Some(deadline)));
            }),
        );
        fabric.run();
    }

    #[test]
    fn external_batch_delivers_in_order_under_one_wakeup() {
        let (real, fabric) = RealFabric::new_arc_pair();
        let gw = fabric.alloc_port();
        let dest = fabric.alloc_port();
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let s = seen.clone();
        fabric.spawn(
            "drain",
            None,
            Box::new(move |ctx| {
                let mut got = 0usize;
                while got < 5 {
                    assert!(ctx.wait_readable(dest, None));
                    while let Some(m) = ctx.try_recv(dest) {
                        assert_eq!(m.from, gw);
                        s.lock().unwrap().push(m.payload);
                        got += 1;
                    }
                }
            }),
        );
        // Empty batches must not wake (or wedge) the consumer.
        real.send_external_batch(gw, dest, std::iter::empty());
        real.send_external_batch(gw, dest, (0u8..5).map(|i| vec![i]));
        fabric.run();
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 5);
        for (i, payload) in seen.iter().enumerate() {
            assert_eq!(payload, &vec![i as u8], "batch order not preserved");
        }
    }

    /// A sunk port's deliveries run the sink on the thread that sent
    /// them — a task's `send`, an outside thread's external sends —
    /// and nothing is queued, pending or receivable.
    #[test]
    fn a_sunk_port_runs_its_sink_on_the_senders_thread() {
        use std::thread::current;
        let (real, fabric) = RealFabric::new_arc_pair();
        let src = fabric.alloc_port();
        let port = fabric.alloc_port();
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let s = seen.clone();
        real.sink_port(port, move |from, payload| {
            s.lock().unwrap().push((from, payload, current().id()));
        });
        let host = current().id();
        real.send_external(src, port, vec![1]);
        real.send_external_batch(src, port, [vec![2], vec![3]]);
        let sender = seen.clone();
        fabric.spawn(
            "sender",
            None,
            Box::new(move |ctx| {
                ctx.send(src, port, vec![4]);
                // Already run, here, before `send` returned.
                let last = sender.lock().unwrap().last().cloned();
                assert_eq!(last, Some((src, vec![4], current().id())));
                assert!(ctx.try_recv(port).is_none());
                assert!(!ctx.wait_readable(port, Some(ctx.now() + 1_000_000)));
                assert_eq!(ctx.fabric().port_pending(port), 0);
                assert_eq!(ctx.fabric().port_next_delivery(port), None);
            }),
        );
        fabric.run();
        let seen = seen.lock().unwrap();
        let payloads: Vec<u8> = seen.iter().map(|(_, p, _)| p[0]).collect();
        assert_eq!(payloads, vec![1, 2, 3, 4], "in send order");
        assert!(seen[..3]
            .iter()
            .all(|&(from, _, t)| from == src && t == host));
        assert_ne!(seen[3].2, host, "the task's send ran on the task's thread");
        assert_eq!(fabric.port_pending(port), 0);
    }

    #[test]
    #[should_panic(expected = "sink after run()")]
    fn sinking_a_port_after_run_panics() {
        let (real, fabric) = RealFabric::new_arc_pair();
        let port = fabric.alloc_port();
        fabric.run();
        real.sink_port(port, |_, _| {});
    }

    #[test]
    #[should_panic(expected = "already has a sink")]
    fn sinking_a_port_twice_panics() {
        let (real, fabric) = RealFabric::new_arc_pair();
        let port = fabric.alloc_port();
        real.sink_port(port, |_, _| {});
        real.sink_port(port, |_, _| {});
    }

    #[test]
    fn bounded_port_drops_oldest() {
        let fabric = FabricKind::Real.build();
        let src = fabric.alloc_port();
        let p = fabric.alloc_bounded_port(2);
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let s = seen.clone();
        fabric.spawn(
            "pump",
            None,
            Box::new(move |ctx| {
                for i in 0u8..6 {
                    ctx.send(src, p, vec![i]);
                }
                while let Some(m) = ctx.try_recv(p) {
                    s.lock().unwrap().push(m.payload[0]);
                }
            }),
        );
        fabric.run();
        assert_eq!(*seen.lock().unwrap(), vec![4, 5]);
        assert_eq!(fabric.port_dropped(p), 4);
        assert_eq!(fabric.port_pending(p), 0);
    }

    #[test]
    fn cond_timed_wait_times_out() {
        let fabric = FabricKind::Real.build();
        let lock = fabric.alloc_lock();
        let cond = fabric.alloc_cond();
        fabric.spawn(
            "waiter",
            None,
            Box::new(move |ctx| {
                ctx.lock(lock);
                let (_w, timed_out) = ctx.cond_wait_until(cond, lock, ctx.now() + 1_000_000);
                assert!(timed_out);
                ctx.unlock(lock);
            }),
        );
        fabric.run();
    }

    #[test]
    fn charge_costs_no_wall_clock() {
        let fabric = FabricKind::Real.build();
        let took = Arc::new(AtomicU64::new(u64::MAX));
        let t = took.clone();
        fabric.spawn(
            "charger",
            None,
            Box::new(move |ctx| {
                let t0 = ctx.now();
                for _ in 0..1_000 {
                    ctx.charge(3_000_000); // 3 s of modelled work in all
                }
                t.store(ctx.now() - t0, Ordering::Relaxed);
            }),
        );
        fabric.run();
        // Well under ONE modelled charge, let alone a thousand.
        assert!(took.load(Ordering::Relaxed) < 100_000_000);
    }

    /// A fabric with one port watched through `(lock, cond)`, plus a
    /// source port for outside senders.
    #[allow(clippy::type_complexity)]
    fn watched_port() -> (
        Arc<RealFabric>,
        Arc<dyn Fabric>,
        PortId,
        PortId,
        LockId,
        CondId,
    ) {
        let (real, fabric) = RealFabric::new_arc_pair();
        let gw = fabric.alloc_port();
        let port = fabric.alloc_port();
        let lock = fabric.alloc_lock();
        let cond = fabric.alloc_cond();
        fabric.wake_on_delivery(port, lock, cond);
        (real, fabric, gw, port, lock, cond)
    }

    /// An outside thread that answers each round the waiting task
    /// publishes in `round` with exactly one delivery of the round
    /// number, 0–200 µs after it was published: the delivery lands
    /// before the waiter looks at the port, between its look and its
    /// park, or after it parked.
    fn inject_one_per_round(
        real: Arc<RealFabric>,
        gw: PortId,
        port: PortId,
        round: Arc<AtomicU64>,
        rounds: u32,
    ) -> std::thread::JoinHandle<()> {
        std::thread::spawn(move || {
            let mut rng = parquake_math::Pcg32::seeded(17);
            for i in 1..=rounds as u64 {
                while round.load(Ordering::Acquire) < i {
                    std::hint::spin_loop();
                }
                let delay = Duration::from_nanos(rng.below(200_000) as u64);
                let t0 = Instant::now();
                while t0.elapsed() < delay {
                    std::hint::spin_loop();
                }
                let payload = i.to_le_bytes().to_vec();
                if i % 2 == 0 {
                    real.send_external(gw, port, payload);
                } else {
                    real.send_external_batch(gw, port, [payload]);
                }
            }
        })
    }

    /// A watcher that saw its port empty under the lock and then waits
    /// on the watched condvar must be woken by a delivery that lands
    /// anywhere in between — the 2 s deadline is never the way out.
    #[test]
    fn watched_port_delivery_never_loses_the_wakeup() {
        const ROUNDS: u32 = 2_000;
        let (real, fabric, gw, port, lock, cond) = watched_port();
        // Round hand-off: the watcher publishes the round it is about
        // to wait in, the injector answers each round exactly once.
        let round = Arc::new(AtomicU64::new(0));
        let r = round.clone();
        fabric.spawn(
            "watcher",
            None,
            Box::new(move |ctx| {
                for i in 1..=ROUNDS as u64 {
                    ctx.lock(lock);
                    r.store(i, Ordering::Release);
                    while ctx.fabric().port_next_delivery(port).is_none() {
                        let (_, timed_out) =
                            ctx.cond_wait_until(cond, lock, ctx.now() + 2_000_000_000);
                        assert!(!timed_out, "round {i}: delivery wake-up lost");
                    }
                    ctx.unlock(lock);
                    assert_eq!(ctx.try_recv(port).unwrap().payload, i.to_le_bytes());
                    assert!(ctx.try_recv(port).is_none());
                }
            }),
        );
        let injector = inject_one_per_round(real, gw, port, round, ROUNDS);
        fabric.run();
        injector.join().unwrap();
    }

    #[test]
    fn delivery_to_an_unwatched_unawaited_port_is_readable_at_once() {
        let fabric = FabricKind::Real.build();
        let src = fabric.alloc_port();
        let port = fabric.alloc_port();
        fabric.spawn(
            "self-sender",
            None,
            Box::new(move |ctx| {
                // Nobody is parked on `port`: this send notifies no one.
                ctx.send(src, port, vec![7]);
                let t0 = ctx.now();
                assert!(ctx.wait_readable(port, Some(t0 + 2_000_000_000)));
                assert!(ctx.now() - t0 < 500_000_000, "readable, not timed out");
                assert_eq!(ctx.try_recv(port).unwrap().payload, vec![7]);
            }),
        );
        fabric.run();
    }

    /// The port's own condvar is notified only when a delivery finds a
    /// task counted as parked. Wherever the delivery lands relative to
    /// the waiter's look at the queue and its park, the waiter is woken
    /// by it — the 2 s deadline is never the way out.
    #[test]
    fn timed_wait_readable_never_loses_the_wakeup() {
        const ROUNDS: u32 = 2_000;
        let (real, fabric) = RealFabric::new_arc_pair();
        let gw = fabric.alloc_port();
        let port = fabric.alloc_port();
        let round = Arc::new(AtomicU64::new(0));
        let r = round.clone();
        fabric.spawn(
            "waiter",
            None,
            Box::new(move |ctx| {
                for i in 1..=ROUNDS as u64 {
                    let t0 = ctx.now();
                    r.store(i, Ordering::Release);
                    assert!(ctx.wait_readable(port, Some(t0 + 2_000_000_000)));
                    assert!(
                        ctx.now() - t0 < 1_000_000_000,
                        "round {i}: delivery wake-up lost"
                    );
                    assert_eq!(ctx.try_recv(port).unwrap().payload, i.to_le_bytes());
                    assert!(ctx.try_recv(port).is_none());
                }
            }),
        );
        let injector = inject_one_per_round(real, gw, port, round, ROUNDS);
        fabric.run();
        injector.join().unwrap();
    }

    /// The window the stress test above can only graze, held open on
    /// purpose: the delivery lands after the watcher's scan and before
    /// its wait. The sender must not get its notify out until the
    /// watcher is parked.
    #[test]
    fn delivery_between_scan_and_wait_still_wakes() {
        let (real, fabric, gw, port, lock, cond) = watched_port();
        let (scanned_tx, scanned_rx) = std::sync::mpsc::channel();
        fabric.spawn(
            "watcher",
            None,
            Box::new(move |ctx| {
                ctx.lock(lock);
                assert!(ctx.fabric().port_next_delivery(port).is_none());
                scanned_tx.send(()).unwrap();
                // Long enough for the sender to enqueue and reach its
                // notify, were nothing holding it back.
                std::thread::sleep(Duration::from_millis(20));
                assert!(ctx.fabric().port_next_delivery(port).is_some());
                let (_, timed_out) = ctx.cond_wait_until(cond, lock, ctx.now() + 500_000_000);
                ctx.unlock(lock);
                assert!(!timed_out, "notify went out before the watcher parked");
            }),
        );
        let injector = std::thread::spawn(move || {
            scanned_rx.recv().unwrap();
            real.send_external(gw, port, vec![1]);
        });
        fabric.run();
        injector.join().unwrap();
    }

    #[test]
    fn empty_external_batch_rings_no_watcher() {
        let (real, fabric, gw, port, lock, cond) = watched_port();
        let (tx, rx) = std::sync::mpsc::channel();
        fabric.spawn(
            "watcher",
            None,
            Box::new(move |ctx| {
                ctx.lock(lock);
                tx.send(()).unwrap();
                let (_, timed_out) = ctx.cond_wait_until(cond, lock, ctx.now() + 30_000_000);
                ctx.unlock(lock);
                assert!(
                    timed_out,
                    "an empty batch delivered nothing and must wake nobody"
                );
            }),
        );
        let injector = std::thread::spawn(move || {
            rx.recv().unwrap();
            real.send_external_batch(gw, port, std::iter::empty());
        });
        fabric.run();
        injector.join().unwrap();
    }

    /// The delay the held-copy tests below hand their copies in with.
    const HOLD: Nanos = 30_000_000; // 30 ms

    /// A held copy is received no earlier than its due time. Until then
    /// `port_next_delivery` names the due time and `port_pending`
    /// counts the copy, and a wait whose deadline comes first times out.
    #[test]
    fn a_held_copy_is_never_received_before_its_due_time() {
        let (real, fabric) = RealFabric::new_arc_pair();
        let src = fabric.alloc_port();
        let port = fabric.alloc_port();
        fabric.spawn(
            "receiver",
            None,
            Box::new(move |ctx| {
                let t0 = ctx.now();
                real.send_external_delayed(src, port, vec![1], HOLD);
                let due = ctx.fabric().port_next_delivery(port).expect("a held copy");
                assert!((t0 + HOLD..=ctx.now() + HOLD).contains(&due), "due {due}");
                assert_eq!(ctx.fabric().port_pending(port), 1);
                let readable = ctx.wait_readable(port, Some(t0 + HOLD / 3));
                assert!(!readable || ctx.now() >= due, "readable before due");
                let got = loop {
                    if let Some(m) = ctx.try_recv(port) {
                        break m;
                    }
                    assert!(ctx.now() < due + 1_000_000_000, "never released");
                    std::thread::yield_now();
                };
                assert!(ctx.now() >= due, "received before its due time");
                assert_eq!(got.payload, vec![1]);
                assert_eq!(got.sent_at + HOLD, due);
                assert_eq!(ctx.fabric().port_pending(port), 0);
                assert_eq!(ctx.fabric().port_next_delivery(port), None);
            }),
        );
        fabric.run();
    }

    /// A task parked in `wait_readable` before the copy is handed in —
    /// with no deadline, or with one far past the due time — wakes to
    /// receive it once it is due: not before, and not at the deadline.
    #[test]
    fn a_parked_reader_receives_a_held_copy_once_it_is_due() {
        for deadline in [Some(2_000_000_000), None] {
            let (real, fabric) = RealFabric::new_arc_pair();
            let src = fabric.alloc_port();
            let port = fabric.alloc_port();
            fabric.spawn(
                "reader",
                None,
                Box::new(move |ctx| {
                    let d = deadline.map(|d: Nanos| ctx.now() + d);
                    assert!(ctx.wait_readable(port, d), "deadline {deadline:?}");
                    let woke = ctx.now();
                    let m = ctx.try_recv(port).expect("readable port must yield");
                    let due = m.sent_at + HOLD;
                    assert!(woke >= due, "woke {} ns early", due - woke);
                    assert!(woke < due + 500_000_000, "slept past the due time");
                }),
            );
            let injector = std::thread::spawn(move || {
                while real.ports.get(port).q.lock().parked == 0 {
                    std::thread::yield_now();
                }
                real.send_external_delayed(src, port, vec![1], HOLD);
            });
            fabric.run();
            injector.join().unwrap();
        }
    }

    #[test]
    fn an_immediate_copy_sent_later_is_received_first() {
        let (real, fabric) = RealFabric::new_arc_pair();
        let src = fabric.alloc_port();
        let port = fabric.alloc_port();
        fabric.spawn(
            "receiver",
            None,
            Box::new(move |ctx| {
                let t0 = ctx.now();
                real.send_external_delayed(src, port, vec![1], HOLD);
                real.send_external(src, port, vec![2]);
                if ctx.now() >= t0 + HOLD {
                    eprintln!("skipping: the host stalled past the due time");
                    return;
                }
                assert_eq!(ctx.fabric().port_next_delivery(port), Some(0));
                assert_eq!(ctx.fabric().port_pending(port), 2);
                assert_eq!(ctx.try_recv(port).unwrap().payload, vec![2]);
                assert!(ctx.wait_readable(port, None));
                let held = ctx.try_recv(port).unwrap();
                assert_eq!(held.payload, vec![1]);
                assert!(ctx.now() >= held.sent_at + HOLD);
            }),
        );
        fabric.run();
    }

    /// A watcher sleeps until the due time `port_next_delivery` names
    /// (as the arena pool does); the hand-off rings it, so a watcher
    /// already asleep on a later deadline learns the new due time.
    #[test]
    fn a_watcher_sleeps_until_a_held_copy_is_due() {
        let (real, fabric, gw, port, lock, cond) = watched_port();
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        fabric.spawn(
            "watcher",
            None,
            Box::new(move |ctx| {
                ctx.lock(lock);
                locked_tx.send(()).unwrap();
                let far = ctx.now() + 2_000_000_000;
                loop {
                    let now = ctx.now();
                    match ctx.fabric().port_next_delivery(port) {
                        Some(due) if due <= now => break,
                        next => {
                            let until = next.unwrap_or(far);
                            assert!(now < far, "the hand-off rang nobody");
                            ctx.cond_wait_until(cond, lock, until);
                        }
                    }
                }
                ctx.unlock(lock);
                let woke = ctx.now();
                let m = ctx.try_recv(port).expect("a due copy must be received");
                assert!(woke >= m.sent_at + HOLD);
                assert!(woke < m.sent_at + HOLD + 500_000_000);
            }),
        );
        let injector = std::thread::spawn(move || {
            locked_rx.recv().unwrap();
            // The watcher lets go of its lock only by waiting: past
            // this, it sleeps on the far deadline.
            let l = real.locks.get(lock);
            l.lock();
            // SAFETY: acquired on the line above.
            unsafe { l.unlock() };
            real.send_external_delayed(gw, port, vec![1], HOLD);
        });
        fabric.run();
        injector.join().unwrap();
    }

    #[test]
    fn sleep_until_reaches_target() {
        let fabric = FabricKind::Real.build();
        fabric.spawn(
            "sleeper",
            None,
            Box::new(move |ctx| {
                let target = ctx.now() + 2_000_000;
                ctx.sleep_until(target);
                assert!(ctx.now() >= target);
            }),
        );
        fabric.run();
    }
}
