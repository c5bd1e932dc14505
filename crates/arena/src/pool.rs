//! The shared worker pool's schedule: one record per arena, and every
//! transition on it.
//!
//! Pool workers (claim, release, crash), the director (spawn, reap,
//! migration) and the supervisor in the director's loop (condemn,
//! restore) all decide about the same per-arena facts. They keep them
//! here, in one private record per arena, and change them only through
//! the named transitions of [`ClaimTable`], each applied under the pool
//! lock. DESIGN.md §8 tabulates the lifecycle. The transitions keep
//! five invariants, which the property test at the bottom of this file
//! checks after every step:
//!
//! 1. A cell has at most one claimant: a worker or the director.
//! 2. A worker never takes a new claim on a fence-pending cell.
//! 3. A cell that is not live (cold, crashed, condemned) is never
//!    schedulable.
//! 4. Reap and fence never take a claimed or fated cell.
//! 5. Restore starts only after the claim is free.
//!
//! An idle worker sleeps on the pool condvar, on either fabric, until
//! a delivery to an arena port rings it ([`Fabric::wake_on_delivery`]),
//! a transition may have made an arena schedulable, or the earliest
//! deadline the pool owes itself comes: an in-flight copy's delivery,
//! overload pacing, an owed or maintenance frame, the end of the run.
//! No clock wakes it.

use std::cell::UnsafeCell;
use std::sync::Arc;

use parquake_fabric::fault::FrameLottery;
use parquake_fabric::{CondId, Fabric, LockId, Nanos, PortId, TaskCtx};
use parquake_metrics::LockClass;
use parquake_server::runtime::{FrameState, ServerShared};

use crate::checkpoint::CheckpointRing;
use crate::directory::{ArenaDirectoryConfig, PoolReport};

/// How an arena failed; it awaits restore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Fate {
    /// A claimed frame panicked at `at`.
    Crashed { at: Nanos },
    /// The watchdog caught a claimed frame overrunning at `at`.
    Condemned { at: Nanos },
}

/// Where an arena is in its life.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Life {
    /// Beyond the boot fleet and never spawned, or reaped.
    Cold,
    Live,
    Fated(Fate),
}

/// Who holds an arena's claim.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Claim {
    Free,
    /// A worker is running a frame; `since` starts the watchdog clock.
    Worker {
        since: Nanos,
    },
    /// The director is restoring the cell, or migrating slots out of
    /// or into it.
    Director,
}

/// One arena's schedule record.
#[derive(Clone, Copy, Debug)]
struct Schedule {
    life: Life,
    claim: Claim,
    /// A migration fence is pending: no worker takes a new claim, so
    /// the director captures the cell at its current frame's boundary
    /// instead of racing a saturated arena that is claimed essentially
    /// all the time (see [`crate::migrate`]).
    fence: bool,
    /// The arena had occupied slots after its last frame (maintenance
    /// frames are owed only to arenas with sessions).
    sessions: bool,
    /// When its last frame finished (maintenance pacing).
    last_frame: Nanos,
    /// Earliest time its next frame may start: now, unless sustained
    /// overruns stretched it (supervised arenas only).
    next_due: Nanos,
    /// A migration moved slots in or out: the arena owes one frame even
    /// with no input queued and maintenance off, so the destination
    /// re-acks its new clients and the source ends a leaving slot.
    owed: bool,
}

impl Schedule {
    /// The one rule a worker's scan and its idle deadline share.
    fn schedulable(&self) -> bool {
        self.life == Life::Live && self.claim == Claim::Free && !self.fence
    }
}

/// What a capture attempt found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Capture {
    /// A frame still holds one of the claims: wait for its release.
    Waiting,
    /// A cell died or the wait expired: the fences are dropped.
    Aborted,
    /// Both cells are the director's.
    Captured,
}

/// Every arena's schedule record, and the transitions on them.
pub(crate) struct ClaimTable {
    arenas: Vec<Schedule>,
    /// Round-robin scan start, for fairness across arenas.
    rotor: usize,
    /// Set by a transition that frees a claim or may make an arena
    /// schedulable: the critical section that applied it wakes every
    /// waiter on the pool condvar (idle workers rescan, a capture
    /// re-checks its claims).
    wake: bool,
}

impl ClaimTable {
    /// `n` cells, the first `boot` of them live.
    fn new(n: usize, boot: usize) -> ClaimTable {
        let cell = |k| Schedule {
            life: if k < boot { Life::Live } else { Life::Cold },
            claim: Claim::Free,
            fence: false,
            sessions: false,
            last_frame: 0,
            next_due: 0,
            owed: false,
        };
        ClaimTable {
            arenas: (0..n).map(cell).collect(),
            rotor: 0,
            wake: false,
        }
    }

    /// Worker: claim the first schedulable arena from the rotor that is
    /// due and has input waiting (`input(k)`), a migration's frame owed
    /// or a maintenance frame owed.
    fn claim_due(
        &mut self,
        now: Nanos,
        maint: Nanos,
        mut input: impl FnMut(usize) -> bool,
    ) -> Option<usize> {
        let n = self.arenas.len();
        let k = (0..n).map(|i| (self.rotor + i) % n).find(|&k| {
            let a = &self.arenas[k];
            if !a.schedulable() || a.next_due > now {
                return false;
            }
            let input = input(k);
            input || a.owed || (maint > 0 && a.sessions && now >= a.last_frame + maint)
        })?;
        self.arenas[k].claim = Claim::Worker { since: now };
        self.arenas[k].owed = false;
        self.rotor = (k + 1) % n;
        Some(k)
    }

    /// Worker: the earliest moment a schedulable arena could become
    /// runnable without a wake-up — queued input (`next_delivery(k)`)
    /// or an owed frame reaching its pacing, or a maintenance frame
    /// coming due — or `deadline`, if sooner.
    fn wake_deadline(
        &self,
        mut deadline: Nanos,
        maint: Nanos,
        mut next_delivery: impl FnMut(usize) -> Option<Nanos>,
    ) -> Nanos {
        for (k, a) in self
            .arenas
            .iter()
            .enumerate()
            .filter(|(_, a)| a.schedulable())
        {
            if let Some(t) = next_delivery(k) {
                deadline = deadline.min(a.next_due.max(t));
            }
            if a.owed {
                deadline = deadline.min(a.next_due);
            }
            if maint > 0 && a.sessions {
                deadline = deadline.min(a.next_due.max(a.last_frame + maint));
            }
        }
        deadline
    }

    /// Worker: a frame finished at `now`; the arena may start its next
    /// one `gap` later. A frame the watchdog condemned while it ran
    /// leaves its arena fated for the supervisor.
    fn release(&mut self, k: usize, now: Nanos, gap: Nanos, sessions: bool) {
        let a = &mut self.arenas[k];
        debug_assert!(matches!(a.claim, Claim::Worker { .. }), "{a:?}");
        a.claim = Claim::Free;
        if a.life == Life::Live {
            a.next_due = now + gap;
            a.last_frame = now;
            a.sessions = sessions;
        }
        self.wake = true;
    }

    /// Worker: the claimed frame panicked at `now`. The world may be
    /// mid-mutation; nothing touches it until the supervisor restores
    /// it.
    pub(crate) fn crash(&mut self, k: usize, now: Nanos) {
        let a = &mut self.arenas[k];
        debug_assert!(matches!(a.claim, Claim::Worker { .. }), "{a:?}");
        a.claim = Claim::Free;
        a.life = Life::Fated(Fate::Crashed { at: now });
        self.wake = true;
    }

    /// Director: bring a cold cell live at `now`, due at once.
    pub(crate) fn spawn(&mut self, k: usize, now: Nanos) {
        let a = &mut self.arenas[k];
        debug_assert!(a.life == Life::Cold && a.claim == Claim::Free, "{a:?}");
        a.life = Life::Live;
        a.next_due = 0;
        a.sessions = false;
        a.last_frame = now;
        self.wake = true;
    }

    /// Director: retire a live arena. Refused while a frame holds it
    /// (retry next tick) or while it is fated (the supervisor owns its
    /// next transition).
    fn reap(&mut self, k: usize) -> bool {
        let a = &mut self.arenas[k];
        if a.life != Life::Live || a.claim != Claim::Free {
            return false;
        }
        a.life = Life::Cold;
        a.sessions = false;
        a.owed = false;
        true
    }

    /// Watchdog: condemn a live arena whose worker has held its claim
    /// longer than `bound`. The claim stays with the stuck frame.
    pub(crate) fn condemn(&mut self, k: usize, now: Nanos, bound: Nanos) -> bool {
        let a = &mut self.arenas[k];
        let overdue =
            matches!(a.claim, Claim::Worker { since } if now.saturating_sub(since) > bound);
        if a.life != Life::Live || !overdue {
            return false;
        }
        a.life = Life::Fated(Fate::Condemned { at: now });
        true
    }

    /// Supervisor: take the free claim of a fated arena, so the restore
    /// runs outside the pool lock. Returns how it failed.
    pub(crate) fn fence_fated(&mut self, k: usize) -> Option<Fate> {
        let a = &mut self.arenas[k];
        let Life::Fated(fate) = a.life else {
            return None;
        };
        if a.claim != Claim::Free {
            return None;
        }
        a.claim = Claim::Director;
        Some(fate)
    }

    /// Supervisor: a restored arena is live again at `now` and due at
    /// once, so the traffic that queued while it was down drains.
    pub(crate) fn restored(&mut self, k: usize, now: Nanos, sessions: bool) {
        let a = &mut self.arenas[k];
        debug_assert!(a.claim == Claim::Director, "{a:?}");
        a.life = Life::Live;
        a.claim = Claim::Free;
        a.next_due = 0;
        a.last_frame = now;
        a.sessions = sessions;
        self.wake = true;
    }

    /// Director: mark both cells fence-pending. Refused unless both
    /// are live and neither is already pending.
    fn request_fence(&mut self, pair: [usize; 2]) -> bool {
        let open = |a: &Schedule| a.life == Life::Live && !a.fence;
        if !pair.iter().all(|&k| open(&self.arenas[k])) {
            return false;
        }
        for k in pair {
            self.arenas[k].fence = true;
        }
        true
    }

    /// Director: capture both fence-pending cells once their frames
    /// have released. Aborts, dropping the fences, if either cell died
    /// or the wait `expired`.
    fn try_capture(&mut self, pair: [usize; 2], expired: bool) -> Capture {
        if expired || pair.iter().any(|&k| self.arenas[k].life != Life::Live) {
            for k in pair {
                self.arenas[k].fence = false;
            }
            self.wake = true;
            return Capture::Aborted;
        }
        if pair.iter().any(|&k| self.arenas[k].claim != Claim::Free) {
            return Capture::Waiting;
        }
        for k in pair {
            self.arenas[k].claim = Claim::Director;
            self.arenas[k].fence = false;
        }
        Capture::Captured
    }

    /// Director: a migration from `src` to `dst` is over. When slots
    /// `moved`, both arenas owe a frame at once (the destination
    /// re-acks its new clients, the source ends a leaving slot) and
    /// `src_sessions` says whether the source still holds any.
    pub(crate) fn end_migration(
        &mut self,
        [src, dst]: [usize; 2],
        moved: bool,
        src_sessions: bool,
    ) {
        for k in [src, dst] {
            debug_assert!(self.arenas[k].claim == Claim::Director);
            self.arenas[k].claim = Claim::Free;
            if moved {
                self.arenas[k].next_due = 0;
                self.arenas[k].owed = true;
            }
        }
        if moved {
            self.arenas[dst].sessions = true;
            self.arenas[src].sessions = src_sessions;
        }
        self.wake = true;
    }
}

/// One arena's runtime state inside the pool. `frame` and `guard`
/// belong to whoever holds the arena's claim.
pub(crate) struct ArenaCell {
    pub(crate) shared: Arc<ServerShared>,
    pub(crate) port: PortId,
    frame: UnsafeCell<FrameState>,
    guard: UnsafeCell<ArenaGuard>,
}

/// Claim-protected supervision state of one arena.
pub(crate) struct ArenaGuard {
    /// Restore points, newest last.
    pub(crate) ring: CheckpointRing,
    /// Deterministic per-arena fault lottery (`None` = no injection).
    pub(crate) lottery: Option<FrameLottery>,
    /// Effective frame-interval multiplier (1 = real time, up to 8
    /// under sustained overrun).
    pub(crate) stretch: u32,
    /// Consecutive frames that overran the deadline.
    pub(crate) overruns: u32,
    /// Worker-side counters, merged into the directory's
    /// `SupervisorStats` by the last exiting worker.
    pub(crate) panics_caught: u64,
    pub(crate) shed_frames: u64,
    pub(crate) coalesced_moves: u64,
}

// SAFETY: `frame` and `guard` are accessed only by the holder of the
// arena's claim (a worker between claim and release or crash; the
// director between fencing and restore done, or between capture and
// end of migration), by the director while reaping (under the pool
// lock, the claim free and the cell turned cold, so no worker can
// claim it), or by the last exiting worker (every other worker has
// left). `shared` and `port` are `Sync` on their own.
unsafe impl Sync for ArenaCell {}
unsafe impl Send for ArenaCell {}

impl ArenaCell {
    pub(crate) fn new(
        shared: Arc<ServerShared>,
        lottery: Option<FrameLottery>,
        depth: usize,
    ) -> ArenaCell {
        ArenaCell {
            port: shared.ports[0],
            shared,
            frame: UnsafeCell::new(FrameState::default()),
            guard: UnsafeCell::new(ArenaGuard {
                ring: CheckpointRing::new(depth),
                lottery,
                stretch: 1,
                overruns: 0,
                panics_caught: 0,
                shed_frames: 0,
                coalesced_moves: 0,
            }),
        }
    }

    #[allow(clippy::mut_from_ref)]
    pub(crate) fn frame(&self) -> &mut FrameState {
        // SAFETY: the caller holds the claim; see the `Sync` impl.
        unsafe { &mut *self.frame.get() }
    }

    #[allow(clippy::mut_from_ref)]
    pub(crate) fn guard(&self) -> &mut ArenaGuard {
        // SAFETY: the caller holds the claim; see the `Sync` impl.
        unsafe { &mut *self.guard.get() }
    }
}

/// What the pool lock guards: the claim table and the pool's own
/// accounting.
struct PoolState {
    table: ClaimTable,
    report: PoolReport,
    /// Workers that have left the loop.
    exited: u32,
}

/// The shared worker pool: its cells and their schedule, guarded by the
/// fabric lock `lock`. The lock sits in the control layer (like the
/// parallel server's frame-control lock): it is never held while
/// running a frame, so it can never rank under a region lock.
pub(crate) struct Pool {
    /// The config the directory was built from, normalised.
    pub(crate) cfg: ArenaDirectoryConfig,
    lock: LockId,
    cond: CondId,
    pub(crate) cells: Vec<ArenaCell>,
    state: UnsafeCell<PoolState>,
}

// SAFETY: `state` is only accessed between `enter` and `exit`, i.e.
// while holding the fabric `lock`; `cells` are `Sync` (see
// `ArenaCell`) and the other fields are immutable after `new`.
unsafe impl Sync for Pool {}
unsafe impl Send for Pool {}

impl Pool {
    /// A pool over `cells`. It asks the fabric to ring the pool
    /// condvar on every delivery to an arena port. Rule:
    /// never send to an arena port inside a pool critical section — the
    /// delivery passes through the pool lock, which is not re-entrant.
    /// The director forwards outside every section and the gateway
    /// pumps hold no fabric lock. One waiter is woken per delivery; the
    /// only non-worker waiter, [`Pool::capture`], waits solely while a
    /// worker holds a claim, and every claim release wakes all waiters.
    pub(crate) fn new(
        fabric: &Arc<dyn Fabric>,
        cells: Vec<ArenaCell>,
        cfg: &ArenaDirectoryConfig,
    ) -> Pool {
        let lock = fabric.alloc_lock();
        if let Some(w) = fabric.witness() {
            w.classify(lock, LockClass::Ctrl);
        }
        let cond = fabric.alloc_cond();
        for c in &cells {
            fabric.wake_on_delivery(c.port, lock, cond);
        }
        let (n, workers) = (cells.len(), cfg.workers as usize);
        let report = PoolReport {
            frames_by_worker: vec![0; workers],
            frames_by_arena: vec![0; n],
            idle_ns_by_worker: vec![0; workers],
            idle_timeouts_by_worker: vec![0; workers],
        };
        let table = ClaimTable::new(n, cfg.arenas as usize);
        Pool {
            cfg: cfg.clone(),
            lock,
            cond,
            cells,
            state: UnsafeCell::new(PoolState {
                table,
                report,
                exited: 0,
            }),
        }
    }

    /// Enter the pool-scheduling critical section.
    // lockcheck: acquire-site
    fn enter(&self, ctx: &TaskCtx) {
        ctx.lock(self.lock);
    }

    /// Leave the pool-scheduling critical section, first waking every
    /// waiter if a transition asked for it.
    // lockcheck: acquire-site
    fn exit(&self, ctx: &TaskCtx) {
        if std::mem::take(&mut self.state().table.wake) {
            ctx.cond_broadcast(self.cond);
        }
        ctx.unlock(self.lock);
    }

    /// The state behind the pool lock: only between `enter` and `exit`,
    /// and fetched afresh after every condvar wait.
    #[allow(clippy::mut_from_ref)]
    fn state(&self) -> &mut PoolState {
        // SAFETY: the caller holds the pool lock (see the `Sync` impl).
        unsafe { &mut *self.state.get() }
    }

    /// Apply transitions to the claim table in one critical section.
    pub(crate) fn with<R>(&self, ctx: &TaskCtx, f: impl FnOnce(&mut ClaimTable) -> R) -> R {
        self.enter(ctx);
        let r = f(&mut self.state().table);
        self.exit(ctx);
        r
    }

    /// Worker `w`: claim a due arena, or, with nothing runnable, sleep
    /// until a delivery or a pool event wakes it, or until the earliest
    /// moment an arena could become runnable without one, and return
    /// `None` to rescan.
    pub(crate) fn claim(&self, ctx: &TaskCtx, w: u32, now: Nanos) -> Option<usize> {
        let (maint, end) = (self.cfg.maintenance_ns, self.cfg.server.end_time);
        self.enter(ctx);
        let st = self.state();
        // `port_next_delivery` peeks without claiming the port, so the
        // scan is safe for ports the frame body will drain later.
        let next_delivery = |k: usize| ctx.fabric().port_next_delivery(self.cells[k].port);
        let pick = st.table.claim_due(
            now,
            maint,
            |k| matches!(next_delivery(k), Some(t) if t <= now),
        );
        if pick.is_none() {
            let deadline = st
                .table
                .wake_deadline(end, maint, next_delivery)
                .max(now + 1);
            let (waited, timed_out) = ctx.cond_wait_until(self.cond, self.lock, deadline);
            let report = &mut self.state().report;
            report.idle_ns_by_worker[w as usize] += waited;
            report.idle_timeouts_by_worker[w as usize] += timed_out as u64;
        }
        self.exit(ctx);
        pick
    }

    /// Worker `w`: arena `k`'s frame finished; it may start its next
    /// one `gap` later.
    pub(crate) fn release(&self, ctx: &TaskCtx, w: u32, k: usize, gap: Nanos, sessions: bool) {
        self.enter(ctx);
        let st = self.state();
        st.table.release(k, ctx.now(), gap, sessions);
        st.report.frames_by_worker[w as usize] += 1;
        st.report.frames_by_arena[k] += 1;
        self.exit(ctx);
    }

    /// A worker leaves the pool. The last worker out gets the pool's
    /// report, every claim free.
    pub(crate) fn leave(&self, ctx: &TaskCtx, last: impl FnOnce(PoolReport)) {
        self.enter(ctx);
        let st = self.state();
        st.exited += 1;
        if st.exited == self.cfg.workers {
            last(std::mem::take(&mut st.report));
        }
        self.exit(ctx);
    }

    /// Director: reap live arena `k` unless a frame holds it or it is
    /// fated; `publish` reads its final frame state while no worker can
    /// claim it. The cell's next life starts with no restore point and
    /// no overload stretch from this one, so its first claim
    /// checkpoints.
    pub(crate) fn reap(&self, ctx: &TaskCtx, k: usize, publish: impl FnOnce(&ArenaCell)) -> bool {
        self.enter(ctx);
        let reaped = self.state().table.reap(k);
        if reaped {
            let cell = &self.cells[k];
            publish(cell);
            let g = cell.guard();
            g.ring.clear();
            g.stretch = 1;
            g.overruns = 0;
        }
        self.exit(ctx);
        reaped
    }

    /// Director: capture both cells at their frame boundaries — mark
    /// them fence-pending, then wait on the pool condvar until the
    /// in-flight frames release. `false` (fences dropped, nothing
    /// captured) if either cell is not live or dies meanwhile, or
    /// `deadline` passes.
    pub(crate) fn capture(&self, ctx: &TaskCtx, pair: [usize; 2], deadline: Nanos) -> bool {
        self.enter(ctx);
        let mut got = Capture::Aborted;
        if self.state().table.request_fence(pair) {
            loop {
                got = self.state().table.try_capture(pair, ctx.now() >= deadline);
                if got != Capture::Waiting {
                    break;
                }
                ctx.cond_wait_until(self.cond, self.lock, deadline);
            }
        }
        self.exit(ctx);
        got == Capture::Captured
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    const N: usize = 3;
    const BOOT: usize = 1;
    const MAINT: Nanos = 40;
    const BOUND: Nanos = 250;

    /// The same rules restated over plain fields, as the director,
    /// the supervisor and migration wrote them before the record
    /// existed: the reference the record must match step for step.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Health {
        Healthy,
        Crashed { at: Nanos },
        Condemned { at: Nanos },
    }

    struct Plain {
        claimed: [bool; N],
        fenced: [bool; N],
        live: [bool; N],
        sessions: [bool; N],
        last_frame: [Nanos; N],
        next_due: [Nanos; N],
        claim_started: [Nanos; N],
        fate: [Health; N],
        owed: [bool; N],
        rotor: usize,
    }

    impl Plain {
        fn new() -> Plain {
            Plain {
                claimed: [false; N],
                fenced: [false; N],
                live: std::array::from_fn(|k| k < BOOT),
                sessions: [false; N],
                last_frame: [0; N],
                next_due: [0; N],
                claim_started: [0; N],
                fate: [Health::Healthy; N],
                owed: [false; N],
                rotor: 0,
            }
        }

        fn claim(&mut self, now: Nanos, input: impl Fn(usize) -> bool) -> Option<usize> {
            for i in 0..N {
                let k = (self.rotor + i) % N;
                if self.claimed[k] || self.fenced[k] || !self.live[k] || self.next_due[k] > now {
                    continue;
                }
                let maint = self.sessions[k] && now >= self.last_frame[k] + MAINT;
                if input(k) || self.owed[k] || maint {
                    self.claimed[k] = true;
                    self.claim_started[k] = now;
                    self.owed[k] = false;
                    self.rotor = (k + 1) % N;
                    return Some(k);
                }
            }
            None
        }

        fn release(&mut self, k: usize, now: Nanos, gap: Nanos, sessions: bool) {
            self.claimed[k] = false;
            if !matches!(self.fate[k], Health::Condemned { .. }) {
                self.next_due[k] = now + gap;
                self.last_frame[k] = now;
                self.sessions[k] = sessions;
            }
        }

        fn crash(&mut self, k: usize, now: Nanos) {
            self.claimed[k] = false;
            self.live[k] = false;
            self.fate[k] = Health::Crashed { at: now };
        }

        fn spawn(&mut self, k: usize, now: Nanos) {
            self.live[k] = true;
            self.next_due[k] = 0;
            self.sessions[k] = false;
            self.last_frame[k] = now;
        }

        fn reap(&mut self, k: usize) -> bool {
            if self.claimed[k] || self.fate[k] != Health::Healthy {
                return false;
            }
            self.live[k] = false;
            self.sessions[k] = false;
            self.owed[k] = false;
            true
        }

        /// Per arena: condemned now (`None`), or fenced for restore.
        fn sweep(&mut self, now: Nanos) -> Vec<(usize, Option<Fate>)> {
            let mut out = Vec::new();
            for k in 0..N {
                match self.fate[k] {
                    Health::Healthy
                        if self.claimed[k] && now.saturating_sub(self.claim_started[k]) > BOUND =>
                    {
                        self.fate[k] = Health::Condemned { at: now };
                        self.live[k] = false;
                        out.push((k, None));
                    }
                    Health::Crashed { at } if !self.claimed[k] => {
                        self.claimed[k] = true;
                        out.push((k, Some(Fate::Crashed { at })));
                    }
                    Health::Condemned { at } if !self.claimed[k] => {
                        self.claimed[k] = true;
                        out.push((k, Some(Fate::Condemned { at })));
                    }
                    _ => {}
                }
            }
            out
        }

        fn restored(&mut self, k: usize, now: Nanos, sessions: bool) {
            self.fate[k] = Health::Healthy;
            self.claimed[k] = false;
            self.live[k] = true;
            self.next_due[k] = 0;
            self.last_frame[k] = now;
            self.sessions[k] = sessions;
        }

        fn request_fence(&mut self, [src, dst]: [usize; 2]) -> bool {
            let healthy =
                |k: usize| self.live[k] && self.fate[k] == Health::Healthy && !self.fenced[k];
            if !healthy(src) || !healthy(dst) {
                return false;
            }
            self.fenced[src] = true;
            self.fenced[dst] = true;
            true
        }

        fn try_capture(&mut self, [src, dst]: [usize; 2], now: Nanos, expired: bool) -> Capture {
            let alive = |k: usize| self.live[k] && self.fate[k] == Health::Healthy;
            if !alive(src) || !alive(dst) || expired {
                self.fenced[src] = false;
                self.fenced[dst] = false;
                return Capture::Aborted;
            }
            if self.claimed[src] || self.claimed[dst] {
                return Capture::Waiting;
            }
            for k in [src, dst] {
                self.claimed[k] = true;
                self.claim_started[k] = now;
                self.fenced[k] = false;
            }
            Capture::Captured
        }

        fn end_migration(&mut self, [src, dst]: [usize; 2], moved: bool, src_sessions: bool) {
            self.claimed[src] = false;
            self.claimed[dst] = false;
            if moved {
                self.next_due[src] = 0;
                self.next_due[dst] = 0;
                self.owed[src] = true;
                self.owed[dst] = true;
                self.sessions[dst] = true;
                self.sessions[src] = src_sessions;
            }
        }
    }

    /// The director is one task: a migration or a restore batch runs
    /// to its end before it does anything else, while workers keep
    /// interleaving.
    enum Director {
        Idle,
        Capturing([usize; 2]),
        Migrating([usize; 2]),
        Restoring(Vec<usize>),
    }

    /// Who the test granted each cell's claim to.
    fn holders(workers: &[usize], director: &Director, k: usize) -> (usize, bool) {
        let by_director = match director {
            Director::Migrating(pair) => pair.contains(&k),
            Director::Restoring(fenced) => fenced.contains(&k),
            Director::Idle | Director::Capturing(_) => false,
        };
        (workers.iter().filter(|&&w| w == k).count(), by_director)
    }

    /// The record and the plain fields agree on every cell.
    fn same(t: &ClaimTable, p: &Plain) -> Result<(), TestCaseError> {
        prop_assert_eq!(t.rotor, p.rotor);
        for (k, a) in t.arenas.iter().enumerate() {
            let (live, fate) = match a.life {
                Life::Cold => (false, Health::Healthy),
                Life::Live => (true, Health::Healthy),
                Life::Fated(Fate::Crashed { at }) => (false, Health::Crashed { at }),
                Life::Fated(Fate::Condemned { at }) => (false, Health::Condemned { at }),
            };
            prop_assert_eq!((live, fate), (p.live[k], p.fate[k]), "arena {}", k);
            prop_assert_eq!(a.claim != Claim::Free, p.claimed[k], "arena {}", k);
            if let Claim::Worker { since } = a.claim {
                prop_assert_eq!(since, p.claim_started[k], "arena {}", k);
            }
            prop_assert_eq!(a.fence, p.fenced[k], "arena {}", k);
            prop_assert_eq!(a.sessions, p.sessions[k], "arena {}", k);
            prop_assert_eq!(a.last_frame, p.last_frame[k], "arena {}", k);
            prop_assert_eq!(a.next_due, p.next_due[k], "arena {}", k);
            prop_assert_eq!(a.owed, p.owed[k], "arena {}", k);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any interleaving of worker claims, releases and crashes with
        /// the director's spawns, reaps, supervision sweeps, restores
        /// and migrations leaves the record where the plain-field rules
        /// leave it, and invariants 1–5 of the module docs hold after
        /// every step.
        #[test]
        fn the_schedule_record_keeps_its_invariants_under_any_interleaving(
            steps in prop::collection::vec(
                (0u8..10, any::<u8>(), any::<u8>(), 0u64..120, any::<u8>()),
                0..160,
            ),
        ) {
            let mut t = ClaimTable::new(N, BOOT);
            let mut p = Plain::new();
            let mut workers: Vec<usize> = Vec::new();
            let mut director = Director::Idle;
            // The director's own mirror of liveness (spawn sets it,
            // reap clears it; crash and restore leave it alone).
            let mut mirror: [bool; N] = std::array::from_fn(|k| k < BOOT);
            let mut now: Nanos = 0;
            for (kind, a, b, dt, bits) in steps {
                now += dt;
                let before = t.arenas.clone();
                // The sections that broadcast on the pool condvar: every
                // one that frees a claim or may make an arena
                // schedulable.
                let mut woke = false;
                let bit = |i: u32| bits >> i & 1 == 1;
                match kind {
                    0..=2 => {
                        let input = |k: usize| bit(k as u32);
                        let got = t.claim_due(now, MAINT, input);
                        prop_assert_eq!(got, p.claim(now, input));
                        if let Some(k) = got {
                            // Invariants 2 and 3: only a free, live,
                            // unfenced cell is claimed.
                            let b = before[k];
                            prop_assert!(!b.fence, "{:?}", b);
                            prop_assert!(b.life == Life::Live && b.claim == Claim::Free, "{:?}", b);
                            workers.push(k);
                        }
                    }
                    3 | 4 if !workers.is_empty() => {
                        let k = workers.remove(a as usize % workers.len());
                        if kind == 3 {
                            let gap = if bit(0) { 90 } else { 0 };
                            t.release(k, now, gap, bit(1));
                            woke = true;
                            p.release(k, now, gap, bit(1));
                        } else {
                            t.crash(k, now);
                            woke = true;
                            p.crash(k, now);
                        }
                    }
                    3 | 4 => {}
                    _ => match std::mem::replace(&mut director, Director::Idle) {
                        Director::Idle => match a % 4 {
                            0 => {
                                if let Some(k) = mirror.iter().position(|&l| !l) {
                                    t.spawn(k, now);
                                    woke = true;
                                    p.spawn(k, now);
                                    mirror[k] = true;
                                }
                            }
                            1 => {
                                let k = b as usize % N;
                                if mirror[k] {
                                    let reaped = t.reap(k);
                                    prop_assert_eq!(reaped, p.reap(k));
                                    if reaped {
                                        // Invariant 4.
                                        prop_assert!(before[k].claim == Claim::Free);
                                        prop_assert!(before[k].life == Life::Live);
                                        mirror[k] = false;
                                    }
                                }
                            }
                            2 => {
                                let swept: Vec<(usize, Option<Fate>)> = (0..N)
                                    .filter_map(|k| {
                                        if t.condemn(k, now, BOUND) {
                                            Some((k, None))
                                        } else {
                                            t.fence_fated(k).map(|f| (k, Some(f)))
                                        }
                                    })
                                    .collect();
                                prop_assert_eq!(&swept, &p.sweep(now));
                                let mut fenced = Vec::new();
                                for (k, f) in swept {
                                    if f.is_some() {
                                        // Invariant 5: no claim was
                                        // held when the restore fence
                                        // was taken.
                                        prop_assert!(before[k].claim == Claim::Free);
                                        fenced.push(k);
                                    }
                                }
                                if !fenced.is_empty() {
                                    director = Director::Restoring(fenced);
                                }
                            }
                            _ => {
                                let src = b as usize % N;
                                let dst = (src + 1 + (a as usize / 4) % (N - 1)) % N;
                                if mirror[src] && mirror[dst] {
                                    let pair = [src, dst];
                                    let fenced = t.request_fence(pair);
                                    prop_assert_eq!(fenced, p.request_fence(pair));
                                    if fenced {
                                        // Invariant 4: fences go on
                                        // live cells only.
                                        prop_assert!(pair.iter().all(|&k| before[k].life == Life::Live));
                                        director = Director::Capturing(pair);
                                    }
                                }
                            }
                        },
                        Director::Capturing(pair) => {
                            let expired = bits % 8 == 0;
                            let got = t.try_capture(pair, expired);
                            prop_assert_eq!(got, p.try_capture(pair, now, expired));
                            match got {
                                Capture::Waiting => director = Director::Capturing(pair),
                                Capture::Aborted => woke = true,
                                Capture::Captured => {
                                    // Invariant 4: captured cells were
                                    // free and live.
                                    for k in pair {
                                        prop_assert!(before[k].claim == Claim::Free);
                                        prop_assert!(before[k].life == Life::Live);
                                    }
                                    director = Director::Migrating(pair);
                                }
                            }
                        }
                        Director::Migrating(pair) => {
                            t.end_migration(pair, bit(0), bit(1));
                            woke = true;
                            p.end_migration(pair, bit(0), bit(1));
                        }
                        Director::Restoring(mut fenced) => {
                            let k = fenced.remove(0);
                            t.restored(k, now, bit(0));
                            woke = true;
                            p.restored(k, now, bit(0));
                            if !fenced.is_empty() {
                                director = Director::Restoring(fenced);
                            }
                        }
                    },
                }
                prop_assert_eq!(std::mem::take(&mut t.wake), woke);
                same(&t, &p)?;
                for (k, a) in t.arenas.iter().enumerate() {
                    // Invariant 1: one claimant at most, and the record
                    // names the one the test granted the claim to.
                    let (by_workers, by_director) = holders(&workers, &director, k);
                    prop_assert!(by_workers + by_director as usize <= 1, "arena {} {:?}", k, a);
                    let want = match (by_workers, by_director) {
                        (0, false) => a.claim == Claim::Free,
                        (1, false) => matches!(a.claim, Claim::Worker { .. }),
                        _ => a.claim == Claim::Director,
                    };
                    prop_assert!(want, "arena {} {:?}", k, a);
                    // Invariant 3: a cell that is not live is never
                    // schedulable.
                    if a.life != Life::Live {
                        prop_assert!(!a.schedulable(), "arena {} {:?}", k, a);
                    }
                }
            }
        }
    }
}
