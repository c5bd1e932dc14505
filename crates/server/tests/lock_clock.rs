//! A region-locked move reads the clock once, at its end, and books as
//! `Lock` exactly the time it spent blocked on region and parent locks.
//! The moves run on the real fabric behind a wrapper that counts every
//! `now()` the move makes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

use parquake_areanode::LeafSet;
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::real::RealFabric;
use parquake_fabric::{
    CondId, Fabric, LockId, LockWitness, Message, Nanos, PortId, TaskBody, TaskCtx, TaskId,
};
use parquake_math::{Pcg32, Vec3};
use parquake_metrics::{Bucket, ThreadStats};
use parquake_protocol::{Buttons, MoveCmd};
use parquake_server::exec::{execute_move_at, ExecEnv, RegionLocks, LOCK_COVERAGE_MARGIN};
use parquake_server::{CostModel, LockPolicy};
use parquake_sim::movement::move_bounding_box;
use parquake_sim::GameWorld;

/// The real fabric, counting the `now()` calls made through it.
struct CountingFabric {
    inner: Arc<dyn Fabric>,
    nows: AtomicU64,
}

impl Fabric for CountingFabric {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
    fn alloc_lock(&self) -> LockId {
        self.inner.alloc_lock()
    }
    fn alloc_cond(&self) -> CondId {
        self.inner.alloc_cond()
    }
    fn alloc_port(&self) -> PortId {
        self.inner.alloc_port()
    }
    fn alloc_bounded_port(&self, capacity: usize) -> PortId {
        self.inner.alloc_bounded_port(capacity)
    }
    fn port_dropped(&self, port: PortId) -> u64 {
        self.inner.port_dropped(port)
    }
    fn port_pending(&self, port: PortId) -> usize {
        self.inner.port_pending(port)
    }
    fn port_next_delivery(&self, port: PortId) -> Option<Nanos> {
        self.inner.port_next_delivery(port)
    }
    fn wake_on_delivery(&self, port: PortId, lock: LockId, cond: CondId) {
        self.inner.wake_on_delivery(port, lock, cond)
    }
    fn spawn(&self, name: &str, server_cpu: Option<u32>, body: TaskBody) -> TaskId {
        self.inner.spawn(name, server_cpu, body)
    }
    fn run(&self) {
        self.inner.run()
    }
    fn now(&self, task: TaskId) -> Nanos {
        self.nows.fetch_add(1, Ordering::Relaxed);
        self.inner.now(task)
    }
    fn charge(&self, task: TaskId, ns: Nanos) -> Nanos {
        self.inner.charge(task, ns)
    }
    fn lock(&self, task: TaskId, lock: LockId) -> Nanos {
        self.inner.lock(task, lock)
    }
    fn unlock(&self, task: TaskId, lock: LockId) {
        self.inner.unlock(task, lock)
    }
    fn cond_wait(&self, task: TaskId, cond: CondId, lock: LockId) -> Nanos {
        self.inner.cond_wait(task, cond, lock)
    }
    fn cond_wait_until(
        &self,
        task: TaskId,
        cond: CondId,
        lock: LockId,
        deadline: Nanos,
    ) -> (Nanos, bool) {
        self.inner.cond_wait_until(task, cond, lock, deadline)
    }
    fn cond_signal(&self, task: TaskId, cond: CondId) {
        self.inner.cond_signal(task, cond)
    }
    fn cond_broadcast(&self, task: TaskId, cond: CondId) {
        self.inner.cond_broadcast(task, cond)
    }
    fn attach_witness(&self, w: Arc<LockWitness>) {
        self.inner.attach_witness(w)
    }
    fn witness(&self) -> Option<Arc<LockWitness>> {
        self.inner.witness()
    }
    fn send(&self, task: TaskId, from: PortId, to: PortId, payload: Vec<u8>) {
        self.inner.send(task, from, to, payload)
    }
    fn try_recv(&self, task: TaskId, port: PortId) -> Option<Message> {
        self.inner.try_recv(task, port)
    }
    fn wait_readable(&self, task: TaskId, port: PortId, deadline: Option<Nanos>) -> bool {
        self.inner.wait_readable(task, port, deadline)
    }
    fn sleep_until(&self, task: TaskId, t: Nanos) {
        self.inner.sleep_until(task, t)
    }
}

/// What one measured move left behind.
struct Measured {
    stats: ThreadStats,
    nows: u64,
}

fn world(players: u16) -> Arc<GameWorld> {
    let map = Arc::new(MapGenConfig::small_arena(33).generate());
    let w = Arc::new(GameWorld::new(map, 4, players));
    w.links.set_checking(false);
    w.store.set_checking(false);
    let mut rng = Pcg32::seeded(8);
    for i in 0..players {
        w.spawn_player(i, i as u32, &mut rng);
    }
    w
}

fn walk() -> MoveCmd {
    MoveCmd {
        forward: 200.0,
        ..MoveCmd::idle(1, 30)
    }
}

fn with_buttons(buttons: u8) -> MoveCmd {
    MoveCmd {
        buttons: Buttons(buttons),
        ..walk()
    }
}

/// Run slot 0's `cmd` under `policy` on one task. With `hold` set, a
/// second task first takes the lowest leaf of the move's lock plan and
/// keeps it for that long after the move has started.
fn measure(policy: LockPolicy, cmd: MoveCmd, hold: Option<Duration>) -> Measured {
    let w = world(8);
    let counting = Arc::new(CountingFabric {
        inner: RealFabric::new_arc(),
        nows: AtomicU64::new(0),
    });
    let fabric: Arc<dyn Fabric> = counting.clone();
    let locks = Arc::new(RegionLocks::new(&fabric, &w.tree, 8));
    let out = Arc::new(Mutex::new(None));
    let started = Arc::new(Barrier::new(if hold.is_some() { 2 } else { 1 }));

    if let Some(hold) = hold {
        let me = w.store.snapshot(w.player_slot(0));
        let region = move_bounding_box(&me.abs_box(), me.vel, cmd.msec)
            .inflated(Vec3::splat(LOCK_COVERAGE_MARGIN));
        let mut plan = LeafSet::new();
        w.tree.leaves_overlapping(&region, &mut plan);
        let leaf = plan.ids()[0];
        let (w, locks, started, fabric) =
            (w.clone(), locks.clone(), started.clone(), fabric.clone());
        counting.inner.spawn(
            "holder",
            None,
            Box::new(move |real: &TaskCtx| {
                let ctx = TaskCtx::new(real.id(), fabric);
                locks.acquire_leaf(&ctx, &w.links, 1, leaf);
                started.wait();
                std::thread::sleep(hold);
                locks.release_leaf(&ctx, &w.links, 1, leaf);
            }),
        );
    }

    let o = out.clone();
    let c = counting.clone();
    counting.inner.spawn(
        "mover",
        None,
        Box::new(move |real: &TaskCtx| {
            let ctx = TaskCtx::new(real.id(), fabric);
            let cost = CostModel::default();
            let env = ExecEnv {
                world: &w,
                locks: &locks,
                cost: &cost,
                policy: Some(policy),
                commit_log: None,
            };
            let mut stats = ThreadStats::new();
            let mut mask = 0u64;
            started.wait();
            let t_start = real.now();
            let before = c.nows.load(Ordering::Relaxed);
            execute_move_at(&env, &ctx, t_start, 0, 0, &cmd, &mut stats, &mut mask);
            let nows = c.nows.load(Ordering::Relaxed) - before;
            *o.lock().unwrap() = Some(Measured { stats, nows });
        }),
    );
    counting.run();
    let measured = out.lock().unwrap().take().expect("the move ran");
    measured
}

const POLICIES: [LockPolicy; 3] = [
    LockPolicy::Baseline,
    LockPolicy::Optimized,
    LockPolicy::OnePass,
];

#[test]
fn a_locked_move_reads_the_clock_once() {
    for policy in POLICIES {
        for (what, cmd) in [
            ("walk", walk()),
            ("attack", with_buttons(Buttons::ATTACK)),
            ("throw", with_buttons(Buttons::THROW)),
        ] {
            let m = measure(policy, cmd, None);
            assert_eq!(m.stats.requests, 1, "{policy:?} {what}");
            assert!(m.stats.lock.leaf_ops > 0, "{policy:?} {what} took no leaf");
            assert_eq!(m.nows, 1, "{policy:?} {what}: now() calls");
        }
    }
}

#[test]
fn an_uncontended_move_books_no_lock_time() {
    for policy in POLICIES {
        let m = measure(policy, with_buttons(Buttons::ATTACK), None);
        assert_eq!(m.stats.breakdown.get(Bucket::Lock), 0, "{policy:?}");
        assert_eq!(m.stats.lock.leaf_ns, 0, "{policy:?}");
        assert_eq!(m.stats.lock.parent_ns, 0, "{policy:?}");
        assert!(m.stats.breakdown.get(Bucket::Exec) > 0, "{policy:?}");
    }
}

#[test]
fn a_contended_move_books_its_blocked_time_as_lock() {
    let hold = Duration::from_millis(20);
    for policy in POLICIES {
        // The holder takes the leaf before the mover starts; a mover
        // descheduled for the whole hold finds it free, so try again.
        let m = (0..5)
            .map(|_| measure(policy, walk(), Some(hold)))
            .find(|m| m.stats.lock.leaf_ns > 0)
            .unwrap_or_else(|| panic!("{policy:?}: the move never blocked on the held leaf"));
        let lock = &m.stats.lock;
        assert_eq!(
            m.stats.breakdown.get(Bucket::Lock),
            lock.leaf_ns + lock.parent_ns,
            "{policy:?}"
        );
        assert_eq!(m.nows, 1, "{policy:?}: now() calls");
    }
}
