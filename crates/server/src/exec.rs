//! Move execution under a region-locking policy (paper §2.3 + §3.3).
//!
//! This is the heart of the parallel server: for each move command it
//! computes the *bounding box of the move*, acquires the areanode
//! leaves overlapping it (in ascending id order — deadlock-free),
//! gathers candidate objects from the overlapped nodes' object lists
//! (short parent-node list locks), runs the motion simulation, relinks
//! the mover, and releases everything. Long-range actions run as a
//! second locking phase whose region depends on the policy:
//! the whole map under `Baseline`, a directional beam or expanded box
//! under `Optimized` (§4.3). What a hitscan *queries* is its line of
//! fire up to the wall, under every policy.
//!
//! The same executor drives the sequential server with `policy: None`
//! — no lock plan is computed and no lock calls are made, exactly like
//! the original single-threaded code path.

use parquake_areanode::{LeafSet, LinkTable, NodeId};
use parquake_fabric::{LockId, Nanos, TaskCtx};
use parquake_math::angles::Angles;
use parquake_math::{Aabb, Vec3};
use parquake_metrics::witness::LockClass;
use parquake_metrics::{Bucket, ThreadStats};
use parquake_protocol::{Buttons, GameEvent, GameEventKind, MoveCmd};
use parquake_sim::entity::EntityId;
use parquake_sim::interact::{
    directional_beam_box, hitscan_along, launch_projectile, Beam, EXPANDED_LOCK_MARGIN,
    HITSCAN_RANGE,
};
use parquake_sim::movement::{move_bounding_box, run_move, TouchEvent};
use parquake_sim::{GameWorld, WorkCounters};

use crate::cost::CostModel;
use crate::LockPolicy;

/// Extra margin added to every lock region so that any object
/// *intersecting* the query region is *fully covered* by the locked
/// leaves (the paper's "slightly larger region than necessary"). Full
/// coverage makes concurrent claims on one object impossible: every
/// thread that can reach the object must lock all leaves it overlaps,
/// so any two such threads share a leaf lock.
pub const LOCK_COVERAGE_MARGIN: f32 = 72.0;

/// Fabric lock ids and leaf-index mapping for one server instance.
///
/// Every lock of the region-locking protocol is acquired through the
/// `acquire_*`/`release_*` methods below — the **ordered-acquire API**.
/// The methods pair the fabric lock call with the `LinkTable` owner
/// bookkeeping so neither can be skipped, and they are the only lines
/// in `parquake-server` allowed to touch `ctx.lock`/`ctx.unlock`
/// directly (enforced by `parquake-lockcheck`; the `lockcheck:
/// acquire-site` pragmas below mark the sanctioned sites). Leaf locks
/// must be taken in ascending node-id order; the runtime witness
/// (`parquake-fabric::witness`) checks that ordering on every run in
/// which it is attached.
pub struct RegionLocks {
    /// One fabric lock per areanode (leaves = region locks, interior
    /// nodes = object-list locks).
    node_locks: Vec<LockId>,
    /// The global state buffer lock.
    global_lock: LockId,
    /// Per-player reply buffer locks.
    client_locks: Vec<LockId>,
    /// Dense leaf index per node id (u32::MAX for interior nodes).
    leaf_index: Vec<u32>,
}

impl RegionLocks {
    pub fn new(
        fabric: &std::sync::Arc<dyn parquake_fabric::Fabric>,
        tree: &parquake_areanode::AreanodeTree,
        slots: usize,
    ) -> RegionLocks {
        let node_locks: Vec<LockId> = (0..tree.node_count())
            .map(|_| fabric.alloc_lock())
            .collect();
        let mut leaf_index = vec![u32::MAX; tree.node_count()];
        for (i, &leaf) in tree.all_leaves().iter().enumerate() {
            leaf_index[leaf as usize] = i as u32;
        }
        let locks = RegionLocks {
            node_locks,
            global_lock: fabric.alloc_lock(),
            client_locks: (0..slots).map(|_| fabric.alloc_lock()).collect(),
            leaf_index,
        };
        // Tell the lock-order witness (when one is attached) what each
        // lock is. Leaf ranks are node ids: plans acquire leaves in
        // ascending node-id order.
        if let Some(w) = fabric.witness() {
            for (node, &lock) in locks.node_locks.iter().enumerate() {
                let class = if locks.leaf_index[node] != u32::MAX {
                    LockClass::Leaf { rank: node as u32 }
                } else {
                    LockClass::Parent { node: node as u32 }
                };
                w.classify(lock, class);
            }
            w.classify(locks.global_lock, LockClass::Global);
            for (slot, &lock) in locks.client_locks.iter().enumerate() {
                w.classify(lock, LockClass::Client { slot: slot as u32 });
            }
        }
        locks
    }

    #[inline]
    fn node_lock(&self, node: NodeId) -> LockId {
        self.node_locks[node as usize]
    }

    /// Bit for a leaf in the per-frame usage mask (trees are ≤ 64
    /// leaves for every configuration the paper sweeps).
    #[inline]
    pub fn leaf_bit(&self, node: NodeId) -> u64 {
        let idx = self.leaf_index[node as usize];
        debug_assert_ne!(idx, u32::MAX, "node {node} is not a leaf");
        if idx < 64 {
            1u64 << idx
        } else {
            0
        }
    }

    /// Acquire one leaf lock of an ordered plan (callers iterate plans
    /// in ascending node-id order). Returns the blocked time.
    // lockcheck: acquire-site
    #[inline]
    pub fn acquire_leaf(&self, ctx: &TaskCtx, links: &LinkTable, task: u32, leaf: NodeId) -> Nanos {
        let waited = ctx.lock(self.node_lock(leaf));
        links.note_locked(leaf, task);
        waited
    }

    /// Release one leaf lock of a plan.
    // lockcheck: acquire-site
    #[inline]
    pub fn release_leaf(&self, ctx: &TaskCtx, links: &LinkTable, task: u32, leaf: NodeId) {
        links.note_unlocked(leaf, task);
        ctx.unlock(self.node_lock(leaf));
    }

    /// Acquire an interior ("parent") node's object-list lock for a
    /// short read/write section. Returns the blocked time.
    // lockcheck: acquire-site
    #[inline]
    pub fn acquire_parent(
        &self,
        ctx: &TaskCtx,
        links: &LinkTable,
        task: u32,
        node: NodeId,
    ) -> Nanos {
        let waited = ctx.lock(self.node_lock(node));
        links.note_locked(node, task);
        waited
    }

    /// Release a parent node's object-list lock.
    // lockcheck: acquire-site
    #[inline]
    pub fn release_parent(&self, ctx: &TaskCtx, links: &LinkTable, task: u32, node: NodeId) {
        links.note_unlocked(node, task);
        ctx.unlock(self.node_lock(node));
    }

    /// Acquire the global state-buffer lock.
    // lockcheck: acquire-site
    #[inline]
    pub fn acquire_global(&self, ctx: &TaskCtx) {
        ctx.lock(self.global_lock);
    }

    /// Release the global state-buffer lock.
    // lockcheck: acquire-site
    #[inline]
    pub fn release_global(&self, ctx: &TaskCtx) {
        ctx.unlock(self.global_lock)
    }

    /// Acquire one client's reply-buffer lock.
    // lockcheck: acquire-site
    #[inline]
    pub fn acquire_client(&self, ctx: &TaskCtx, slot: usize) {
        ctx.lock(self.client_locks[slot]);
    }

    /// Release a client's reply-buffer lock.
    // lockcheck: acquire-site
    #[inline]
    pub fn release_client(&self, ctx: &TaskCtx, slot: usize) {
        ctx.unlock(self.client_locks[slot])
    }
}

/// Everything `execute_move` needs from its server.
pub struct ExecEnv<'a> {
    pub world: &'a GameWorld,
    pub locks: &'a RegionLocks,
    pub cost: &'a CostModel,
    /// `None` = sequential execution (no locking at all).
    pub policy: Option<LockPolicy>,
    /// Schedule-exploration hook: when set, every move is recorded at
    /// its serialization point (just after its phase-A region locks are
    /// all held). Conflicting short-range moves overlap in at least one
    /// held leaf, so the recorded order is a valid linearization that a
    /// sequential replay can follow. `None` in production servers.
    pub commit_log: Option<&'a CommitLog>,
}

/// Order in which moves passed their serialization point, recorded by
/// the schedule-exploration suite (see [`ExecEnv::commit_log`]).
#[derive(Default)]
pub struct CommitLog {
    // Host-level observation buffer, not part of the simulated locking
    // protocol (tasks are serialized on the virtual fabric anyway).
    // The waivers sit on the acquisition sites in `note`/`take` below.
    entries: std::sync::Mutex<Vec<CommitEntry>>,
}

/// One recorded serialization point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CommitEntry {
    /// Server task that executed the move.
    pub task: u32,
    /// Player slot the move belongs to.
    pub slot: u16,
    /// The move's sequence number within its slot's stream.
    pub seq: u32,
}

impl CommitLog {
    pub fn new() -> CommitLog {
        CommitLog::default()
    }

    fn note(&self, task: u32, slot: u16, seq: u32) {
        // lockcheck: allow(raw-sync: host-level observation buffer for schedule exploration)
        let mut e = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        e.push(CommitEntry { task, slot, seq });
    }

    /// Drain the recorded order.
    pub fn take(&self) -> Vec<CommitEntry> {
        // lockcheck: allow(raw-sync: host-level observation buffer for schedule exploration)
        let mut e = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        std::mem::take(&mut *e)
    }
}

/// The buffers one move fills and empties again — tree nodes visited,
/// a node's link entries, the candidates gathered, the touches of the
/// motion — kept per thread so a move allocates none of them. Phase B
/// reuses phase A's: those candidates are released before it starts.
#[derive(Default)]
struct MoveScratch {
    nodes: Vec<NodeId>,
    raw: Vec<u32>,
    candidates: Vec<EntityId>,
    touched: Vec<TouchEvent>,
}

thread_local! {
    static SCRATCH: std::cell::Cell<MoveScratch> = std::cell::Cell::default();
}

/// Execute one move command for the player in `slot`. Returns the
/// broadcastable events it produced (the caller flushes them to the
/// global buffer) and updates `stats` and the per-frame leaf usage
/// mask. `task` identifies the server thread for the protocol checkers.
pub fn execute_move(
    env: &ExecEnv<'_>,
    ctx: &TaskCtx,
    task: u32,
    slot: u16,
    cmd: &MoveCmd,
    stats: &mut ThreadStats,
    frame_leaf_mask: &mut u64,
) -> ExecOutcome {
    execute_move_at(env, ctx, ctx.now(), task, slot, cmd, stats, frame_leaf_mask)
}

/// [`execute_move`] for a caller that has just read the clock: the
/// request loop's receive section ends at `t_start` and the move's
/// `Exec`/`Lock` time begins there, with no second read between them.
/// `t_start` is also the move's game time (item respawn and projectile
/// expiry are dated from it).
#[allow(clippy::too_many_arguments)]
pub fn execute_move_at(
    env: &ExecEnv<'_>,
    ctx: &TaskCtx,
    t_start: Nanos,
    task: u32,
    slot: u16,
    cmd: &MoveCmd,
    stats: &mut ThreadStats,
    frame_leaf_mask: &mut u64,
) -> ExecOutcome {
    let mover = env.world.player_slot(slot);
    let me = env.world.store.snapshot(mover);
    if !me.active {
        return ExecOutcome::default();
    }
    let mut lock_ns: Nanos = 0;
    let mut outcome = ExecOutcome::default();
    let mut request_leaf_events = 0u64;
    let mut request_distinct = LeafSet::new();

    ctx.charge(env.cost.move_base);
    let buttons = Buttons(cmd.buttons.0);
    let one_pass = env.policy == Some(LockPolicy::OnePass);

    // ---- Phase A: short-range motion -------------------------------
    let move_bbox = move_bounding_box(&me.abs_box(), me.vel, cmd.msec);
    let mut work = WorkCounters::new();

    // One-pass locking (paper §5.1 future work): pre-compute the union
    // of the motion region and a conservatively inflated action region
    // and acquire it once; no leaf is re-locked within the request.
    let initial_region = if one_pass && buttons.long_range() {
        move_bbox.union(&one_pass_action_region(&me, cmd, buttons))
    } else {
        move_bbox
    };

    let mut plan = LeafSet::new();
    lock_region(
        env,
        ctx,
        task,
        &initial_region,
        &mut plan,
        &mut lock_ns,
        stats,
        frame_leaf_mask,
        &mut request_leaf_events,
        &mut request_distinct,
    );
    if let Some(log) = env.commit_log {
        log.note(task, slot, cmd.seq);
    }

    // Taken, not borrowed: a panicking move simply leaves the thread a
    // fresh set.
    let mut scratch = SCRATCH.take();
    let MoveScratch {
        nodes,
        raw,
        candidates,
        touched,
    } = &mut scratch;
    gather_candidates(
        env,
        ctx,
        task,
        &move_bbox,
        &plan,
        nodes,
        raw,
        candidates,
        &mut work,
        &mut lock_ns,
        stats,
    );

    // Claim everything we may mutate, run the motion, relink, release.
    if env.policy.is_some() {
        let t0 = ctx.now();
        ctx.charge(env.cost.claim_op * (candidates.len() as u64 + 1));
        lock_ns += ctx.now() - t0;
    }
    claim_all(env, task, mover, candidates);
    touched.clear();
    run_move(
        env.world, task, mover, cmd, candidates, t_start, touched, &mut work,
    );
    relink_locked(env, ctx, task, mover, &plan, &mut lock_ns, stats);
    release_all(env, task, mover, candidates);
    if !one_pass {
        unlock_region(env, ctx, task, &plan, &mut lock_ns);
    }

    for t in touched.iter() {
        match *t {
            TouchEvent::Pickup { item } => outcome.events.push(GameEvent {
                kind: GameEventKind::Pickup,
                a: mover,
                b: item,
                pos: env.world.store.snapshot(item).pos,
            }),
            TouchEvent::Teleport { dest } => outcome.events.push(GameEvent {
                kind: GameEventKind::Teleport,
                a: mover,
                b: 0,
                pos: dest,
            }),
            TouchEvent::PlayerContact { .. } => {}
        }
    }

    // ---- Phase B: long-range action ---------------------------------
    if buttons.long_range() {
        let after = env.world.store.snapshot(mover);
        let lock = action_region_for(env, &after, buttons);
        // Under one-pass locking the region is already covered by the
        // initial acquisition.
        let mut action_plan = LeafSet::new();
        if one_pass {
            action_plan.merge(&plan);
        } else {
            lock_region(
                env,
                ctx,
                task,
                &lock,
                &mut action_plan,
                &mut lock_ns,
                stats,
                frame_leaf_mask,
                &mut request_leaf_events,
                &mut request_distinct,
            );
        }
        // The shooter may have been hit while it waited for the locks;
        // from here on they cover it, so nobody else can touch it. A
        // live shooter's line of fire reads only the static map and the
        // shooter: trace it and query up to the wall, whatever region
        // the policy had to lock.
        let me = if env.policy.is_some() {
            env.world.store.snapshot(mover)
        } else {
            after
        };
        let beam = (buttons.has(Buttons::ATTACK) && me.is_live_player())
            .then(|| Beam::trace(env.world, &me, &mut work));
        let region = action_query(&lock, beam.as_ref());
        gather_candidates(
            env,
            ctx,
            task,
            &region,
            &action_plan,
            nodes,
            raw,
            candidates,
            &mut work,
            &mut lock_ns,
            stats,
        );
        if env.policy.is_some() {
            let t0 = ctx.now();
            ctx.charge(env.cost.claim_op * (candidates.len() as u64 + 1));
            lock_ns += ctx.now() - t0;
        }
        claim_all(env, task, mover, candidates);
        if let Some(beam) = &beam {
            if let Some(hit) = hitscan_along(env.world, task, mover, beam, candidates, &mut work) {
                outcome.events.push(GameEvent {
                    kind: GameEventKind::Hit,
                    a: mover,
                    b: hit.victim,
                    pos: hit.pos,
                });
            }
        }
        if buttons.has(Buttons::THROW) {
            // The projectile slot is private to its shooter, so the
            // claim can never conflict; it must still precede mutation.
            let slot_ent = env.world.projectile_slot(slot);
            env.world.store.claim(slot_ent, task);
            if let Some(proj) = launch_projectile(env.world, task, slot, t_start, &mut work) {
                relink_locked(env, ctx, task, proj, &action_plan, &mut lock_ns, stats);
            }
            env.world.store.release(slot_ent, task);
        }
        release_all(env, task, mover, candidates);
        unlock_region(env, ctx, task, &action_plan, &mut lock_ns);
    } else if one_pass {
        unlock_region(env, ctx, task, &plan, &mut lock_ns);
    }

    SCRATCH.set(scratch);

    // ---- Accounting --------------------------------------------------
    ctx.charge(env.cost.work_ns(&work));
    let total = ctx.now() - t_start;
    stats.breakdown.add(Bucket::Lock, lock_ns);
    stats
        .breakdown
        .add(Bucket::Exec, total.saturating_sub(lock_ns));
    stats.requests += 1;
    if env.policy.is_some() {
        stats.lock.requests += 1;
        stats.lock.distinct_leaves += request_distinct.len() as u64;
        stats.lock.leaf_lock_events += request_leaf_events;
        stats.lock.leaf_capacity += env.world.tree.leaf_count() as u64;
    }
    outcome
}

/// Result of one move execution.
#[derive(Default)]
pub struct ExecOutcome {
    /// Broadcastable events produced by this move.
    pub events: Vec<GameEvent>,
}

/// The lock region for a long-range action (paper §4.3): the whole map
/// under `Baseline`; under every other policy, and in the lock-free
/// frame, the directional beam box (hitscan) or the expanded box
/// (thrown projectile, completed in the world phase). What the action
/// queries inside it is [`action_query`].
fn action_region_for(env: &ExecEnv<'_>, me: &parquake_sim::Entity, buttons: Buttons) -> Aabb {
    if env.policy == Some(LockPolicy::Baseline) {
        env.world.map.bounds
    } else if buttons.has(Buttons::ATTACK) {
        directional_beam_box(me.eye(), Angles::new(me.pitch, me.yaw, 0.0), HITSCAN_RANGE)
    } else {
        me.abs_box().inflated(Vec3::splat(EXPANDED_LOCK_MARGIN))
    }
}

/// What a long-range action queries once the leaves of `lock` are held:
/// a live shooter's line of fire up to the wall when it lies inside
/// `lock`, else `lock` itself. Either way every object the query can
/// reach lies wholly inside the locked leaves ([`LOCK_COVERAGE_MARGIN`]
/// covers what intersects `lock`, not what lies beyond it). The line of
/// fire leaves `lock` only when the shooter moved after `lock` was
/// computed — a client whose moves run on two threads at once, a
/// dynamic-assignment port switch.
pub fn action_query(lock: &Aabb, beam: Option<&Beam>) -> Aabb {
    match beam.map(Beam::reach_box) {
        Some(reach) if lock.contains(&reach) => reach,
        _ => *lock,
    }
}

/// Pre-motion action region for the one-pass policy: the optimized
/// region computed from the *command's* view angles at the pre-move
/// position, inflated by the maximum travel distance so it still covers
/// the post-move region.
fn one_pass_action_region(me: &parquake_sim::Entity, cmd: &MoveCmd, buttons: Buttons) -> Aabb {
    let slack = parquake_sim::movement::max_move_distance(cmd.msec) + 8.0;
    let region = if buttons.has(Buttons::ATTACK) {
        directional_beam_box(
            me.eye(),
            Angles::new(cmd.pitch, cmd.yaw, 0.0),
            HITSCAN_RANGE,
        )
    } else {
        me.abs_box().inflated(Vec3::splat(EXPANDED_LOCK_MARGIN))
    };
    region.inflated(Vec3::splat(slack))
}

/// Compute and acquire the ordered leaf lock plan for `region`.
#[allow(clippy::too_many_arguments)]
fn lock_region(
    env: &ExecEnv<'_>,
    ctx: &TaskCtx,
    task: u32,
    region: &Aabb,
    plan: &mut LeafSet,
    lock_ns: &mut Nanos,
    stats: &mut ThreadStats,
    frame_leaf_mask: &mut u64,
    request_leaf_events: &mut u64,
    request_distinct: &mut LeafSet,
) {
    let Some(_policy) = env.policy else {
        plan.clear();
        return;
    };
    let t0 = ctx.now();
    // Region determination is charged to locking (paper §4.1: "locking
    // is performed in recursive procedures that traverse the areanode
    // tree and the server needs to determine which regions to lock").
    let covered = region.inflated(Vec3::splat(LOCK_COVERAGE_MARGIN));
    let visits = env.world.tree.leaves_overlapping(&covered, plan);
    ctx.charge(visits as u64 * env.cost.areanode_visit);
    for &leaf in plan.ids() {
        ctx.charge(env.cost.lock_op);
        let waited = env.locks.acquire_leaf(ctx, &env.world.links, task, leaf);
        stats.lock.leaf_ns += waited;
        stats.lock.leaf_ops += 1;
        *frame_leaf_mask |= env.locks.leaf_bit(leaf);
        *request_leaf_events += 1;
        request_distinct.insert(leaf);
    }
    *lock_ns += ctx.now() - t0;
}

/// Release a leaf lock plan (reverse order, though any order is safe).
fn unlock_region(env: &ExecEnv<'_>, ctx: &TaskCtx, task: u32, plan: &LeafSet, lock_ns: &mut Nanos) {
    if env.policy.is_none() {
        return;
    }
    let t0 = ctx.now();
    for &leaf in plan.ids().iter().rev() {
        ctx.charge(env.cost.unlock_op);
        env.locks.release_leaf(ctx, &env.world.links, task, leaf);
    }
    *lock_ns += ctx.now() - t0;
}

/// Walk the areanode tree collecting candidate entities whose boxes
/// intersect `query` (paper §2.3 step 2). Leaf lists are read under the
/// already-held leaf locks; interior ("parent") lists under short
/// per-node locks.
#[allow(clippy::too_many_arguments)]
fn gather_candidates(
    env: &ExecEnv<'_>,
    ctx: &TaskCtx,
    task: u32,
    query: &Aabb,
    plan: &LeafSet,
    nodes: &mut Vec<NodeId>,
    raw: &mut Vec<u32>,
    out: &mut Vec<EntityId>,
    work: &mut WorkCounters,
    lock_ns: &mut Nanos,
    stats: &mut ThreadStats,
) {
    out.clear();
    let visits = env.world.tree.nodes_overlapping(query, nodes);
    work.areanode_visits += visits as u64;
    for &node in nodes.iter() {
        raw.clear();
        let is_leaf = env.world.tree.is_leaf(node);
        if env.policy.is_some() && !is_leaf {
            // Parent areanode: lock its object list for the read only.
            let t0 = ctx.now();
            ctx.charge(env.cost.lock_op);
            let waited = env.locks.acquire_parent(ctx, &env.world.links, task, node);
            stats.lock.parent_ns += waited;
            stats.lock.parent_ops += 1;
            env.world.links.extend_into(node, task, raw);
            ctx.charge(env.cost.unlock_op);
            env.locks.release_parent(ctx, &env.world.links, task, node);
            *lock_ns += ctx.now() - t0;
        } else {
            if env.policy.is_some() {
                debug_assert!(plan.contains(node), "reading unlocked leaf {node}");
            }
            env.world.links.extend_into(node, task, raw);
        }
        for &id in raw.iter() {
            let id = id as EntityId;
            work.candidates += 1;
            let row = env.world.store.row(id);
            if row.active() && row.bounds.intersects(query) {
                out.push(id);
            }
        }
    }
}

/// Claim the mover and every candidate for mutation checking.
fn claim_all(env: &ExecEnv<'_>, task: u32, mover: EntityId, candidates: &[EntityId]) {
    env.world.store.claim(mover, task);
    for &c in candidates {
        if c != mover {
            env.world.store.claim(c, task);
        }
    }
}

fn release_all(env: &ExecEnv<'_>, task: u32, mover: EntityId, candidates: &[EntityId]) {
    for &c in candidates {
        if c != mover {
            env.world.store.release(c, task);
        }
    }
    env.world.store.release(mover, task);
}

/// Relink an entity after motion. Both its old and new nodes lie within
/// the locked region (motion is bounded by the move bbox, which the
/// plan covers with margin); interior-node lists still take the short
/// parent lock.
fn relink_locked(
    env: &ExecEnv<'_>,
    ctx: &TaskCtx,
    task: u32,
    ent: EntityId,
    plan: &LeafSet,
    lock_ns: &mut Nanos,
    stats: &mut ThreadStats,
) {
    if env.policy.is_none() {
        env.world.relink_unlocked(ent);
        return;
    }
    let e = env.world.store.snapshot(ent);
    let new_node = env.world.tree.node_for_box(&e.abs_box());
    if !e.linked {
        // Fresh link (a just-launched projectile): insert only.
        link_into(env, ctx, task, ent, new_node, plan, lock_ns, stats, true);
        env.world.store.with_mut(ent, task, |x| {
            x.linked_node = new_node;
            x.linked = true;
        });
        return;
    }
    if new_node == e.linked_node {
        return;
    }
    link_into(
        env,
        ctx,
        task,
        ent,
        e.linked_node,
        plan,
        lock_ns,
        stats,
        false,
    );
    link_into(env, ctx, task, ent, new_node, plan, lock_ns, stats, true);
    env.world
        .store
        .with_mut(ent, task, |x| x.linked_node = new_node);
}

/// Insert (`insert = true`) or remove an entity from one node's object
/// list, taking the short parent lock when the node is interior. Leaves
/// must already be covered by the held lock plan.
#[allow(clippy::too_many_arguments)]
fn link_into(
    env: &ExecEnv<'_>,
    ctx: &TaskCtx,
    task: u32,
    ent: EntityId,
    node: NodeId,
    plan: &LeafSet,
    lock_ns: &mut Nanos,
    stats: &mut ThreadStats,
    insert: bool,
) {
    let is_leaf = env.world.tree.is_leaf(node);
    if is_leaf {
        debug_assert!(plan.contains(node), "relink through unlocked leaf {node}");
        if insert {
            env.world.links.push(node, task, ent as u32);
        } else {
            env.world.links.remove(node, task, ent as u32);
        }
    } else {
        let t0 = ctx.now();
        ctx.charge(env.cost.lock_op);
        let waited = env.locks.acquire_parent(ctx, &env.world.links, task, node);
        stats.lock.parent_ns += waited;
        stats.lock.parent_ops += 1;
        if insert {
            env.world.links.push(node, task, ent as u32);
        } else {
            env.world.links.remove(node, task, ent as u32);
        }
        ctx.charge(env.cost.unlock_op);
        env.locks.release_parent(ctx, &env.world.links, task, node);
        *lock_ns += ctx.now() - t0;
    }
}
