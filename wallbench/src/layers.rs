//! The per-layer kernel table: ns/op for each kernel a frame is made
//! of, timed from outside through the crates' public functions.
//!
//! Inputs are sampled from the named workload's own world after it has
//! run (real player positions, real move boxes, real viewer sets, the
//! bots' real commands), not synthetic constants. Each kernel is timed
//! as median + MAD over [`TIMED_BATCHES`] batches after warm-up; a
//! batch loops over every sampled input once.

use std::net::UdpSocket;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use parquake_areanode::LeafSet;
use parquake_bots::{BotBehavior, BotMind, Predictor};
use parquake_bsp::Hull;
use parquake_fabric::real::RealFabric;
use parquake_harness::mmsg;
use parquake_harness::udp_arena::classify_outbound;
use parquake_interest::{match_viewers, EntityIndex, InterestStats};
use parquake_math::angles::Angles;
use parquake_math::Pcg32;
use parquake_metrics::ThreadStats;
use parquake_protocol::{
    ClientMessage, Decode, Encode, GameEvent, MoveCmd, ReplyPredict, ServerMessage,
};
use parquake_server::clients::{ClientTable, SlotState};
use parquake_server::exec::execute_move;
use parquake_server::runtime::ServerShared;
use parquake_server::visibility_reply::build_reply;
use parquake_server::{CostModel, LockPolicy, ServerConfig, ServerKind};
use parquake_sim::interact::HITSCAN_RANGE;
use parquake_sim::movement::{move_bounding_box, run_move};
use parquake_sim::visibility::build_reply_entities;
use parquake_sim::worldphase::run_world_phase;
use parquake_sim::{EntityId, GameWorld, WorkCounters};

use crate::alloc_count::count_allocs;
use crate::estimator::median_mad;
use crate::openloop::TICK_NS;

const WARM_BATCHES: usize = 5;
pub const TIMED_BATCHES: usize = 30;

/// What the kernels sample their inputs from.
pub struct KernelInputs<'a> {
    /// The workload's world after its run.
    pub world: &'a Arc<GameWorld>,
    /// The bots' last commands, indexed by player slot.
    pub cmds: &'a [MoveCmd],
    /// Viewers matched per frame in this workload (384 / 8 / 128 / 4).
    pub frame_viewers: usize,
    /// Whether the workload's replies are delta-compressed.
    pub delta: bool,
    /// Fabric time the run ended at (the world phase's clock).
    pub now_ns: u64,
    pub seed: u64,
}

/// One kernel's timing.
#[derive(Clone, Debug)]
pub struct KernelResult {
    pub name: &'static str,
    pub ns_per_op: f64,
    pub mad_ns: f64,
    pub batches: usize,
    pub ops_per_batch: u64,
    /// What the `CostModel` charges for the same operation, where the
    /// kernel maps onto a charge site.
    pub charged_ns: Option<f64>,
}

/// Time `batch` (performing `ops` operations) over [`TIMED_BATCHES`]
/// batches after warm-up; `prepare` runs untimed before every batch.
/// Both see the kernel's mutable `state`.
fn time_kernel<S>(
    name: &'static str,
    ops: u64,
    state: &mut S,
    mut prepare: impl FnMut(&mut S),
    mut batch: impl FnMut(&mut S),
) -> KernelResult {
    let ops = ops.max(1);
    for _ in 0..WARM_BATCHES {
        prepare(state);
        batch(state);
    }
    let per_op: Vec<f64> = (0..TIMED_BATCHES)
        .map(|_| {
            prepare(state);
            let t = Instant::now();
            batch(state);
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    from_samples(name, ops, &per_op)
}

/// Median + MAD of per-op batch timings.
fn from_samples(name: &'static str, ops: u64, per_op_ns: &[f64]) -> KernelResult {
    let (ns_per_op, mad_ns) = median_mad(per_op_ns).expect("at least one timed batch");
    KernelResult {
        name,
        ns_per_op,
        mad_ns,
        batches: per_op_ns.len(),
        ops_per_batch: ops,
        charged_ns: None,
    }
}

/// A kernel with nothing to prepare.
fn time_pure(name: &'static str, ops: u64, mut batch: impl FnMut()) -> KernelResult {
    time_kernel(name, ops, &mut (), |_| {}, |_| batch())
}

/// Candidates for one mover, gathered the way `execute_move` does.
fn gather(
    world: &GameWorld,
    query: &parquake_math::Aabb,
    nodes: &mut Vec<u32>,
    raw: &mut Vec<u32>,
    out: &mut Vec<EntityId>,
    work: &mut WorkCounters,
) {
    out.clear();
    work.areanode_visits += world.tree.nodes_overlapping(query, nodes) as u64;
    for &node in nodes.iter() {
        raw.clear();
        world.links.extend_into(node, 0, raw);
        for &id in raw.iter() {
            work.candidates += 1;
            let e = world.store.snapshot(id as EntityId);
            if e.active && e.abs_box().intersects(query) {
                out.push(id as EntityId);
            }
        }
    }
}

/// The scripted movers: live players paired with their real command.
fn movers(inp: &KernelInputs<'_>) -> Vec<(u16, MoveCmd)> {
    inp.cmds
        .iter()
        .enumerate()
        .map(|(slot, cmd)| (slot as u16, *cmd))
        .filter(|&(slot, _)| inp.world.store.snapshot(slot).is_live_player())
        .collect()
}

/// Move every mover one tick (gather, `run_move`, relink) — untimed
/// preparation that keeps delta replies honest: between two replies to
/// one client, every player has moved once.
struct TickStepper {
    nodes: Vec<u32>,
    raw: Vec<u32>,
    cands: Vec<Vec<EntityId>>,
    touched: Vec<parquake_sim::movement::TouchEvent>,
    now_ns: u64,
}

impl TickStepper {
    fn new(n: usize, now_ns: u64) -> TickStepper {
        TickStepper {
            nodes: Vec::new(),
            raw: Vec::new(),
            cands: vec![Vec::new(); n],
            touched: Vec::new(),
            now_ns,
        }
    }

    /// Relink everyone, then gather each mover's candidates.
    fn gather_all(
        &mut self,
        world: &GameWorld,
        movers: &[(u16, MoveCmd)],
        work: &mut WorkCounters,
    ) {
        for &(slot, _) in movers {
            world.relink_unlocked(slot);
        }
        for (i, &(slot, cmd)) in movers.iter().enumerate() {
            let e = world.store.snapshot(slot);
            let query = move_bounding_box(&e.abs_box(), e.vel, cmd.msec);
            gather(
                world,
                &query,
                &mut self.nodes,
                &mut self.raw,
                &mut self.cands[i],
                work,
            );
        }
    }

    fn move_all(&mut self, world: &GameWorld, movers: &[(u16, MoveCmd)], work: &mut WorkCounters) {
        self.now_ns += TICK_NS;
        for (i, &(slot, cmd)) in movers.iter().enumerate() {
            self.touched.clear();
            run_move(
                world,
                0,
                slot,
                &cmd,
                &self.cands[i],
                self.now_ns,
                &mut self.touched,
                work,
            );
        }
    }
}

/// State of the `server.build_reply_ns` kernel: each batch answers
/// the frame's viewers once, from that frame's own interest sets.
struct ReplyState {
    stepper: TickStepper,
    frame: parquake_interest::InterestFrame,
    replies: Vec<ServerMessage>,
    work: WorkCounters,
    frame_no: u32,
}

/// Run every kernel. Single-threaded apart from the two fabric
/// hand-off kernels, which need a peer.
pub fn run_kernels(inp: &KernelInputs<'_>) -> Vec<KernelResult> {
    let world: &GameWorld = inp.world;
    let cost = CostModel::default();
    let movers = movers(inp);
    let n = movers.len() as u64;
    assert!(n > 0, "kernel pass needs live players");
    let mut out: Vec<KernelResult> = Vec::new();

    // ---- bsp -----------------------------------------------------------
    let steps: Vec<_> = movers
        .iter()
        .map(|&(slot, cmd)| {
            let e = world.store.snapshot(slot);
            let dir = Angles::yawed(cmd.yaw).forward();
            (e.pos, e.pos + dir * (320.0 * cmd.duration_secs()))
        })
        .collect();
    out.push(time_pure("bsp.trace_player_ns", n, || {
        for &(a, b) in &steps {
            std::hint::black_box(world.map.trace(Hull::Player, a, b));
        }
    }));
    let beams: Vec<_> = movers
        .iter()
        .map(|&(slot, cmd)| {
            let eye = world.store.snapshot(slot).eye();
            let dir = Angles::new(cmd.pitch, cmd.yaw, 0.0).forward();
            (eye, eye + dir * HITSCAN_RANGE)
        })
        .collect();
    out.push(time_pure("bsp.trace_point_long_ns", n, || {
        for &(a, b) in &beams {
            std::hint::black_box(world.map.trace(Hull::Point, a, b));
        }
    }));

    // ---- areanode ------------------------------------------------------
    let boxes: Vec<_> = movers
        .iter()
        .map(|&(slot, cmd)| {
            let e = world.store.snapshot(slot);
            move_bounding_box(&e.abs_box(), e.vel, cmd.msec)
        })
        .collect();
    let mut plan = LeafSet::new();
    out.push(time_pure("areanode.lock_plan_ns", n, || {
        for b in &boxes {
            std::hint::black_box(world.tree.leaves_overlapping(b, &mut plan));
        }
    }));
    let (mut nodes, mut raw) = (Vec::new(), Vec::new());
    out.push(time_pure("areanode.gather_ns", n, || {
        for b in &boxes {
            world.tree.nodes_overlapping(b, &mut nodes);
            raw.clear();
            for &node in &nodes {
                world.links.extend_into(node, 0, &mut raw);
            }
            std::hint::black_box(raw.len());
        }
    }));
    out.push(time_pure("areanode.relink_ns", n, || {
        for &(slot, _) in &movers {
            world.relink_unlocked(slot);
        }
    }));

    // ---- sim -----------------------------------------------------------
    let mut stepper = TickStepper::new(movers.len(), inp.now_ns);
    let mut move_state = (&mut stepper, WorkCounters::new());
    let mut r = time_kernel(
        "sim.run_move_ns",
        n,
        &mut move_state,
        |(stepper, work)| {
            *work = WorkCounters::new();
            stepper.gather_all(world, &movers, work);
        },
        |(stepper, work)| stepper.move_all(world, &movers, work),
    );
    r.charged_ns = Some(cost.move_base as f64 + cost.work_ns(&move_state.1) as f64 / n as f64);
    out.push(r);
    let mut scratch_work = WorkCounters::new();
    stepper.gather_all(world, &movers, &mut scratch_work);

    let mut rng = Pcg32::new(inp.seed, 7);
    let mut events: Vec<GameEvent> = Vec::new();
    let mut phase_now = stepper.now_ns;
    let mut phase_work = WorkCounters::new();
    let mut r = time_pure("sim.world_phase_ns", 1, || {
        phase_now += TICK_NS;
        events.clear();
        phase_work = WorkCounters::new();
        run_world_phase(
            world,
            phase_now,
            TICK_NS,
            &mut rng,
            &mut events,
            &mut phase_work,
        );
    });
    r.charged_ns = Some((cost.world_base + cost.work_ns(&phase_work)) as f64);
    out.push(r);

    let (mut vis_out, mut vis_scratch) = (Vec::new(), Vec::new());
    let mut vis_work = WorkCounters::new();
    let mut r = time_pure("sim.visibility_scan_ns", n, || {
        vis_work = WorkCounters::new();
        for &(slot, _) in &movers {
            build_reply_entities(world, slot, &mut vis_out, &mut vis_scratch, &mut vis_work);
        }
    });
    r.charged_ns = Some(cost.work_ns(&vis_work) as f64 / n as f64);
    out.push(r);

    let mut snap = world.snapshot_bytes();
    out.push(time_pure("sim.snapshot_encode_ns", 1, || {
        snap = world.snapshot_bytes();
    }));
    out.push(time_pure("sim.snapshot_restore_ns", 1, || {
        world.restore_bytes(&snap).expect("own snapshot restores");
    }));

    // ---- interest ------------------------------------------------------
    let mut ix_work = WorkCounters::new();
    let mut index = EntityIndex::build(world, &mut ix_work);
    let mut r = time_pure("interest.index_build_ns", 1, || {
        ix_work = WorkCounters::new();
        index = EntityIndex::build(world, &mut ix_work);
    });
    r.charged_ns = Some(cost.work_ns(&ix_work) as f64);
    out.push(r);
    let viewers: Vec<EntityId> = movers
        .iter()
        .map(|&(slot, _)| slot)
        .take(inp.frame_viewers.max(1))
        .collect();
    let v = viewers.len() as u64;
    let mut istats = InterestStats::default();
    let mut match_work = WorkCounters::new();
    let mut r = time_pure("interest.match_ns_per_viewer", v, || {
        match_work = WorkCounters::new();
        std::hint::black_box(match_viewers(
            world,
            &index,
            &viewers,
            &mut match_work,
            &mut istats,
        ));
    });
    r.charged_ns = Some(cost.work_ns(&match_work) as f64 / v as f64);
    out.push(r);

    // ---- server.build_reply + protocol reply codec --------------------
    // Each batch answers the frame's viewers once, after everyone has
    // moved one tick, from that frame's own interest sets.
    let table = ClientTable::new(world.max_players() as usize);
    for &(slot, cmd) in &movers {
        let s = table.slot(slot as usize);
        s.state = SlotState::Active;
        s.client_id = slot as u32;
        s.last_seq = cmd.seq;
    }
    let mut rs = ReplyState {
        stepper,
        frame: match_viewers(world, &index, &viewers, &mut scratch_work, &mut istats),
        replies: Vec::new(),
        work: WorkCounters::new(),
        frame_no: 0,
    };
    let build_all = |s: &mut ReplyState| {
        s.replies.clear();
        s.frame_no += 1;
        s.work = WorkCounters::new();
        for &viewer in &viewers {
            s.replies.push(build_reply(
                world,
                viewer,
                table.slot(viewer as usize),
                s.frame_no,
                0,
                inp.delta,
                Vec::new(),
                s.frame.get(viewer),
                &mut s.work,
            ));
        }
    };
    let mut r = time_kernel(
        "server.build_reply_ns",
        v,
        &mut rs,
        |s| {
            let mut w = WorkCounters::new();
            s.stepper.move_all(world, &movers, &mut w);
            s.stepper.gather_all(world, &movers, &mut w);
            let ix = EntityIndex::build(world, &mut w);
            s.frame = match_viewers(world, &ix, &viewers, &mut w, &mut InterestStats::default());
        },
        build_all,
    );
    let encoded: Vec<Vec<u8>> = rs.replies.iter().map(Encode::to_bytes).collect();
    let mean_bytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / v as f64;
    let reply_fixed = cost.reply_base as f64 + cost.reply_byte as f64 * mean_bytes;
    r.charged_ns = Some(cost.work_ns(&rs.work) as f64 / v as f64 + reply_fixed);
    out.push(r);

    let allocs = count_allocs(|| {
        build_all(&mut rs);
        for reply in &rs.replies {
            std::hint::black_box(reply.to_bytes());
        }
    });
    out.push(KernelResult {
        name: "protocol.reply_allocs",
        ns_per_op: allocs.map(|a| a as f64 / v as f64).unwrap_or(0.0),
        mad_ns: 0.0,
        batches: usize::from(allocs.is_some()),
        ops_per_batch: v,
        charged_ns: None,
    });
    let replies = &rs.replies;

    let mut r = time_pure("protocol.encode_reply_ns", v, || {
        for reply in replies {
            std::hint::black_box(reply.to_bytes());
        }
    });
    r.charged_ns = Some(reply_fixed);
    out.push(r);
    out.push(time_pure("protocol.decode_reply_ns", v, || {
        for bytes in &encoded {
            std::hint::black_box(ServerMessage::from_bytes(bytes).expect("own encoding decodes"));
        }
    }));
    out.push(time_pure("harness.classify_outbound_ns", v, || {
        for bytes in &encoded {
            std::hint::black_box(classify_outbound(bytes, Some((0, 0))));
        }
    }));

    // ---- protocol move codec -------------------------------------------
    let move_msgs: Vec<ClientMessage> = movers
        .iter()
        .map(|&(slot, cmd)| ClientMessage::Move {
            client_id: slot as u32,
            cmd,
        })
        .collect();
    let move_bytes: Vec<Vec<u8>> = move_msgs.iter().map(Encode::to_bytes).collect();
    let mut r = time_pure("protocol.decode_move_ns", n, || {
        for bytes in &move_bytes {
            std::hint::black_box(ClientMessage::from_bytes(bytes).expect("own encoding decodes"));
        }
    });
    // The model's `recv` also covers the recvfrom syscall this kernel
    // does not make; the row shows how much of it is decode.
    r.charged_ns = Some(cost.recv as f64);
    out.push(r);
    out.push(time_pure("protocol.encode_move_ns", n, || {
        for msg in &move_msgs {
            std::hint::black_box(msg.to_bytes());
        }
    }));

    // ---- bots ------------------------------------------------------------
    let mut minds: Vec<BotMind> = movers
        .iter()
        .map(|&(slot, _)| BotMind::new(slot as u32, inp.seed, BotBehavior::deathmatch()))
        .collect();
    out.push(time_pure("bots.think_ns", n, || {
        for mind in &mut minds {
            std::hint::black_box(mind.think(0, 30));
        }
    }));
    // Predict and reconcile alternate, so the input ring stays one
    // deep: each is the other's untimed preparation.
    let predictors: Vec<Predictor> = movers
        .iter()
        .map(|&(slot, _)| Predictor::new(world.map.clone(), world.store.snapshot(slot).pos))
        .collect();
    let mut ps = (predictors, 0u32);
    let predict_all = |(predictors, seq): &mut (Vec<Predictor>, u32)| {
        *seq += 1;
        for (p, &(_, cmd)) in predictors.iter_mut().zip(&movers) {
            p.predict(&MoveCmd { seq: *seq, ..cmd });
        }
    };
    let reconcile_all = |(predictors, seq): &mut (Vec<Predictor>, u32)| {
        for p in predictors.iter_mut() {
            let state = p.state;
            p.reconcile(
                state.pos,
                &ReplyPredict {
                    input_ack: *seq,
                    perturb: 0,
                    vel: state.vel,
                    on_ground: state.on_ground,
                },
            );
        }
    };
    out.push(time_kernel(
        "bots.predict_ns",
        n,
        &mut ps,
        reconcile_all,
        predict_all,
    ));
    out.push(time_kernel(
        "bots.reconcile_ns",
        n,
        &mut ps,
        predict_all,
        reconcile_all,
    ));

    out.extend(fabric_kernels(inp.world, &movers));
    out.extend(mmsg_kernels(&encoded));
    out
}

/// Kernels that need a fabric task context: `execute_move` under the
/// Optimized policy (uncontended), an uncontended lock pair, and the
/// two cross-thread hand-offs.
fn fabric_kernels(world: &Arc<GameWorld>, movers: &[(u16, MoveCmd)]) -> Vec<KernelResult> {
    const HANDOFFS: u64 = 200;
    let (real, fabric) = RealFabric::new_arc_pair();
    let kind = ServerKind::Parallel {
        threads: 1,
        locking: LockPolicy::Optimized,
    };
    let cfg = ServerConfig {
        cost: CostModel::default().scaled(0.0),
        checking: false,
        ..ServerConfig::new(kind, u64::MAX)
    };
    let shared = Arc::new(ServerShared::new(
        &fabric,
        &cfg,
        world.clone(),
        1,
        Some(LockPolicy::Optimized),
    ));
    let lock = fabric.alloc_lock();
    let (ping_cv, pong_cv) = (fabric.alloc_cond(), fabric.alloc_cond());
    let (ping_port, pong_port) = (fabric.alloc_port(), fabric.alloc_port());
    let rounds = ((WARM_BATCHES + TIMED_BATCHES) as u64) * HANDOFFS;
    // Whose turn it is in the condvar ping-pong; guarded by `lock`.
    let turn = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let results: Arc<Mutex<Vec<KernelResult>>> = Arc::default();

    {
        let (turn, real) = (turn.clone(), real.clone());
        fabric.spawn(
            "kernel-peer",
            None,
            Box::new(move |ctx| {
                for _ in 0..rounds {
                    ctx.wait_readable(pong_port, None);
                    ctx.try_recv(pong_port);
                    real.send_external(pong_port, ping_port, Vec::new());
                }
                for _ in 0..rounds {
                    ctx.lock(lock);
                    while !turn.load(std::sync::atomic::Ordering::Relaxed) {
                        ctx.cond_wait(pong_cv, lock);
                    }
                    turn.store(false, std::sync::atomic::Ordering::Relaxed);
                    ctx.cond_signal(ping_cv);
                    ctx.unlock(lock);
                }
            }),
        );
    }
    {
        let (results, movers) = (results.clone(), movers.to_vec());
        fabric.spawn(
            "kernels",
            None,
            Box::new(move |ctx| {
                let mut out = Vec::new();
                let n = movers.len() as u64;
                let env = shared.exec_env();
                let mut stats = ThreadStats::new();
                let mut mask = 0u64;
                out.push(time_pure("server.execute_move_ns", n, || {
                    for (slot, cmd) in &movers {
                        execute_move(&env, ctx, 0, *slot, cmd, &mut stats, &mut mask);
                    }
                }));
                out.push(time_pure("fabric.lock_pair_ns", 1_000, || {
                    for _ in 0..1_000 {
                        ctx.lock(lock);
                        ctx.unlock(lock);
                    }
                }));
                // A round trip is two hand-offs.
                out.push(time_pure("fabric.port_handoff_ns", 2 * HANDOFFS, || {
                    for _ in 0..HANDOFFS {
                        real.send_external(ping_port, pong_port, Vec::new());
                        ctx.wait_readable(ping_port, None);
                        ctx.try_recv(ping_port);
                    }
                }));
                out.push(time_pure("fabric.cond_handoff_ns", 2 * HANDOFFS, || {
                    for _ in 0..HANDOFFS {
                        ctx.lock(lock);
                        turn.store(true, std::sync::atomic::Ordering::Relaxed);
                        ctx.cond_signal(pong_cv);
                        while turn.load(std::sync::atomic::Ordering::Relaxed) {
                            ctx.cond_wait(ping_cv, lock);
                        }
                        ctx.unlock(lock);
                    }
                }));
                *results.lock().unwrap() = out;
            }),
        );
    }
    fabric.run();
    let out = std::mem::take(&mut *results.lock().unwrap());
    out
}

/// `sendmmsg`/`recvmmsg` cost per datagram over a loopback pair at
/// batch 16 (the gateway's batch) and at batch 1. Reports nothing where
/// a loopback socket cannot be bound (the metrics then read 0).
fn mmsg_kernels(payloads: &[Vec<u8>]) -> Vec<KernelResult> {
    let pair = || -> std::io::Result<(UdpSocket, UdpSocket)> {
        Ok((
            UdpSocket::bind("127.0.0.1:0")?,
            UdpSocket::bind("127.0.0.1:0")?,
        ))
    };
    let mut out = Vec::new();
    for (send_name, recv_name, batch) in [
        (
            "harness.mmsg_send_ns_per_dgram",
            "harness.mmsg_recv_ns_per_dgram",
            mmsg::BATCH,
        ),
        (
            "harness.mmsg_send_b1_ns_per_dgram",
            "harness.mmsg_recv_b1_ns_per_dgram",
            1,
        ),
    ] {
        let Ok((tx, rx)) = pair() else {
            continue;
        };
        let dest = rx.local_addr().expect("bound socket has an address");
        let msgs: Vec<_> = payloads
            .iter()
            .cycle()
            .take(batch)
            .map(|p| (p.clone(), dest))
            .collect();
        let mut buf = [0u8; parquake_protocol::MAX_DATAGRAM];
        let (mut send_ns, mut recv_ns) = (Vec::new(), Vec::new());
        for round in 0..WARM_BATCHES + TIMED_BATCHES {
            let t = Instant::now();
            mmsg::send_batch(&tx, &msgs);
            let sent = t.elapsed();
            let t = Instant::now();
            let mut got = usize::from(rx.recv_from(&mut buf).is_ok());
            while got < batch {
                let more = mmsg::recv_more(&rx, batch - got).len();
                got += if more > 0 {
                    more
                } else {
                    usize::from(rx.recv_from(&mut buf).is_ok())
                };
            }
            if round >= WARM_BATCHES {
                send_ns.push(sent.as_nanos() as f64 / batch as f64);
                recv_ns.push(t.elapsed().as_nanos() as f64 / batch as f64);
            }
        }
        out.push(from_samples(send_name, batch as u64, &send_ns));
        out.push(from_samples(recv_name, batch as u64, &recv_ns));
    }
    out
}
