//! Bot driver tasks: the client machines of the testbed.
//!
//! Each driver owns one fabric port and multiplexes many bots over it,
//! exactly like the original setup drove several automatic players per
//! dual-processor client box. Drivers pace every bot at one move per
//! client frame regardless of replies (the paper's worst-case,
//! always-active workload) and collect response statistics.

use std::sync::{Arc, Mutex, PoisonError};

use parquake_fabric::{Fabric, Nanos, PortId, TaskCtx};
use parquake_metrics::ResponseStats;
use parquake_protocol::{ClientMessage, Decode, Encode, ServerMessage};

use crate::behavior::{BotBehavior, BotMind};
use crate::predict::Predictor;

/// The shared compiled map handed to predicting clients. Debug-opaque:
/// a compiled BSP world is not meaningfully printable.
#[derive(Clone)]
pub struct PredictMap(pub Arc<parquake_bsp::BspWorld>);

impl std::fmt::Debug for PredictMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PredictMap(..)")
    }
}

/// Client frame length: one move per bot per frame, the paper's
/// always-active client.
const CLIENT_FRAME_MS: u8 = 30;

/// Modelled client CPU cost per sent command.
const THINK_COST_NS: Nanos = 15_000;

/// Swarm configuration.
#[derive(Clone, Debug)]
pub struct BotSwarmConfig {
    /// Total bots (player count of the experiment).
    pub players: u32,
    /// Driver tasks to spread them over (client machines).
    pub drivers: u32,
    /// Workload seed.
    pub seed: u64,
    /// Bots stop sending at this time (give the server room to drain).
    pub send_until: Nanos,
    /// Behaviour mix.
    pub behavior: BotBehavior,
    /// Random cadence jitter (±ns) applied per command — clients are
    /// asynchronous, which is what creates the paper's fine-grain
    /// per-frame imbalance (§4.2).
    pub jitter_ns: Nanos,
    /// Population ramp: when each bot joins and leaves the run.
    /// `None` = everyone plays from 0 to `send_until` (the paper's
    /// constant worst-case load).
    pub ramp: Option<SwarmRamp>,
    /// Client-side prediction: `Some(map)` makes every bot run the
    /// shared movement kernel on the given compiled map, send the
    /// input-seq trailer, and reconcile against trailered replies.
    /// `None` = legacy clients (no trailer on the wire).
    pub predict: Option<PredictMap>,
}

/// A time-varying population profile for the swarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwarmRamp {
    /// Bots join staggered over `[0, ramp_up_ns]`, everyone plays
    /// through a hold window, then bots leave staggered over the
    /// down-ramp — the load shape that drives an elastic directory
    /// through spawn-under-pressure and reap-after-drain.
    UpDown {
        ramp_up_ns: Nanos,
        hold_ns: Nanos,
        ramp_down_ns: Nanos,
    },
}

impl SwarmRamp {
    /// When global client `c` of `players` joins and leaves.
    pub fn window(&self, c: u32, players: u32) -> (Nanos, Nanos) {
        let players = players.max(1) as Nanos;
        match *self {
            SwarmRamp::UpDown {
                ramp_up_ns,
                hold_ns,
                ramp_down_ns,
            } => {
                let join = ramp_up_ns * c as Nanos / players;
                let leave = ramp_up_ns + hold_ns + ramp_down_ns * (c as Nanos + 1) / players;
                (join, leave)
            }
        }
    }
}

impl BotSwarmConfig {
    pub fn new(players: u32, send_until: Nanos) -> BotSwarmConfig {
        BotSwarmConfig {
            players,
            drivers: 8.min(players.max(1)),
            seed: 0xB07_5EED,
            send_until,
            behavior: BotBehavior::deathmatch(),
            jitter_ns: 8_000_000,
            ramp: None,
            predict: None,
        }
    }
}

/// A spawned swarm. Its drivers each merge what they measured into one
/// sink as their last act, so [`BotSwarm::report`] is final once the
/// fabric run has completed.
pub struct BotSwarm {
    /// The fabric port of each spawned driver, in client-block order:
    /// entry `d` is the source (and reply) address of the `d`-th
    /// contiguous block of clients. Shorter than
    /// [`BotSwarmConfig::drivers`] when there are fewer players than
    /// drivers; empty for a swarm of zero.
    pub driver_ports: Vec<PortId>,
    /// `swarm.stats.lock()`: the response totals, read from the sink.
    pub stats: StatsView,
    /// `swarm.connected.load(_)`: the connection count, read from the
    /// sink.
    pub connected: ConnectedView,
    sink: Arc<Mutex<SwarmReport>>,
}

/// Everything a swarm measured, as plain values.
#[derive(Clone, Debug, Default)]
pub struct SwarmReport {
    /// Aggregated response statistics across all bots.
    pub stats: ResponseStats,
    /// Bots that got a ConnectAck, each counted once however often it
    /// reconnected.
    pub connected: u32,
    /// Response statistics split by the arena each reply came from
    /// (index = arena id). Single-arena swarms have one entry.
    pub per_arena: Vec<ResponseStats>,
    /// Unsolicited `ConnectAck`s heard while already connected — the
    /// signature of a supervised arena restored from checkpoint
    /// re-announcing its slots after recovery.
    pub restarts_observed: u64,
    /// Unsolicited `ConnectAck`s that moved a connected bot to a
    /// *different* arena — the destination world of a live migration
    /// re-acking the handed-off slot.
    pub rehomed: u64,
    /// Merged prediction/reconciliation statistics (all zeros when the
    /// swarm runs without [`BotSwarmConfig::predict`]).
    pub prediction: parquake_metrics::PredictionStats,
    /// Ring entries still unacked across all bots at shutdown — the
    /// `in_flight` term that closes the prediction ledger.
    pub predict_in_flight: u64,
}

impl SwarmReport {
    /// An empty report for a swarm addressing `arenas` arenas.
    fn new(arenas: usize) -> SwarmReport {
        SwarmReport {
            per_arena: vec![ResponseStats::new(); arenas],
            ..SwarmReport::default()
        }
    }

    /// Fold another driver's report into this one.
    pub fn merge(&mut self, o: &SwarmReport) {
        self.stats.merge(&o.stats);
        self.connected += o.connected;
        if self.per_arena.len() < o.per_arena.len() {
            self.per_arena
                .resize(o.per_arena.len(), ResponseStats::new());
        }
        for (agg, mine) in self.per_arena.iter_mut().zip(&o.per_arena) {
            agg.merge(mine);
        }
        self.restarts_observed += o.restarts_observed;
        self.rehomed += o.rehomed;
        self.prediction.merge(&o.prediction);
        self.predict_in_flight += o.predict_in_flight;
    }
}

/// The swarm's one host-side sink, read whole. Host-side, after
/// `fabric.run()` returned: the drivers merge into it as their last
/// act, so the copy is final only once no task is alive.
fn read(sink: &Mutex<SwarmReport>) -> SwarmReport {
    let report = sink.lock().unwrap_or_else(PoisonError::into_inner); // lockcheck: allow(raw-sync: host-side read of the swarm sink after fabric.run() returned, no tasks alive)
    report.clone()
}

impl BotSwarm {
    /// Everything the swarm measured. Call after `fabric.run()`.
    pub fn report(&self) -> SwarmReport {
        read(&self.sink)
    }
}

/// [`BotSwarm::stats`]: the shape `Arc<Mutex<ResponseStats>>` had, for
/// callers written against it. New code reads [`BotSwarm::report`].
pub struct StatsView(Arc<Mutex<SwarmReport>>);

impl StatsView {
    pub fn lock(&self) -> Result<ResponseStats, std::convert::Infallible> {
        Ok(read(&self.0).stats)
    }
}

/// [`BotSwarm::connected`]: the shape `Arc<AtomicU32>` had, for
/// callers written against it. New code reads [`BotSwarm::report`].
pub struct ConnectedView(Arc<Mutex<SwarmReport>>);

impl ConnectedView {
    pub fn load(&self, _order: std::sync::atomic::Ordering) -> u32 {
        read(&self.0).connected
    }
}

/// Where a swarm's traffic goes.
///
/// Single-arena experiments list one arena whose entry is the server's
/// per-thread ports, with no front door: Connects go straight to the
/// bot's home thread, exactly the pre-arena behaviour. Multi-arena
/// experiments list one entry per arena plus the directory's admission
/// port; Connects then carry a requested arena id through the front
/// door and the `ConnectAck`'s echoed arena id tells the bot which
/// arena's ports to address from then on.
#[derive(Clone, Debug)]
pub struct SwarmTopology {
    /// Per-arena server ports (arena id → that arena's thread ports).
    pub arena_ports: Vec<Vec<PortId>>,
    /// Admission front door for Connects; `None` sends Connects to the
    /// bot's current arena/thread port directly.
    pub connect_port: Option<PortId>,
}

impl SwarmTopology {
    /// A single arena addressed directly (the classic setup).
    pub fn single(server_ports: &[PortId]) -> SwarmTopology {
        SwarmTopology {
            arena_ports: vec![server_ports.to_vec()],
            connect_port: None,
        }
    }
}

/// Spawn driver tasks for `cfg.players` bots. `server_ports` lists every
/// server thread's port; `initial_thread(client)` gives the connect-time
/// thread (block assignment from the server handle). Bots later follow
/// `assigned_thread` redirects in replies (the dynamic region-affine
/// assignment extension).
pub fn spawn_swarm(
    fabric: &Arc<dyn Fabric>,
    cfg: &BotSwarmConfig,
    server_ports: &[PortId],
    initial_thread: impl Fn(u32) -> usize,
) -> BotSwarm {
    spawn_swarm_multi(
        fabric,
        cfg,
        &SwarmTopology::single(server_ports),
        move |c| (0, initial_thread(c)),
    )
}

/// Spawn driver tasks routing across arenas. `initial(client)` returns
/// `(requested_arena, initial_thread)`: the arena id the bot asks for
/// in its Connect (0 lets a fill-first admission policy choose) and
/// its starting thread within whatever arena admits it.
pub fn spawn_swarm_multi(
    fabric: &Arc<dyn Fabric>,
    cfg: &BotSwarmConfig,
    topology: &SwarmTopology,
    initial: impl Fn(u32) -> (u16, usize),
) -> BotSwarm {
    assert!(
        !topology.arena_ports.is_empty() && topology.arena_ports.iter().all(|p| !p.is_empty()),
        "swarm topology needs at least one arena with at least one port"
    );
    let sink = Arc::new(Mutex::new(SwarmReport::new(topology.arena_ports.len())));
    let drivers = cfg.drivers.clamp(1, cfg.players.max(1));
    let per = cfg.players.div_ceil(drivers);
    let mut driver_ports = Vec::with_capacity(drivers as usize);
    for d in 0..drivers {
        let lo = d * per;
        let hi = ((d + 1) * per).min(cfg.players);
        if lo >= hi {
            break;
        }
        let port = fabric.alloc_port();
        driver_ports.push(port);
        // Bot drivers are the WAN side of the link: fabrics running a
        // WAN-scoped fault lottery perturb exactly the client↔server
        // datagrams and leave intra-server traffic pristine.
        fabric.mark_wan_port(port);
        let topology = topology.clone();
        let init: Vec<(u16, usize)> = (lo..hi)
            .map(|c| {
                let (arena, thread) = initial(c);
                let arena = (arena as usize).min(topology.arena_ports.len() - 1) as u16;
                (
                    arena,
                    thread.min(topology.arena_ports[arena as usize].len() - 1),
                )
            })
            .collect();
        let cfg = cfg.clone();
        let sink = sink.clone();
        fabric.spawn(
            &format!("bots-{d}"),
            None, // client machines: off the modelled server CPUs
            Box::new(move |ctx| {
                drive(ctx, port, lo..hi, &topology, init, &cfg, &sink);
            }),
        );
    }
    BotSwarm {
        driver_ports,
        stats: StatsView(sink.clone()),
        connected: ConnectedView(sink.clone()),
        sink,
    }
}

fn drive(
    ctx: &TaskCtx,
    port: PortId,
    clients: std::ops::Range<u32>,
    topology: &SwarmTopology,
    init: Vec<(u16, usize)>,
    cfg: &BotSwarmConfig,
    sink: &Mutex<SwarmReport>,
) {
    /// First Connect-retry interval; doubles per unanswered retry.
    const RETRY_MIN: Nanos = 100_000_000;
    /// Backoff ceiling for Connect retries.
    const RETRY_MAX: Nanos = 1_600_000_000;
    /// An acked bot that hears nothing for this long assumes its
    /// session died (server timeout, heavy loss) and reconnects.
    const STARVATION: Nanos = 1_000_000_000;

    let (lo, hi) = (clients.start, clients.end);
    let n = (hi - lo) as usize;
    let frame_ns = CLIENT_FRAME_MS as Nanos * 1_000_000;
    let mut bots: Vec<BotMind> = (lo..hi)
        .map(|c| BotMind::new(c, cfg.seed, cfg.behavior.clone()))
        .collect();
    // One prediction state machine per bot when the swarm predicts.
    let mut predictors: Vec<Option<Predictor>> = (0..n)
        .map(|_| {
            cfg.predict
                .as_ref()
                .map(|m| Predictor::new(m.0.clone(), parquake_math::Vec3::ZERO))
        })
        .collect();
    // The arena each bot asks for at Connect time (fixed) and the
    // arena/thread it currently addresses (updated from acks/replies).
    let requested: Vec<u16> = init.iter().map(|&(a, _)| a).collect();
    let mut cur_arena: Vec<usize> = init.iter().map(|&(a, _)| a as usize).collect();
    let mut cur_thread: Vec<usize> = init.iter().map(|&(_, t)| t).collect();
    let mut acked = vec![false; n];
    // Connection-count each bot only once, however often it reconnects.
    let mut ever_acked = vec![false; n];
    let mut backoff = vec![RETRY_MIN; n];
    let mut last_heard: Vec<Nanos> = vec![0; n];
    // Highest reply seq seen per bot: the fault fabric can duplicate
    // datagrams, and a stale copy must not count twice (-1 = none yet).
    let mut last_rx_seq = vec![-1i64; n];
    // Per-bot play window (the population ramp; no ramp = everyone
    // plays start to finish).
    let (join_at, leave_at): (Vec<Nanos>, Vec<Nanos>) = (lo..hi)
        .map(|c| match &cfg.ramp {
            None => (0, Nanos::MAX),
            Some(r) => r.window(c, cfg.players),
        })
        .unzip();
    let mut left = vec![false; n];
    // Stagger bots across the client frame so requests arrive
    // asynchronously (the paper's fine-grain imbalance source).
    let mut next_at: Vec<Nanos> = (0..n)
        .map(|i| join_at[i] + (i as Nanos * frame_ns) / n as Nanos)
        .collect();
    let mut rep = SwarmReport::new(topology.arena_ports.len());

    loop {
        let now = ctx.now();
        if now >= cfg.send_until {
            break;
        }
        // Act on every bot whose schedule has come.
        for i in 0..n {
            if left[i] {
                continue;
            }
            if now >= leave_at[i] {
                // The bot's window closed: say goodbye and go quiet.
                left[i] = true;
                next_at[i] = cfg.send_until;
                if ever_acked[i] {
                    ctx.charge(THINK_COST_NS);
                    let msg = ClientMessage::Disconnect {
                        client_id: lo + i as u32,
                    };
                    // Alternate the leave path: even bots disconnect
                    // through the front door (the director's book
                    // removal), odd bots at their arena directly (the
                    // lifecycle-notice reconciliation path).
                    let at_arena = topology.arena_ports[cur_arena[i]][cur_thread[i]];
                    let to = match topology.connect_port {
                        Some(front) if (lo + i as u32) % 2 == 0 => front,
                        _ => at_arena,
                    };
                    ctx.send(port, to, msg.to_bytes());
                }
                continue;
            }
            if next_at[i] > now {
                continue;
            }
            // Starvation watchdog: a session that stops producing
            // replies (lost ack'd state, server-side timeout) falls
            // back to the Connect handshake instead of wedging.
            if acked[i] && now.saturating_sub(last_heard[i]) > STARVATION {
                acked[i] = false;
                backoff[i] = RETRY_MIN;
            }
            if !acked[i] {
                ctx.charge(THINK_COST_NS);
                let msg = ClientMessage::Connect {
                    client_id: lo + i as u32,
                    arena: requested[i],
                };
                // Connects go through the admission front door when the
                // topology has one; otherwise straight to the home port.
                let to = topology
                    .connect_port
                    .unwrap_or(topology.arena_ports[cur_arena[i]][cur_thread[i]]);
                ctx.send(port, to, msg.to_bytes());
                // Exponential backoff on the ack retry: lost acks are
                // re-requested quickly without flooding a dead link.
                next_at[i] = now + backoff[i];
                backoff[i] = (backoff[i] * 2).min(RETRY_MAX);
            } else {
                ctx.charge(THINK_COST_NS);
                let mut cmd = bots[i].think(now, CLIENT_FRAME_MS);
                if let Some(p) = predictors[i].as_mut() {
                    // Opt in on the wire and act on the input locally,
                    // a full round trip before the server confirms it.
                    cmd.predict_ack = Some(p.trailer_ack());
                    p.predict(&cmd);
                }
                rep.stats.note_sent();
                rep.per_arena[cur_arena[i]].note_sent();
                let msg = ClientMessage::Move {
                    client_id: lo + i as u32,
                    cmd,
                };
                ctx.send(
                    port,
                    topology.arena_ports[cur_arena[i]][cur_thread[i]],
                    msg.to_bytes(),
                );
                // Always-active cadence with asynchronous jitter.
                let jitter = if cfg.jitter_ns > 0 {
                    let j = bots[i].rng.next_u32() as Nanos % (2 * cfg.jitter_ns);
                    j as i64 - cfg.jitter_ns as i64
                } else {
                    0
                };
                next_at[i] = (next_at[i] as i64 + frame_ns as i64 + jitter) as Nanos;
                if next_at[i] <= now {
                    next_at[i] = now + frame_ns / 2;
                }
            }
        }
        // Sleep until the next bot action (or leave), draining replies
        // meanwhile.
        let wake = (0..n)
            .filter(|&i| !left[i])
            .map(|i| next_at[i].min(leave_at[i]))
            .min()
            .unwrap_or(cfg.send_until);
        let deadline = wake.min(cfg.send_until);
        loop {
            let now = ctx.now();
            if now >= deadline {
                break;
            }
            if !ctx.wait_readable(port, Some(deadline)) {
                break;
            }
            while let Some(raw) = ctx.try_recv(port) {
                let Ok(msg) = ServerMessage::from_bytes(&raw.payload) else {
                    continue;
                };
                match msg {
                    ServerMessage::ConnectAck {
                        client_id,
                        arena,
                        spawn,
                    } => {
                        let i = client_id.wrapping_sub(lo) as usize;
                        if i < n && !acked[i] && !left[i] {
                            acked[i] = true;
                            backoff[i] = RETRY_MIN;
                            last_heard[i] = ctx.now();
                            // A (re-)Connect was acked: the session's
                            // reply-seq space starts over, so the
                            // duplicate-suppression window must too —
                            // otherwise every reply of the new session
                            // reads as a stale copy and the response
                            // accounting starves after a reconnect.
                            last_rx_seq[i] = -1;
                            if let Some(p) = predictors[i].as_mut() {
                                p.reset(spawn);
                            }
                            // The ack's arena id is the admission
                            // policy's placement: address that arena's
                            // ports from now on. The ack's source port
                            // further identifies the serving thread —
                            // a directory may have claimed our slot in
                            // any thread's home block.
                            let a = arena as usize;
                            if a < topology.arena_ports.len() {
                                cur_arena[i] = a;
                                if let Some(t) =
                                    topology.arena_ports[a].iter().position(|&p| p == raw.from)
                                {
                                    cur_thread[i] = t;
                                } else {
                                    cur_thread[i] =
                                        cur_thread[i].min(topology.arena_ports[a].len() - 1);
                                }
                            }
                            if !ever_acked[i] {
                                ever_acked[i] = true;
                                rep.connected += 1;
                            }
                            // Start moving on the next tick.
                            next_at[i] = ctx.now();
                        } else if i < n && acked[i] && !left[i] {
                            // Unsolicited ack while already connected:
                            // either a supervised arena restored from
                            // its checkpoint re-announcing the slot, or
                            // a live migration's destination claiming
                            // the session. Re-home to the announced
                            // arena either way — after a handoff the
                            // old address is a despawned slot and moves
                            // sent there vanish until the starvation
                            // watchdog gives up.
                            let a = arena as usize;
                            if a < topology.arena_ports.len() {
                                if a != cur_arena[i] {
                                    rep.rehomed += 1;
                                } else {
                                    rep.restarts_observed += 1;
                                }
                                cur_arena[i] = a;
                                if let Some(t) =
                                    topology.arena_ports[a].iter().position(|&p| p == raw.from)
                                {
                                    cur_thread[i] = t;
                                } else {
                                    cur_thread[i] =
                                        cur_thread[i].min(topology.arena_ports[a].len() - 1);
                                }
                            } else {
                                rep.restarts_observed += 1;
                            }
                            last_heard[i] = ctx.now();
                        }
                    }
                    ServerMessage::Reply {
                        client_id,
                        seq,
                        sent_at_echo,
                        assigned_thread,
                        origin,
                        delta,
                        entities,
                        removed,
                        predict,
                        ..
                    } => {
                        let i = client_id.wrapping_sub(lo) as usize;
                        if i < n {
                            let now = ctx.now();
                            last_heard[i] = now;
                            // Count each reply once: the fault fabric
                            // can duplicate datagrams, and seq echoes
                            // are strictly increasing per client.
                            let fresh = seq as i64 > last_rx_seq[i];
                            if fresh && sent_at_echo > 0 && now >= sent_at_echo {
                                rep.stats.note_reply(now - sent_at_echo);
                                rep.per_arena[cur_arena[i]].note_reply(now - sent_at_echo);
                            }
                            if fresh {
                                if let (Some(p), Some(rp)) =
                                    (predictors[i].as_mut(), predict.as_ref())
                                {
                                    p.reconcile(origin, rp);
                                }
                            }
                            last_rx_seq[i] = last_rx_seq[i].max(seq as i64);
                            // Follow server steering (dynamic
                            // region-affine assignment) within the
                            // bot's current arena.
                            let t = assigned_thread as usize;
                            if t < topology.arena_ports[cur_arena[i]].len() {
                                cur_thread[i] = t;
                            }
                            bots[i].observe_update(origin, delta, &entities, &removed);
                        }
                    }
                    ServerMessage::Bye { client_id } => {
                        // Server reclaimed the slot: rejoin from scratch.
                        let i = client_id.wrapping_sub(lo) as usize;
                        if i < n && acked[i] && !left[i] {
                            acked[i] = false;
                            backoff[i] = RETRY_MIN;
                            next_at[i] = ctx.now();
                        }
                    }
                }
            }
        }
    }

    for p in predictors.iter().flatten() {
        rep.prediction.merge(&p.stats);
        rep.predict_in_flight += p.in_flight();
    }
    // The swarm's one host-side sink, merged once per driver at task
    // end; no fabric task ever blocks on it.
    sink.lock() // lockcheck: allow(raw-sync: host-side swarm sink, merged once per driver at task end)
        .unwrap_or_else(PoisonError::into_inner)
        .merge(&rep);
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_fabric::FabricKind;

    /// A stub server that acks every connect and echoes every move.
    fn stub_server(fabric: &Arc<dyn Fabric>, port: PortId, until: Nanos) {
        fabric.spawn(
            "stub-server",
            Some(0),
            Box::new(move |ctx| {
                while ctx.wait_readable(port, Some(until)) {
                    while let Some(raw) = ctx.try_recv(port) {
                        match ClientMessage::from_bytes(&raw.payload) {
                            Ok(ClientMessage::Connect { client_id, .. }) => {
                                let ack = ServerMessage::ConnectAck {
                                    client_id,
                                    spawn: parquake_math::Vec3::ZERO,
                                    arena: 0,
                                };
                                ctx.send(port, raw.from, ack.to_bytes());
                            }
                            Ok(ClientMessage::Move { client_id, cmd }) => {
                                let reply = ServerMessage::Reply {
                                    client_id,
                                    seq: cmd.seq,
                                    sent_at_echo: cmd.sent_at,
                                    frame: 0,
                                    assigned_thread: 0,
                                    origin: parquake_math::Vec3::ZERO,
                                    delta: false,
                                    entities: vec![],
                                    removed: vec![],
                                    events: vec![],
                                    predict: None,
                                };
                                ctx.send(port, raw.from, reply.to_bytes());
                            }
                            _ => {}
                        }
                    }
                }
            }),
        );
    }

    #[test]
    fn swarm_connects_and_measures_latency() {
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let server_port = fabric.alloc_port();
        let until: Nanos = 2_000_000_000; // 2 virtual seconds
        stub_server(&fabric, server_port, until + 500_000_000);
        let cfg = BotSwarmConfig {
            drivers: 2,
            ..BotSwarmConfig::new(10, until)
        };
        let swarm = spawn_swarm(&fabric, &cfg, &[server_port], |_c| 0);
        fabric.run();

        let report = swarm.report();
        assert_eq!(report.connected, 10);
        let stats = &report.stats;
        // 10 bots for ~2 s at 30 ms cadence ≈ 600+ moves.
        assert!(stats.sent > 400, "sent only {}", stats.sent);
        assert!(stats.received > 400, "received only {}", stats.received);
        // Round trip = 2 × link latency (0.15 ms each way) + stub time.
        let avg = stats.avg_latency_ms();
        assert!(avg > 0.25 && avg < 5.0, "avg latency {avg} ms");
    }

    #[test]
    fn bots_follow_thread_redirects() {
        // A two-port server: port A acks and immediately steers the bot
        // to thread 1; port B echoes moves. The bot must switch.
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let port_a = fabric.alloc_port();
        let port_b = fabric.alloc_port();
        let until: Nanos = 1_500_000_000;
        let moves_at_b = Arc::new(Mutex::new(0u64));

        // Port A: acks connects, replies to moves with a redirect.
        fabric.spawn(
            "thread-a",
            Some(0),
            Box::new(move |ctx| {
                while ctx.wait_readable(port_a, Some(until)) {
                    while let Some(raw) = ctx.try_recv(port_a) {
                        match ClientMessage::from_bytes(&raw.payload) {
                            Ok(ClientMessage::Connect { client_id, .. }) => {
                                let ack = ServerMessage::ConnectAck {
                                    client_id,
                                    spawn: parquake_math::Vec3::ZERO,
                                    arena: 0,
                                };
                                ctx.send(port_a, raw.from, ack.to_bytes());
                            }
                            Ok(ClientMessage::Move { client_id, cmd }) => {
                                let reply = ServerMessage::Reply {
                                    client_id,
                                    seq: cmd.seq,
                                    sent_at_echo: cmd.sent_at,
                                    frame: 0,
                                    assigned_thread: 1, // go to B
                                    origin: parquake_math::Vec3::ZERO,
                                    delta: false,
                                    entities: vec![],
                                    removed: vec![],
                                    events: vec![],
                                    predict: None,
                                };
                                ctx.send(port_a, raw.from, reply.to_bytes());
                            }
                            _ => {}
                        }
                    }
                }
            }),
        );
        // Port B: counts the moves it receives and echoes them.
        let counter = moves_at_b.clone();
        fabric.spawn(
            "thread-b",
            Some(1),
            Box::new(move |ctx| {
                while ctx.wait_readable(port_b, Some(until)) {
                    while let Some(raw) = ctx.try_recv(port_b) {
                        if let Ok(ClientMessage::Move { client_id, cmd }) =
                            ClientMessage::from_bytes(&raw.payload)
                        {
                            *counter.lock().unwrap() += 1;
                            let reply = ServerMessage::Reply {
                                client_id,
                                seq: cmd.seq,
                                sent_at_echo: cmd.sent_at,
                                frame: 0,
                                assigned_thread: 1, // stay here
                                origin: parquake_math::Vec3::ZERO,
                                delta: false,
                                entities: vec![],
                                removed: vec![],
                                events: vec![],
                                predict: None,
                            };
                            ctx.send(port_b, raw.from, reply.to_bytes());
                        }
                    }
                }
            }),
        );

        let cfg = BotSwarmConfig {
            drivers: 1,
            ..BotSwarmConfig::new(2, until)
        };
        let swarm = spawn_swarm(&fabric, &cfg, &[port_a, port_b], |_c| 0);
        fabric.run();
        assert_eq!(swarm.report().connected, 2);
        // After the first redirect, all further moves land on B.
        let at_b = *moves_at_b.lock().unwrap();
        assert!(
            at_b > 40,
            "bots never switched threads (moves at B: {at_b})"
        );
    }

    #[test]
    fn bots_rehome_on_unsolicited_cross_arena_acks() {
        // Arena 0 acks the connect, echoes a few moves, then announces
        // — unprompted — that the bot now lives in arena 1, exactly as
        // a live-migration destination re-acks the handed-off slot.
        // The bot must address arena 1 from then on.
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let port_a = fabric.alloc_port();
        let port_b = fabric.alloc_port();
        let until: Nanos = 1_500_000_000;
        let moves_at_b = Arc::new(Mutex::new(0u64));

        fabric.spawn(
            "arena-0",
            Some(0),
            Box::new(move |ctx| {
                let mut moves = 0u64;
                let mut migrated = false;
                while ctx.wait_readable(port_a, Some(until)) {
                    while let Some(raw) = ctx.try_recv(port_a) {
                        match ClientMessage::from_bytes(&raw.payload) {
                            Ok(ClientMessage::Connect { client_id, .. }) => {
                                let ack = ServerMessage::ConnectAck {
                                    client_id,
                                    spawn: parquake_math::Vec3::ZERO,
                                    arena: 0,
                                };
                                ctx.send(port_a, raw.from, ack.to_bytes());
                            }
                            Ok(ClientMessage::Move { client_id, cmd }) => {
                                moves += 1;
                                let reply = ServerMessage::Reply {
                                    client_id,
                                    seq: cmd.seq,
                                    sent_at_echo: cmd.sent_at,
                                    frame: 0,
                                    assigned_thread: 0,
                                    origin: parquake_math::Vec3::ZERO,
                                    delta: false,
                                    entities: vec![],
                                    removed: vec![],
                                    events: vec![],
                                    predict: None,
                                };
                                ctx.send(port_a, raw.from, reply.to_bytes());
                                if moves >= 5 && !migrated {
                                    migrated = true;
                                    let ack = ServerMessage::ConnectAck {
                                        client_id,
                                        spawn: parquake_math::Vec3::ZERO,
                                        arena: 1,
                                    };
                                    ctx.send(port_a, raw.from, ack.to_bytes());
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }),
        );
        let counter = moves_at_b.clone();
        fabric.spawn(
            "arena-1",
            Some(1),
            Box::new(move |ctx| {
                while ctx.wait_readable(port_b, Some(until)) {
                    while let Some(raw) = ctx.try_recv(port_b) {
                        if let Ok(ClientMessage::Move { client_id, cmd }) =
                            ClientMessage::from_bytes(&raw.payload)
                        {
                            *counter.lock().unwrap() += 1;
                            let reply = ServerMessage::Reply {
                                client_id,
                                seq: cmd.seq,
                                sent_at_echo: cmd.sent_at,
                                frame: 0,
                                assigned_thread: 0,
                                origin: parquake_math::Vec3::ZERO,
                                delta: false,
                                entities: vec![],
                                removed: vec![],
                                events: vec![],
                                predict: None,
                            };
                            ctx.send(port_b, raw.from, reply.to_bytes());
                        }
                    }
                }
            }),
        );

        let topology = SwarmTopology {
            arena_ports: vec![vec![port_a], vec![port_b]],
            connect_port: None,
        };
        let cfg = BotSwarmConfig {
            drivers: 1,
            ..BotSwarmConfig::new(1, until)
        };
        let swarm = spawn_swarm_multi(&fabric, &cfg, &topology, |_c| (0, 0));
        fabric.run();
        let report = swarm.report();
        assert_eq!(
            report.rehomed, 1,
            "the cross-arena re-ack was not counted as a re-homing"
        );
        assert_eq!(report.restarts_observed, 0);
        let at_b = *moves_at_b.lock().unwrap();
        assert!(
            at_b > 10,
            "bot never followed the migration to arena 1 (moves at B: {at_b})"
        );
    }

    #[test]
    fn driver_ports_list_each_spawned_driver_in_client_block_order() {
        // 5 players on 3 drivers: blocks [0,2) [2,4) [4,5). A recording
        // server notes which port each client's Connect came from.
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let server_port = fabric.alloc_port();
        let until: Nanos = 500_000_000;
        let seen = Arc::new(Mutex::new(Vec::new()));
        let log = seen.clone();
        fabric.spawn(
            "recorder",
            Some(0),
            Box::new(move |ctx| {
                while ctx.wait_readable(server_port, Some(until)) {
                    while let Some(raw) = ctx.try_recv(server_port) {
                        if let Ok(ClientMessage::Connect { client_id, .. }) =
                            ClientMessage::from_bytes(&raw.payload)
                        {
                            log.lock().unwrap().push((client_id, raw.from));
                        }
                    }
                }
            }),
        );
        let cfg = BotSwarmConfig {
            drivers: 3,
            ..BotSwarmConfig::new(5, until)
        };
        let swarm = spawn_swarm(&fabric, &cfg, &[server_port], |_c| 0);
        assert_eq!(swarm.driver_ports.len(), 3);
        fabric.run();
        let seen = seen.lock().unwrap();
        for c in 0..5u32 {
            let from = seen.iter().find(|&&(id, _)| id == c).map(|&(_, p)| p);
            assert_eq!(
                from,
                Some(swarm.driver_ports[(c / 2) as usize]),
                "client {c} is not behind driver {}",
                c / 2
            );
        }

        // Fewer players than drivers spawn fewer drivers; none spawn none.
        let ports = |players: u32| {
            let fabric = FabricKind::VirtualSmp(Default::default()).build();
            let server_port = fabric.alloc_port();
            let cfg = BotSwarmConfig {
                drivers: 4,
                ..BotSwarmConfig::new(players, until)
            };
            spawn_swarm(&fabric, &cfg, &[server_port], |_c| 0)
                .driver_ports
                .len()
        };
        assert_eq!(ports(3), 3);
        assert_eq!(ports(0), 0);
    }

    #[test]
    fn swarm_is_deterministic_on_virtual_fabric() {
        let run = || {
            let fabric = FabricKind::VirtualSmp(Default::default()).build();
            let server_port = fabric.alloc_port();
            let until: Nanos = 1_000_000_000;
            stub_server(&fabric, server_port, until + 100_000_000);
            let cfg = BotSwarmConfig {
                drivers: 3,
                ..BotSwarmConfig::new(7, until)
            };
            let swarm = spawn_swarm(&fabric, &cfg, &[server_port], |_c| 0);
            fabric.run();
            let s = swarm.report().stats;
            (s.sent, s.received, s.latency_sum_ns)
        };
        assert_eq!(run(), run());
    }
}
