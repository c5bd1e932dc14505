//! Bot driver tasks: the client machines of the testbed.
//!
//! Each driver owns one fabric port and multiplexes many bots over it,
//! exactly like the original setup drove several automatic players per
//! dual-processor client box. Drivers pace every bot at one move per
//! client frame regardless of replies (the paper's worst-case,
//! always-active workload) and collect response statistics.

use std::sync::{Arc, Mutex, PoisonError};

use parquake_fabric::{Fabric, Nanos, PortId, TaskCtx};
use parquake_math::Vec3;
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
        // Stagger bots across the client frame so requests arrive
        // asynchronously (the paper's fine-grain imbalance source).
        let bots: Vec<Bot> = (lo..hi)
            .map(|c| {
                let stagger = ((c - lo) as Nanos * FRAME_NS) / (hi - lo) as Nanos;
                Bot::new(c, stagger, cfg, &topology, initial(c))
            })
            .collect();
        let cfg = cfg.clone();
        let sink = sink.clone();
        fabric.spawn(
            &format!("bots-{d}"),
            None, // client machines: off the modelled server CPUs
            Box::new(move |ctx| {
                drive(ctx, port, bots, &topology, &cfg, &sink);
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

/// Client frame length in nanoseconds.
const FRAME_NS: Nanos = CLIENT_FRAME_MS as Nanos * 1_000_000;
/// First Connect-retry interval; doubles per unanswered retry.
const RETRY_MIN: Nanos = 100_000_000;
/// Backoff ceiling for Connect retries.
const RETRY_MAX: Nanos = 1_600_000_000;
/// A playing bot that hears nothing for longer than this assumes its
/// session died (server timeout, heavy loss) and reconnects.
const STARVATION: Nanos = 1_000_000_000;

/// Where a bot's session stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Link {
    /// Not acked: a Connect goes out each turn, `backoff` after the
    /// previous one (exponential, so lost acks are re-requested quickly
    /// without flooding a dead link).
    Connecting { backoff: Nanos },
    /// Acked and moving; `last_heard` feeds the starvation watchdog.
    Playing { last_heard: Nanos },
    /// The bot's play window closed. Terminal.
    Left,
}

/// One simulated client. Its session changes only through the named
/// transitions: [`Bot::tick`] (leave, starve, Connect or Move) and
/// [`Bot::hear`]'s ack, reply and bye.
struct Bot {
    id: u32,
    mind: BotMind,
    /// Prediction state machine when the swarm predicts.
    predictor: Option<Predictor>,
    /// The arena asked for at Connect time.
    requested: u16,
    /// The arena and thread addressed now, updated from acks and
    /// replies.
    arena: usize,
    thread: usize,
    link: Link,
    /// Highest reply seq heard this session (-1 = none yet): the fault
    /// fabric can duplicate datagrams, and a stale copy must not count
    /// twice. A starved, dropped or departed bot still hears its old
    /// session's replies, so the window outlives the link state; only
    /// an ack starts it over.
    seen: i64,
    /// Connection-counted once, however often the bot reconnects.
    ever_acked: bool,
    /// End of the play window (the population ramp).
    leave_at: Nanos,
    next_at: Nanos,
}

impl Bot {
    /// Client `id`, addressing `(arena, thread)` (clamped into the
    /// topology), first acting `stagger` into its play window.
    fn new(
        id: u32,
        stagger: Nanos,
        cfg: &BotSwarmConfig,
        topology: &SwarmTopology,
        (arena, thread): (u16, usize),
    ) -> Bot {
        let arena = (arena as usize).min(topology.arena_ports.len() - 1);
        let (join_at, leave_at) = cfg
            .ramp
            .map_or((0, Nanos::MAX), |r| r.window(id, cfg.players));
        Bot {
            id,
            mind: BotMind::new(id, cfg.seed, cfg.behavior.clone()),
            predictor: cfg
                .predict
                .as_ref()
                .map(|m| Predictor::new(m.0.clone(), Vec3::ZERO)),
            requested: arena as u16,
            arena,
            thread: thread.min(topology.arena_ports[arena].len() - 1),
            link: Link::Connecting { backoff: RETRY_MIN },
            seen: -1,
            ever_acked: false,
            leave_at,
            next_at: join_at + stagger,
        }
    }

    fn home(&self, topology: &SwarmTopology) -> PortId {
        topology.arena_ports[self.arena][self.thread]
    }

    /// The bot's turn at `now`: what it sends and where, if anything.
    fn tick(
        &mut self,
        now: Nanos,
        cfg: &BotSwarmConfig,
        topology: &SwarmTopology,
        rep: &mut SwarmReport,
    ) -> Option<(PortId, ClientMessage)> {
        let client_id = self.id;
        if self.link != Link::Left && now >= self.leave_at {
            // The window closed: say goodbye (if ever acked) and go
            // quiet. Alternate the leave path: even bots disconnect
            // through the front door (the director's book removal), odd
            // bots at their arena directly (the lifecycle-notice
            // reconciliation path).
            self.link = Link::Left;
            self.next_at = cfg.send_until;
            let to = match topology.connect_port {
                Some(front) if client_id % 2 == 0 => front,
                _ => self.home(topology),
            };
            return self
                .ever_acked
                .then_some((to, ClientMessage::Disconnect { client_id }));
        }
        if self.next_at > now {
            return None;
        }
        let backoff = match self.link {
            Link::Left => return None,
            Link::Playing { last_heard } if now.saturating_sub(last_heard) <= STARVATION => {
                let msg = self.play(now, cfg, rep);
                return Some((self.home(topology), msg));
            }
            // Starvation watchdog: a session that stops producing
            // replies (lost acked state, server-side timeout) falls back
            // to the Connect handshake instead of wedging.
            Link::Playing { .. } => RETRY_MIN,
            Link::Connecting { backoff } => backoff,
        };
        self.link = Link::Connecting {
            backoff: (backoff * 2).min(RETRY_MAX),
        };
        self.next_at = now + backoff;
        // Connects go through the admission front door when the
        // topology has one; otherwise straight to the home port.
        let to = topology.connect_port.unwrap_or(self.home(topology));
        let arena = self.requested;
        Some((to, ClientMessage::Connect { client_id, arena }))
    }

    /// This client frame's Move, paced one frame on at the
    /// always-active cadence with asynchronous jitter.
    fn play(&mut self, now: Nanos, cfg: &BotSwarmConfig, rep: &mut SwarmReport) -> ClientMessage {
        let mut cmd = self.mind.think(now, CLIENT_FRAME_MS);
        if let Some(p) = self.predictor.as_mut() {
            // Opt in on the wire and act on the input locally, a full
            // round trip before the server confirms it.
            cmd.predict_ack = Some(p.trailer_ack());
            p.predict(&cmd);
        }
        rep.stats.note_sent();
        rep.per_arena[self.arena].note_sent();
        let jitter = if cfg.jitter_ns > 0 {
            let j = self.mind.rng.next_u32() as Nanos % (2 * cfg.jitter_ns);
            j as i64 - cfg.jitter_ns as i64
        } else {
            0
        };
        self.next_at = (self.next_at as i64 + FRAME_NS as i64 + jitter) as Nanos;
        if self.next_at <= now {
            self.next_at = now + FRAME_NS / 2;
        }
        ClientMessage::Move {
            client_id: self.id,
            cmd,
        }
    }

    /// Address the arena an ack names — the admission policy's or the
    /// migration's placement — at the thread whose port sent it: a
    /// directory may have claimed the slot in any thread's home block.
    /// An arena past the table is ignored. True when the bot moved to a
    /// different arena.
    fn address(&mut self, arena: u16, from: PortId, topology: &SwarmTopology) -> bool {
        let a = arena as usize;
        let Some(ports) = topology.arena_ports.get(a) else {
            return false;
        };
        let moved = a != self.arena;
        self.arena = a;
        self.thread = ports
            .iter()
            .position(|&p| p == from)
            .unwrap_or(self.thread.min(ports.len() - 1));
        moved
    }

    /// Hear one server message from port `from`. Each arm is one
    /// transition; a departed bot ignores acks, and a bye matters only
    /// while playing.
    fn hear(
        &mut self,
        msg: ServerMessage,
        from: PortId,
        now: Nanos,
        topology: &SwarmTopology,
        rep: &mut SwarmReport,
    ) {
        match (msg, self.link) {
            // Solicited ack: a (re-)Connect was acked. The session's
            // reply-seq space starts over, so the duplicate-suppression
            // window must too — otherwise every reply of the new session
            // reads as a stale copy and the response accounting starves
            // after a reconnect.
            (ServerMessage::ConnectAck { arena, spawn, .. }, Link::Connecting { .. }) => {
                self.link = Link::Playing { last_heard: now };
                self.seen = -1;
                if let Some(p) = self.predictor.as_mut() {
                    p.reset(spawn);
                }
                self.address(arena, from, topology);
                if !self.ever_acked {
                    self.ever_acked = true;
                    rep.connected += 1;
                }
                // Start moving on the next tick.
                self.next_at = now;
            }
            // Unsolicited ack: a supervised arena restored from its
            // checkpoint re-announcing the slot, or a live migration's
            // destination claiming the session. Re-home either way —
            // after a handoff the old address is a despawned slot and
            // moves sent there vanish until the starvation watchdog
            // gives up.
            (ServerMessage::ConnectAck { arena, .. }, Link::Playing { .. }) => {
                if self.address(arena, from, topology) {
                    rep.rehomed += 1;
                } else {
                    rep.restarts_observed += 1;
                }
                self.link = Link::Playing { last_heard: now };
            }
            (
                ServerMessage::Reply {
                    seq,
                    sent_at_echo,
                    assigned_thread,
                    origin,
                    delta,
                    entities,
                    removed,
                    predict,
                    ..
                },
                _,
            ) => {
                if let Link::Playing { last_heard } = &mut self.link {
                    *last_heard = now;
                }
                // Count each reply once: seq echoes are strictly
                // increasing per session.
                let fresh = seq as i64 > self.seen;
                if fresh && sent_at_echo > 0 && now >= sent_at_echo {
                    rep.stats.note_reply(now - sent_at_echo);
                    rep.per_arena[self.arena].note_reply(now - sent_at_echo);
                }
                if let (true, Some(p), Some(rp)) = (fresh, self.predictor.as_mut(), &predict) {
                    p.reconcile(origin, rp);
                }
                self.seen = self.seen.max(seq as i64);
                // Follow server steering (dynamic region-affine
                // assignment) within the bot's current arena.
                let t = assigned_thread as usize;
                if t < topology.arena_ports[self.arena].len() {
                    self.thread = t;
                }
                self.mind.observe_update(origin, delta, &entities, &removed);
            }
            // The server reclaimed the slot: rejoin from scratch.
            (ServerMessage::Bye { .. }, Link::Playing { .. }) => {
                self.link = Link::Connecting { backoff: RETRY_MIN };
                self.next_at = now;
            }
            _ => {}
        }
    }
}

/// One driver task: its bots act in client order, each at its own
/// schedule, and replies are drained while the driver sleeps.
fn drive(
    ctx: &TaskCtx,
    port: PortId,
    mut bots: Vec<Bot>,
    topology: &SwarmTopology,
    cfg: &BotSwarmConfig,
    sink: &Mutex<SwarmReport>,
) {
    let first = bots.first().map_or(0, |b| b.id);
    let mut rep = SwarmReport::new(topology.arena_ports.len());
    loop {
        let now = ctx.now();
        if now >= cfg.send_until {
            break;
        }
        for bot in &mut bots {
            if let Some((to, msg)) = bot.tick(now, cfg, topology, &mut rep) {
                ctx.charge(THINK_COST_NS);
                ctx.send(port, to, msg.to_bytes());
            }
        }
        // Sleep until the next bot action (or leave), draining replies
        // meanwhile.
        let wake = bots
            .iter()
            .filter(|b| b.link != Link::Left)
            .map(|b| b.next_at.min(b.leave_at))
            .min()
            .unwrap_or(cfg.send_until);
        let deadline = wake.min(cfg.send_until);
        while ctx.now() < deadline && ctx.wait_readable(port, Some(deadline)) {
            while let Some(raw) = ctx.try_recv(port) {
                let Ok(msg) = ServerMessage::from_bytes(&raw.payload) else {
                    continue;
                };
                let (ServerMessage::ConnectAck { client_id, .. }
                | ServerMessage::Reply { client_id, .. }
                | ServerMessage::Bye { client_id }) = msg;
                if let Some(bot) = bots.get_mut(client_id.wrapping_sub(first) as usize) {
                    bot.hear(msg, raw.from, ctx.now(), topology, &mut rep);
                }
            }
        }
    }

    for p in bots.iter().filter_map(|b| b.predictor.as_ref()) {
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
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

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
                                    spawn: Vec3::ZERO,
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
                                    origin: Vec3::ZERO,
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
                                    spawn: Vec3::ZERO,
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
                                    origin: Vec3::ZERO,
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
                                origin: Vec3::ZERO,
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
                                    spawn: Vec3::ZERO,
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
                                    origin: Vec3::ZERO,
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
                                        spawn: Vec3::ZERO,
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
                                origin: Vec3::ZERO,
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

    /// The session rules as `drive` kept them in parallel vectors
    /// before the record existed, restated over plain fields for one
    /// bot: the reference [`Bot`] must match step for step.
    struct Plain {
        id: u32,
        mind: BotMind,
        requested: u16,
        cur_arena: usize,
        cur_thread: usize,
        acked: bool,
        ever_acked: bool,
        backoff: Nanos,
        last_heard: Nanos,
        last_rx_seq: i64,
        leave_at: Nanos,
        left: bool,
        next_at: Nanos,
        rep: SwarmReport,
    }

    impl Plain {
        fn tick(
            &mut self,
            now: Nanos,
            cfg: &BotSwarmConfig,
            topo: &SwarmTopology,
        ) -> Option<(PortId, ClientMessage)> {
            let client_id = self.id;
            let home = topo.arena_ports[self.cur_arena][self.cur_thread];
            if self.left {
                return None;
            }
            if now >= self.leave_at {
                self.left = true;
                self.next_at = cfg.send_until;
                let to = match topo.connect_port {
                    Some(front) if client_id % 2 == 0 => front,
                    _ => home,
                };
                return self
                    .ever_acked
                    .then_some((to, ClientMessage::Disconnect { client_id }));
            }
            if self.next_at > now {
                return None;
            }
            if self.acked && now.saturating_sub(self.last_heard) > STARVATION {
                self.acked = false;
                self.backoff = RETRY_MIN;
            }
            if !self.acked {
                let to = topo.connect_port.unwrap_or(home);
                self.next_at = now + self.backoff;
                self.backoff = (self.backoff * 2).min(RETRY_MAX);
                let arena = self.requested;
                return Some((to, ClientMessage::Connect { client_id, arena }));
            }
            let cmd = self.mind.think(now, CLIENT_FRAME_MS);
            self.rep.stats.note_sent();
            self.rep.per_arena[self.cur_arena].note_sent();
            let j = self.mind.rng.next_u32() as Nanos % (2 * cfg.jitter_ns);
            let jitter = j as i64 - cfg.jitter_ns as i64;
            self.next_at = (self.next_at as i64 + FRAME_NS as i64 + jitter) as Nanos;
            if self.next_at <= now {
                self.next_at = now + FRAME_NS / 2;
            }
            Some((home, ClientMessage::Move { client_id, cmd }))
        }

        fn readdress(&mut self, a: usize, from: PortId, topo: &SwarmTopology) {
            self.cur_arena = a;
            if let Some(t) = topo.arena_ports[a].iter().position(|&p| p == from) {
                self.cur_thread = t;
            } else {
                self.cur_thread = self.cur_thread.min(topo.arena_ports[a].len() - 1);
            }
        }

        fn ack(&mut self, arena: u16, from: PortId, now: Nanos, topo: &SwarmTopology) {
            let a = arena as usize;
            if !self.acked && !self.left {
                self.acked = true;
                self.backoff = RETRY_MIN;
                self.last_heard = now;
                self.last_rx_seq = -1;
                if a < topo.arena_ports.len() {
                    self.readdress(a, from, topo);
                }
                if !self.ever_acked {
                    self.ever_acked = true;
                    self.rep.connected += 1;
                }
                self.next_at = now;
            } else if self.acked && !self.left {
                if a < topo.arena_ports.len() {
                    if a != self.cur_arena {
                        self.rep.rehomed += 1;
                    } else {
                        self.rep.restarts_observed += 1;
                    }
                    self.readdress(a, from, topo);
                } else {
                    self.rep.restarts_observed += 1;
                }
                self.last_heard = now;
            }
        }

        fn reply(&mut self, seq: u32, echo: Nanos, thread: u8, now: Nanos, topo: &SwarmTopology) {
            self.last_heard = now;
            let fresh = seq as i64 > self.last_rx_seq;
            if fresh && echo > 0 && now >= echo {
                self.rep.stats.note_reply(now - echo);
                self.rep.per_arena[self.cur_arena].note_reply(now - echo);
            }
            self.last_rx_seq = self.last_rx_seq.max(seq as i64);
            let t = thread as usize;
            if t < topo.arena_ports[self.cur_arena].len() {
                self.cur_thread = t;
            }
            self.mind.observe_update(reply_origin(seq), false, &[], &[]);
        }

        fn bye(&mut self, now: Nanos) {
            if self.acked && !self.left {
                self.acked = false;
                self.backoff = RETRY_MIN;
                self.next_at = now;
            }
        }
    }

    fn reply_origin(seq: u32) -> Vec3 {
        Vec3::new(seq as f32, -(seq as f32), 24.0)
    }

    /// The record and the plain fields agree.
    fn agree(bot: &Bot, p: &Plain, rep: &SwarmReport) -> Result<(), TestCaseError> {
        match bot.link {
            Link::Connecting { backoff } => {
                prop_assert!(
                    !p.acked && !p.left,
                    "connecting, plain {} {}",
                    p.acked,
                    p.left
                );
                prop_assert_eq!(backoff, p.backoff);
            }
            Link::Playing { last_heard } => {
                prop_assert!(p.acked && !p.left, "playing, plain {} {}", p.acked, p.left);
                prop_assert_eq!(last_heard, p.last_heard);
            }
            Link::Left => prop_assert!(p.left, "left, plain still in session"),
        }
        prop_assert_eq!(bot.seen, p.last_rx_seq);
        prop_assert_eq!((bot.arena, bot.thread), (p.cur_arena, p.cur_thread));
        prop_assert_eq!((bot.next_at, bot.ever_acked), (p.next_at, p.ever_acked));
        let counts = |r: &SwarmReport| {
            let arenas: Vec<_> = r.per_arena.iter().map(|s| (s.sent, s.received)).collect();
            let tallies = (r.connected, r.rehomed, r.restarts_observed);
            (
                tallies,
                r.stats.sent,
                r.stats.received,
                r.stats.latency_sum_ns,
                arenas,
            )
        };
        prop_assert_eq!(counts(rep), counts(&p.rep));
        Ok(())
    }

    /// Gaps before a tick, from back-to-back to past `STARVATION`.
    const GAPS: [Nanos; 7] = [
        0,
        1,
        7_000_000,
        FRAME_NS,
        100_000_000,
        400_000_000,
        1_200_000_000,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Ticks, acks (solicited or not, naming the current arena,
        /// another one or one past the table), replies duplicated and
        /// reordered, byes, and silences around `STARVATION` leave the
        /// record where the plain-field rules leave them, and both send
        /// the same message to the same port at every tick.
        #[test]
        fn the_session_record_follows_the_plain_rules(
            id in 6u32..8,
            front in any::<bool>(),
            initial in (0u16..4, 0usize..4),
            stagger in 0..FRAME_NS,
            leave_at in prop_oneof![Just(Nanos::MAX), 0..20_000_000_000u64],
            steps in prop::collection::vec(
                (0u8..9, any::<u8>(), any::<u8>(), any::<u8>()),
                0..200,
            ),
        ) {
            let topo = SwarmTopology {
                arena_ports: vec![vec![10, 11], vec![20], vec![30, 31, 32]],
                connect_port: front.then_some(99),
            };
            // Every arena's ports, and one no arena owns.
            let ports = [10, 11, 20, 30, 31, 32, 55];
            let cfg = BotSwarmConfig::new(8, 400_000_000_000);
            let mut bot = Bot::new(id, stagger, &cfg, &topo, initial);
            bot.leave_at = leave_at;
            let mut p = Plain {
                id,
                mind: BotMind::new(id, cfg.seed, cfg.behavior.clone()),
                requested: bot.requested,
                cur_arena: bot.arena,
                cur_thread: bot.thread,
                acked: false,
                ever_acked: false,
                backoff: RETRY_MIN,
                last_heard: 0,
                last_rx_seq: -1,
                leave_at,
                left: false,
                next_at: stagger,
                rep: SwarmReport::new(topo.arena_ports.len()),
            };
            let mut rep = SwarmReport::new(topo.arena_ports.len());
            let mut now: Nanos = 0;
            let mut last_reply = None;
            agree(&bot, &p, &rep)?;
            for (kind, a, b, c) in steps {
                match kind {
                    0..=3 => {
                        now += GAPS[c as usize % GAPS.len()];
                        if kind == 3 && p.acked && !p.left {
                            // Silence one short of, exactly at, or one
                            // past the watchdog's limit.
                            let limit = p.last_heard + STARVATION + a as Nanos % 3;
                            now = now.max(limit - 1);
                        }
                        let sent = bot.tick(now, &cfg, &topo, &mut rep);
                        prop_assert_eq!(sent, p.tick(now, &cfg, &topo));
                    }
                    4 => {
                        now += c as Nanos % 3 * 1_000_000;
                        let cur = p.cur_arena as u16;
                        let arena = [cur, (cur + 1) % 3, 7][a as usize % 3];
                        let from = ports[b as usize % ports.len()];
                        let spawn = Vec3::ZERO;
                        let ack = ServerMessage::ConnectAck { client_id: id, spawn, arena };
                        bot.hear(ack, from, now, &topo, &mut rep);
                        p.ack(arena, from, now, &topo);
                    }
                    5 | 6 => {
                        now += c as Nanos % 3 * 1_000_000;
                        // A new reply (seqs drawn out of order), or the
                        // last one again.
                        let echo = [0, now.saturating_sub(2_000_000), now + 1][b as usize % 3];
                        let (seq, echo, thread) = match last_reply {
                            Some(old) if kind == 6 => old,
                            _ => (a as u32 % 16, echo, c % 4),
                        };
                        last_reply = Some((seq, echo, thread));
                        let reply = ServerMessage::Reply {
                            client_id: id,
                            seq,
                            sent_at_echo: echo,
                            frame: 0,
                            assigned_thread: thread,
                            origin: reply_origin(seq),
                            delta: false,
                            entities: vec![],
                            removed: vec![],
                            events: vec![],
                            predict: None,
                        };
                        bot.hear(reply, ports[0], now, &topo, &mut rep);
                        p.reply(seq, echo, thread, now, &topo);
                    }
                    _ => {
                        let bye = ServerMessage::Bye { client_id: id };
                        bot.hear(bye, ports[0], now, &topo, &mut rep);
                        p.bye(now);
                    }
                }
                agree(&bot, &p, &rep)?;
            }
        }
    }
}
