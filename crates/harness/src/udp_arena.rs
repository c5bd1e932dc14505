//! The real-network UDP gateway: one socket, every arena and every
//! server thread behind it.
//!
//! ```text
//!   UDP 127.0.0.1:port ─(inbound pump)─► Connect ──► front port
//!                                        Move/Disc ─► arena[k][thread]
//!   socket ◄─(send_to, on the sending thread)─ gateway port (a sink) ◄── replies
//! ```
//!
//! The paper's server binds one UDP port per thread so each thread has
//! a private request queue (§3.1). Here the private queue is a fabric
//! port: `threads == 1` serves the arenas as single-threaded runtimes
//! on a shared `workers` pool, `threads > 1` gives every arena its own
//! region-locked parallel runtime with one request port per thread,
//! and either way the gateway routes each `Move` to the port of the
//! thread the client was dealt to.
//!
//! What the gateway knows of a client is one session — reply address,
//! last arrival, booked placement — in the one striped session book of
//! the [`Router`] the pump and the sink share; the private `session` module holds
//! its lifetime. An admitted `Connect` opens the session *before* it is
//! forwarded, and only a session with no placement that has been silent
//! for a rebind grace is ever evicted, so every payload a server emits
//! for a client it serves finds its address; one that does not is
//! counted `replies_unroutable` on the spot. A datagram takes **one**
//! stripe lock: in
//! [`Router::inbound`] (admission, and the booked arena **and** dealt
//! thread; the pump's seeded fault lottery — drop, duplicate, delay,
//! client→server only — then deals the admitted datagram its fate) or
//! in [`Router::outbound`] (book the placement a `ConnectAck` or
//! lifecycle notice names, read the address). The paper's server
//! sends a reply from the thread that built it (§2.1), and so does this
//! gateway: its fabric port is a sink
//! ([`RealFabric::sink_port`]) that runs `Router::outbound` and one
//! `send_to` on the thread that sent the payload — a pool worker, a
//! server thread, or the director mirroring a lifecycle notice — so a
//! payload's sender books it in send order and no task wakes to
//! forward it.
//!
//! The inbound pump is one blocking `recv_from` with a 10 ms idle
//! timeout, then decode, route, draw the fates and hand every copy to
//! the fabric. It schedules nothing: a fault-delayed copy goes in with
//! its delay ([`RealFabric::send_external_delayed`]) and the
//! destination port holds it until it is due, as a
//! [`parquake_fabric::virt::VirtualSmp`] port does. Where batched
//! syscalls are available (see [`crate::mmsg`]), the pump drains the
//! rest of a burst with one `recvmmsg` and forwards it into the fabric
//! under one queue lock per port
//! ([`parquake_fabric::real::RealFabric::send_external_batch`]). The
//! pump and every server task stop at the run's `end_time` on the
//! fabric's clock.
//!
//! Accounting closes at every layer: the pump's [`GatewayLane`] closes
//! on its own and is the report's totals, the front door balances, and
//! per arena `pump_forwarded + director_forwarded == processed +
//! queue_dropped + pending_at_shutdown`.

use std::collections::HashMap;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parquake_arena::{
    spawn_directory, AdmissionStats, ArenaDirectoryConfig, ArenaHandle, DirectoryReport,
};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, PredictMap, SwarmRamp, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::{FaultConfig, FaultLottery};
use parquake_fabric::real::RealFabric;
use parquake_fabric::{Fabric, Nanos, PortId};
use parquake_interest::InterestStats;
use parquake_metrics::GatewayLane;
use parquake_protocol::{ClientMessage, CodecError, Decode, ServerHeader, MAX_DATAGRAM};
use parquake_server::{InterestMode, LockPolicy, ServerConfig, ServerKind};

use crate::mmsg;

mod session;
use session::SessionBook;
pub use session::Transition;

/// How long an inbound pump blocks in `recv_from` when nothing
/// arrives — the poll cadence for the shutdown deadline.
const PUMP_IDLE_TIMEOUT: Duration = Duration::from_millis(10);

/// One blocking receive, returned with the instant the datagram was in
/// hand. The instant is read *after* the wait, which may have lasted up
/// to [`PUMP_IDLE_TIMEOUT`]: a clock value from before it is up to that
/// stale, and a session's `last_seen` is stamped with this one.
fn recv_stamped(sock: &UdpSocket, buf: &mut [u8]) -> std::io::Result<(usize, SocketAddr, Instant)> {
    sock.recv_from(buf)
        .map(|(n, from)| (n, from, Instant::now()))
}

/// Gateway options.
#[derive(Clone, Debug)]
pub struct UdpArenaOpts {
    /// The single UDP port every arena is served on.
    pub port: u16,
    /// Must be 1: the gateway is one socket and one inbound pump, and
    /// [`run_udp_arena_server`] refuses any other value.
    pub gateway_shards: u32,
    /// Number of arenas.
    pub arenas: u32,
    /// Server threads per arena. 1 runs every arena as a
    /// single-threaded runtime on the shared `workers` pool; more give
    /// each arena a region-locked parallel runtime of its own with one
    /// private request queue per thread (the paper's server), and
    /// exclude what only the pool can do: elasticity, supervision and
    /// live migration.
    pub threads: u32,
    /// Shared-pool worker tasks (`threads == 1` only).
    pub workers: u32,
    /// Player capacity per arena.
    pub slots_per_arena: u16,
    pub map: MapGenConfig,
    /// Wall-clock run time.
    pub duration: Duration,
    /// Inbound fault injection (drop/duplicate/delay); default none.
    pub fault: FaultConfig,
    /// Server-side inactivity timeout: slots silent this long are
    /// reclaimed (a `Bye` is sent). Zero disables reclaim; the
    /// gateway's address-rebind grace then falls back to one second.
    pub client_timeout: Duration,
    /// How visible-entity sets are computed: the batch DDM sweep (the
    /// default), per-client scans, or the sweep shadowed by the scan.
    pub interest: InterestMode,
    /// Elastic ceiling: the directory may grow past `arenas` up to
    /// this many live arenas under admission pressure (0 = fixed
    /// fleet).
    pub max_arenas: u32,
    /// How long an elastic arena's occupancy must stay zero before it
    /// is reaped.
    pub linger: Duration,
    /// Arena supervision (checkpoint/restore + watchdog) and its
    /// per-frame fault lottery, handed to the directory as is (see
    /// [`ArenaDirectoryConfig::supervision`]); `None` = unsupervised.
    pub supervision: Option<FaultConfig>,
    /// Live-migration spread threshold: when the hottest live arena
    /// holds at least this many more clients than the coldest open
    /// one, the director migrates one slot per tick (0 = off).
    pub migrate_spread: u32,
    /// Drain-before-reap: migrate the last residents out of a
    /// lingering elastic arena instead of waiting their sessions out.
    pub migrate_drain: bool,
}

impl Default for UdpArenaOpts {
    fn default() -> Self {
        UdpArenaOpts {
            port: 27500,
            gateway_shards: 1,
            arenas: 2,
            threads: 1,
            workers: 2,
            slots_per_arena: 32,
            map: MapGenConfig::small_arena(1),
            duration: Duration::from_secs(5),
            fault: FaultConfig::none(),
            client_timeout: Duration::from_secs(2),
            interest: InterestMode::Sweep,
            max_arenas: 0,
            linger: Duration::from_millis(500),
            supervision: None,
            migrate_spread: 0,
            migrate_drain: false,
        }
    }
}

/// One arena's traffic lane through the gateway.
// lockcheck: identity(pump_forwarded + director_forwarded == processed + queue_dropped + pending_at_shutdown)
#[derive(Clone, Debug, Default)]
pub struct ArenaLane {
    /// Datagrams the pump routed straight to this arena's ports.
    pub pump_forwarded: u64,
    /// Datagrams the director forwarded to this arena's ports.
    pub director_forwarded: u64,
    /// Datagrams the arena drained from its ports.
    pub processed: u64,
    /// Datagrams discarded by the arena ports' bounded-queue policy.
    pub queue_dropped: u64,
    /// Datagrams still queued (or held for a fault delay) on the arena
    /// ports at shutdown.
    pub pending_at_shutdown: u64,
    /// Replies the arena generated.
    pub replies: u64,
    /// Frames the arena executed.
    pub frames: u64,
    /// Clients the admission policy placed here.
    pub admitted: u64,
}

impl ArenaLane {
    /// Does every datagram that reached this arena's queue have exactly
    /// one fate?
    pub fn accounting_closed(&self) -> bool {
        self.pump_forwarded + self.director_forwarded
            == self.processed + self.queue_dropped + self.pending_at_shutdown
    }
}

/// Summary returned when the arena gateway shuts down.
// lockcheck: identity(datagrams_in == decode_rejected + spoof_rejected + arena_unknown + fault_dropped + delivered, gateway-lane and per-arena-lane closure)
#[derive(Clone, Debug, Default)]
pub struct UdpArenaReport {
    /// Datagrams read off the socket.
    pub datagrams_in: u64,
    /// Inbound datagrams that failed protocol decode.
    pub decode_rejected: u64,
    /// Inbound datagrams refused by the address admission policy.
    pub spoof_rejected: u64,
    /// `Move`/`Disconnect` datagrams whose sender has no placed arena
    /// yet (ack in flight) — dropped, counted.
    pub arena_unknown: u64,
    /// Inbound datagrams eaten by the fault-injection stage.
    pub fault_dropped: u64,
    /// Extra copies created by the fault-injection stage.
    pub fault_duplicated: u64,
    /// Datagram copies handed to fabric ports (front door + arenas).
    pub forwarded: u64,
    /// Of `forwarded`, copies sent to the directory's front door.
    pub to_front: u64,
    /// Front-door datagrams the director drained.
    pub front_drained: u64,
    /// Front-door datagrams discarded by its bounded queue.
    pub front_queue_dropped: u64,
    /// Front-door datagrams still queued at shutdown.
    pub front_pending: u64,
    /// Datagrams written to the socket.
    pub datagrams_out: u64,
    /// Client-bound payloads whose client has no session.
    pub replies_unroutable: u64,
    /// The gateway's one lane, which must reproduce the totals above.
    /// A one-element `Vec` because the benchmark package reads it as
    /// one.
    pub shards: Vec<GatewayLane>,
    /// Per-arena traffic lanes (one per provisioned cell — an elastic
    /// gateway has lanes past the boot fleet).
    pub lanes: Vec<ArenaLane>,
    /// Arena indices whose director-side counters were absent when the
    /// lanes were built — a provisioned cell the admission tables never
    /// heard of means the fleet views drifted, so the report refuses to
    /// close rather than silently zero-filling the lane.
    pub lanes_missing_counters: Vec<u16>,
    /// The director's routing counters.
    pub admission: AdmissionStats,
    /// Elastic spawn/reap accounting (fixed fleet ⇒ no events).
    pub elastic: parquake_metrics::ElasticStats,
    /// Supervision and migration accounting. With `supervision`
    /// `None` only the migration counters (and `Migrated` events) can
    /// be nonzero.
    pub supervisor: parquake_metrics::SupervisorStats,
    /// Interest-matching accounting merged over every arena (all zero
    /// under [`InterestMode::Scan`]).
    pub interest: InterestStats,
}

impl UdpArenaReport {
    /// Close the books at every layer: the gateway lane on its own and
    /// against the totals, the front door, and each arena's lane.
    pub fn accounting_closed(&self) -> bool {
        let delivered = self.forwarded - self.fault_duplicated;
        let gateway = self.datagrams_in
            == self.decode_rejected
                + self.spoof_rejected
                + self.arena_unknown
                + self.fault_dropped
                + delivered;
        let front =
            self.to_front == self.front_drained + self.front_queue_dropped + self.front_pending;
        // The lane closes on its own and must *be* the totals — a
        // datagram counted on the lane but lost from the totals (or
        // vice versa) opens the report. Reports built without the lane
        // (unit-test fixtures) skip this layer.
        let lane = self.shards.iter().all(|l| {
            l.accounting_closed()
                && l.datagrams_in == self.datagrams_in
                && l.decode_rejected == self.decode_rejected
                && l.spoof_rejected == self.spoof_rejected
                && l.arena_unknown == self.arena_unknown
                && l.fault_dropped == self.fault_dropped
                && l.fault_duplicated == self.fault_duplicated
                && l.forwarded == self.forwarded
                && l.to_front == self.to_front
                && l.datagrams_out == self.datagrams_out
                && l.replies_unroutable == self.replies_unroutable
        });
        gateway
            && front
            && lane
            && self.lanes_missing_counters.is_empty()
            && self.lanes.iter().all(|l| l.accounting_closed())
    }
}

/// Where the gateway believes a client's session lives: the serving
/// arena and, within it, the dealt server thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GwPlacement {
    pub arena: u16,
    /// The dealt thread *index*; pooled (single-port) arenas clamp it
    /// to 0 at routing time, dedicated multi-thread arenas route moves
    /// to this thread's request port.
    pub thread: u16,
}

/// Classify one outbound fabric payload: the client it concerns, the
/// transition it applies to that client's session (`None` for a
/// `Reply`), and whether it goes on the wire (server messages do,
/// lifecycle notices are booked and never sent). `None` for garbage.
///
/// A server message is classified from its header alone
/// ([`ServerHeader::peek`]); a lifecycle notice is decoded only when
/// the tag is no server message's. So a `Reply` cut inside its lists
/// still goes on the wire, where the client's decoder drops it; a
/// payload cut inside a reply's fixed part, or any cut `ConnectAck` or
/// `Bye`, is garbage.
///
/// `from_pos` is the payload's fabric source resolved to an
/// `(arena, thread)` position when it came from an arena thread's
/// request port. A `ConnectAck` whose source thread belongs to the
/// ack's own arena teaches the gateway the client's *dealt thread*
/// (an ack relayed from anywhere else books thread 0 rather than trust
/// a foreign index). Lifecycle notices carry the thread explicitly.
pub fn classify_outbound(
    payload: &[u8],
    from_pos: Option<(u16, u16)>,
) -> Option<(u32, Option<Transition>, bool)> {
    use parquake_server::LifecycleEvent::{self, *};
    Some(match ServerHeader::peek(payload) {
        Ok(ServerHeader::ConnectAck { client_id, arena }) => {
            let thread = from_pos.filter(|&(a, _)| a == arena).map_or(0, |(_, t)| t);
            (
                client_id,
                Some(Transition::Book(GwPlacement { arena, thread })),
                true,
            )
        }
        Ok(ServerHeader::Bye { client_id }) => (client_id, Some(Transition::Bye), true),
        Ok(ServerHeader::Reply { client_id }) => (client_id, None, true),
        Err(CodecError::BadTag(..)) => {
            let ev = LifecycleEvent::from_bytes(payload).ok()?;
            let transition = match ev {
                Connected { thread, .. } | Migrated { thread, .. } => {
                    Transition::Book(GwPlacement {
                        arena: ev.arena(),
                        thread,
                    })
                }
                Disconnected { .. } | Reclaimed { .. } => Transition::EndAt(ev.arena()),
                Rejected { .. } => Transition::Refuse,
            };
            (ev.client_id(), Some(transition), false)
        }
        Err(_) => return None,
    })
}

/// Resolve a placed client's Move/Disconnect destination: the arena
/// cell index and the dealt thread's request port (clamped for pooled
/// single-port arenas). `None` means no routable placement.
pub(crate) fn route_move(
    placement: Option<GwPlacement>,
    arena_ports: &[Vec<PortId>],
) -> Option<(usize, PortId)> {
    let p = placement?;
    let ports = arena_ports.get(p.arena as usize)?;
    let t = (p.thread as usize).min(ports.len().checked_sub(1)?);
    Some((p.arena as usize, ports[t]))
}

/// The arena cell of a datagram bound for the directory's front door.
const FRONT: usize = usize::MAX;

/// What the gateway's pumps and sinks share: the session book and the
/// port tables it is read against. Each of its two methods takes one stripe
/// lock per datagram — the gateway's two critical sections.
pub(crate) struct Router {
    /// The directory's front door: every admitted `Connect` goes here.
    front: PortId,
    /// `arena_ports[k][t]` = arena `k`, thread `t`'s request port,
    /// every provisioned cell included.
    arena_ports: Vec<Vec<PortId>>,
    /// The inverse, for learning the dealt thread from a `ConnectAck`'s
    /// fabric source.
    port_pos: HashMap<PortId, (u16, u16)>,
    book: SessionBook,
}

impl Router {
    pub(crate) fn new(
        front: PortId,
        arena_ports: Vec<Vec<PortId>>,
        rebind_grace: Duration,
    ) -> Router {
        let port_pos = arena_ports
            .iter()
            .enumerate()
            .flat_map(|(k, ports)| {
                ports
                    .iter()
                    .enumerate()
                    .map(move |(t, &p)| (p, (k as u16, t as u16)))
            })
            .collect();
        Router {
            front,
            arena_ports,
            port_pos,
            book: SessionBook::new(rebind_grace),
        }
    }

    /// Admit and route one decoded datagram: `Connect`s go to the front
    /// door (the director picks the arena), moves and disconnects
    /// straight to the booked arena's dealt thread. Returns the arena
    /// cell ([`FRONT`] for the front door) and the fabric port, or
    /// counts the refusal in `lane`: `spoof_rejected` when admission
    /// says no, `arena_unknown` when no routable placement is booked
    /// (ack in flight, session over, or the arena has no port).
    pub(crate) fn inbound(
        &self,
        lane: &mut GatewayLane,
        msg: &ClientMessage,
        from: SocketAddr,
        now: Instant,
    ) -> Option<(usize, PortId)> {
        let (cid, is_connect) = match *msg {
            ClientMessage::Connect { client_id, .. } => (client_id, true),
            ClientMessage::Move { client_id, .. } | ClientMessage::Disconnect { client_id } => {
                (client_id, false)
            }
        };
        let Some(placement) = self.book.admit(cid, is_connect, from, now) else {
            lane.spoof_rejected += 1;
            return None;
        };
        if is_connect {
            return Some((FRONT, self.front));
        }
        let dest = route_move(placement, &self.arena_ports);
        if dest.is_none() {
            lane.arena_unknown += 1;
        }
        dest
    }

    /// Classify one payload sent to a gateway port (`from` = its fabric
    /// source), book what it says about its client, and return the
    /// address it goes to. `None` for a lifecycle notice (booked, never
    /// sent), for garbage, and — counted in `unroutable` — for a client
    /// with no session, for whom nothing is booked either: no `Connect`
    /// of its was admitted, or it was evicted unplaced and silent, so
    /// no `Move` can be routed.
    pub(crate) fn outbound(
        &self,
        unroutable: &AtomicU64,
        payload: &[u8],
        from: PortId,
    ) -> Option<SocketAddr> {
        let (cid, transition, forward) =
            classify_outbound(payload, self.port_pos.get(&from).copied())?;
        let addr = self.book.outbound(cid, transition);
        if forward && addr.is_none() {
            unroutable.fetch_add(1, Ordering::Relaxed);
        }
        addr.filter(|_| forward)
    }
}

/// The gateway's outbound half: its fabric port is sunk into it
/// ([`RealFabric::sink_port`]), so a payload leaves from the thread that
/// sent it — classify, book, one `send_to` — and no task wakes to
/// forward it. Its counters are bumped by every such thread.
struct GatewaySink {
    /// The gateway's UDP socket (replies leave from the server port).
    sock: UdpSocket,
    router: Arc<Router>,
    datagrams_out: AtomicU64,
    replies_unroutable: AtomicU64,
}

impl GatewaySink {
    /// Sink `gw` into `sock`. Set-up only: before `real.run()`.
    fn install(real: &RealFabric, gw: PortId, sock: UdpSocket, router: Arc<Router>) -> Arc<Self> {
        let out = Arc::new(GatewaySink {
            sock,
            router,
            datagrams_out: AtomicU64::new(0),
            replies_unroutable: AtomicU64::new(0),
        });
        let sink = out.clone();
        real.sink_port(gw, move |from, payload| sink.deliver(from, &payload));
        out
    }

    fn deliver(&self, from: PortId, payload: &[u8]) {
        let Some(addr) = self
            .router
            .outbound(&self.replies_unroutable, payload, from)
        else {
            return;
        };
        if self.sock.send_to(payload, addr).is_ok() {
            self.datagrams_out.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Fold the outbound counters into the pump's lane, after the run.
    fn fold_into(&self, lane: &mut GatewayLane) {
        lane.datagrams_out += self.datagrams_out.load(Ordering::Relaxed);
        lane.replies_unroutable += self.replies_unroutable.load(Ordering::Relaxed);
    }
}

/// The gateway's inbound pump: a plain OS thread demuxing the socket
/// to the front door and every arena. It owns everything it
/// writes — lane, lottery, outbox; only the router is shared. When a
/// copy is delivered is the fabric's business: a fault-delayed copy is
/// handed in with its delay, and the destination port holds it.
struct InboundPump {
    sock: UdpSocket,
    real: Arc<RealFabric>,
    /// The gateway's fabric port: the source of everything forwarded
    /// here, so the replies come back to the sink.
    gw: PortId,
    router: Arc<Router>,
    lottery: FaultLottery,
    lane: GatewayLane,
    /// Copies forwarded per arena cell.
    to_arena: Vec<u64>,
    /// Copies due at once, staged this wakeup and flushed in per-port
    /// batches under one queue lock each.
    outbox: Vec<(PortId, Vec<u8>)>,
}

impl InboundPump {
    /// One datagram off the socket: decode, admit and route, draw its
    /// fault fate, and forward every copy.
    fn process(&mut self, payload: &[u8], from: SocketAddr, now: Instant) {
        self.lane.datagrams_in += 1;
        let Ok(msg) = ClientMessage::from_bytes(payload) else {
            self.lane.decode_rejected += 1;
            return;
        };
        let Some((cell, port)) = self.router.inbound(&mut self.lane, &msg, from, now) else {
            return;
        };
        let fates = self.lottery.draw();
        if fates.is_empty() {
            self.lane.fault_dropped += 1;
            return;
        }
        self.lane.fault_duplicated += fates.len() as u64 - 1;
        for delay in fates {
            self.lane.forwarded += 1;
            if cell == FRONT {
                self.lane.to_front += 1;
            } else {
                self.to_arena[cell] += 1;
            }
            if delay == 0 {
                self.outbox.push((port, payload.to_vec()));
            } else {
                self.real
                    .send_external_delayed(self.gw, port, payload.to_vec(), delay);
            }
        }
    }

    /// Hand the outbox to the fabric, one batch per destination port.
    fn flush(&mut self) {
        while let Some(&(port, _)) = self.outbox.first() {
            let (batch, rest): (Vec<_>, Vec<_>) =
                self.outbox.drain(..).partition(|&(p, _)| p == port);
            self.outbox = rest;
            self.real
                .send_external_batch(self.gw, port, batch.into_iter().map(|(_, b)| b));
        }
    }

    /// Pump until `end_time` on the fabric's clock, the deadline the
    /// server tasks stop at; returns the lane and
    /// the per-cell count of copies forwarded to each arena.
    fn run(mut self, end_time: Nanos) -> (GatewayLane, Vec<u64>) {
        use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
        let mut buf = [0u8; MAX_DATAGRAM];
        let mut batch = mmsg::RecvBatch::default();
        // Any task id: the real fabric has one clock.
        while self.real.now(0) < end_time {
            match recv_stamped(&self.sock, &mut buf) {
                // `received` stamps the whole burst.
                Ok((n, from, received)) => {
                    self.process(&buf[..n], from, received);
                    // Drain the rest of a burst in one batched syscall
                    // (no-op without mmsg capability).
                    batch.recv_more(&self.sock, mmsg::BATCH - 1);
                    for (extra, from) in batch.received() {
                        self.lane.batched_recvs += 1;
                        self.process(extra, from, received);
                    }
                    self.flush();
                }
                // The idle timeout, or a stop and continue of the
                // process (Ctrl-Z, `fg`): signal(7) says a receive with
                // a timeout set fails with `EINTR` then, handler or not.
                Err(ref e) if matches!(e.kind(), WouldBlock | TimedOut | Interrupted) => {}
                Err(_) => break,
            }
        }
        (self.lane, self.to_arena)
    }
}

/// Run the arena directory behind one gateway socket on one real UDP
/// port until `opts.duration` elapses. Returns the layered traffic
/// report. Fails with `InvalidInput` on a `gateway_shards` other than
/// 1, a network fault profile [`FaultConfig::validate`] refuses or an
/// option combination [`ArenaDirectoryConfig::validate`] refuses, and
/// with the bind error when the port cannot be had.
pub fn run_udp_arena_server(opts: &UdpArenaOpts) -> std::io::Result<UdpArenaReport> {
    let kind = if opts.threads > 1 {
        ServerKind::Parallel {
            threads: opts.threads,
            locking: LockPolicy::Optimized,
        }
    } else {
        ServerKind::Sequential
    };
    let (real, fabric) = RealFabric::new_arc_pair();
    let end_time: Nanos = opts.duration.as_nanos() as Nanos;
    // The gateway's fabric port carries the replies out, and the
    // directory's lifecycle tap (slot-churn notices) rides on it.
    let gw = fabric.alloc_port();
    let server = ServerConfig {
        client_timeout_ns: opts.client_timeout.as_nanos() as Nanos,
        interest: opts.interest,
        ..ServerConfig::new(kind, end_time)
    };
    let dir_cfg = ArenaDirectoryConfig {
        workers: opts.workers,
        map: opts.map.clone(),
        max_arenas: opts.max_arenas,
        linger_ns: opts.linger.as_nanos() as Nanos,
        supervision: opts.supervision.clone(),
        migrate_spread: opts.migrate_spread,
        migrate_drain: opts.migrate_drain,
        lifecycle_tap: Some(gw),
        ..ArenaDirectoryConfig::new(opts.arenas, opts.slots_per_arena, server)
    };
    let one_socket = if opts.gateway_shards == 1 {
        Ok(())
    } else {
        Err(format!(
            "gateway_shards must be 1 (the gateway is one socket), got {}",
            opts.gateway_shards
        ))
    };
    one_socket
        .and_then(|()| opts.fault.validate())
        .and_then(|()| dir_cfg.validate())
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    // Before the worlds are built: a port that cannot be had fails at
    // once, and what arrives during set-up waits in the socket.
    let sock = UdpSocket::bind(("127.0.0.1", opts.port))?;
    sock.set_read_timeout(Some(PUMP_IDLE_TIMEOUT))?;
    let handle = spawn_directory(&fabric, dir_cfg);
    // Every provisioned cell, including elastic headroom past the boot
    // fleet — the pump routes to (and the report covers) all of them.
    let cells = handle.arena_ports.len();
    let rebind_grace = if opts.client_timeout.is_zero() {
        Duration::from_secs(1)
    } else {
        opts.client_timeout / 2
    };
    let router = Arc::new(Router::new(
        handle.front_port,
        handle.arena_ports.clone(),
        rebind_grace,
    ));

    let sink = GatewaySink::install(&real, gw, sock.try_clone()?, router.clone());
    let pump = InboundPump {
        sock,
        real: real.clone(),
        gw,
        router,
        lottery: FaultLottery::new(opts.fault.clone()),
        lane: GatewayLane::default(),
        to_arena: vec![0; cells],
        outbox: Vec::new(),
    };
    let pump = std::thread::spawn(move || pump.run(end_time));

    fabric.run();
    let (mut lane, pump_to_arena) = pump.join().expect("inbound pump panicked");
    // No task is left to send through the sink.
    sink.fold_into(&mut lane);
    Ok(build_report(&fabric, handle, lane, &pump_to_arena))
}

/// Read the directory's report and the ports' counters into the
/// layered report. Host-side, after the run: no task is alive.
fn build_report(
    fabric: &Arc<dyn Fabric>,
    handle: ArenaHandle,
    lane: GatewayLane,
    pump_to_arena: &[u64],
) -> UdpArenaReport {
    let (front_port, arena_ports) = (handle.front_port, handle.arena_ports.clone());
    let DirectoryReport {
        results,
        admission,
        elastic,
        supervisor,
        ..
    } = handle.report();
    let mut lanes = Vec::with_capacity(pump_to_arena.len());
    let mut lanes_missing_counters: Vec<u16> = Vec::new();
    let mut interest = InterestStats::default();
    for (k, &pump_forwarded) in pump_to_arena.iter().enumerate() {
        let r = &results[k];
        let m = r.merged();
        interest.merge(&r.interest);
        // A provisioned cell absent from the director's tables is a
        // drifted fleet view, not quiet traffic: record it so the
        // report refuses to close, instead of zero-filling silently.
        let director_forwarded = admission.forwarded_per_arena.get(k).copied();
        let admitted = admission.per_arena.get(k).copied();
        if director_forwarded.is_none() || admitted.is_none() {
            lanes_missing_counters.push(k as u16);
        }
        let (queue_dropped, pending_at_shutdown) =
            arena_ports[k].iter().fold((0u64, 0u64), |(d, p), &port| {
                (
                    d + fabric.port_dropped(port),
                    p + fabric.port_pending(port) as u64,
                )
            });
        lanes.push(ArenaLane {
            pump_forwarded,
            director_forwarded: director_forwarded.unwrap_or(0),
            processed: m.datagrams,
            queue_dropped,
            pending_at_shutdown,
            replies: m.replies,
            frames: r.frame_count,
            admitted: admitted.unwrap_or(0),
        });
    }
    UdpArenaReport {
        datagrams_in: lane.datagrams_in,
        decode_rejected: lane.decode_rejected,
        spoof_rejected: lane.spoof_rejected,
        arena_unknown: lane.arena_unknown,
        fault_dropped: lane.fault_dropped,
        fault_duplicated: lane.fault_duplicated,
        forwarded: lane.forwarded,
        to_front: lane.to_front,
        front_drained: admission.drained(),
        front_queue_dropped: fabric.port_dropped(front_port),
        front_pending: fabric.port_pending(front_port) as u64,
        datagrams_out: lane.datagrams_out,
        replies_unroutable: lane.replies_unroutable,
        shards: vec![lane],
        lanes,
        lanes_missing_counters,
        admission,
        elastic,
        supervisor,
        interest,
    }
}

/// What [`run_udp_clients`] measured.
#[derive(Debug, Clone)]
pub struct ClientOutcome {
    pub sent: u64,
    pub received: u64,
    pub avg_ms: f64,
    /// Replies counted per arena the client was placed in.
    pub per_arena: Vec<u64>,
    /// Unsolicited re-acks from the placed arena (supervised restarts).
    pub restarts_observed: u64,
    /// Unsolicited acks from a *different* arena (live migrations).
    pub rehomed_observed: u64,
    /// Client-side prediction accounting (all zero without a map).
    pub prediction: parquake_metrics::PredictionStats,
    /// Ring entries still unacked when the run ended (closes the
    /// prediction ledger).
    pub predict_in_flight: u64,
}

/// Arena ids a `ConnectAck` may name that the client still follows.
/// The bridge's arena table is sized by this, not by the `arenas` the
/// caller spreads its Connects over: a migrating gateway re-acks a
/// session from an arena the client never asked for, and the swarm's
/// drivers file an ack naming an arena past their table under
/// "restarts" instead of re-homing (`--arenas 1` against a 2-arena
/// migrating gateway read 0 rehomings for 6 migrations that way).
const CLIENT_ARENA_TABLE: usize = 256;

/// How often a client socket's inbound thread looks up from
/// `recv_from` to see whether the run is over. Not on the data path:
/// a datagram ends the wait at once.
const CLIENT_STOP_POLL: Duration = Duration::from_millis(50);

/// The real-UDP client: the bot swarm of the virtual-time figures
/// ([`parquake_bots::spawn_swarm_multi`] — `BotMind` deathmatch
/// players, one jittered move per 30 ms client frame, Connect retry
/// with back-off, a 1 s starvation watchdog, reply-seq dedup,
/// re-homing on unsolicited acks) on a `RealFabric` of its own,
/// bridged to one socket for `duration` (DESIGN.md §7):
///
/// ```text
///   driver ──► egress port ─(a sink: send_to on the driver's thread)─► socket ──► server
///   driver ◄── driver port ◄──────────────(one OS thread)───────────── socket
/// ```
///
/// Behind the egress port sits a single server address, so every arena
/// of the swarm's topology, and its front door, is that one port.
/// Inbound datagrams are injected with the egress port as their
/// source, which is what the driver expects of a server reply.
///
/// Bot `i` requests arena `i % arenas`, also when it falls back to the
/// handshake (moot while the director still books the session —
/// placement is sticky). With `ramp = Some((up, hold, down))` bots join
/// staggered over the up window and leave (with a `Disconnect`)
/// staggered over the down window — the load shape that exercises an
/// elastic gateway. Given a compiled map in `predict` (bit-identical to
/// the server's — both sides default to [`UdpArenaOpts::default`]'s
/// generator), every bot predicts locally, opts into the Move/Reply
/// trailer and reconciles against each reply; the outcome then carries
/// the prediction ledger and its oracle.
pub fn run_udp_clients(
    server: SocketAddr,
    arenas: u32,
    players: u32,
    duration: Duration,
    ramp: Option<(Duration, Duration, Duration)>,
    predict: Option<Arc<parquake_bsp::BspWorld>>,
) -> std::io::Result<ClientOutcome> {
    let arenas = arenas.max(1);
    let (real, fabric) = RealFabric::new_arc_pair();
    let egress = fabric.alloc_port();
    let end_time: Nanos = duration.as_nanos() as Nanos;
    let cfg = BotSwarmConfig {
        drivers: 1,
        ramp: ramp.map(|(up, hold, down)| SwarmRamp::UpDown {
            ramp_up_ns: up.as_nanos() as Nanos,
            hold_ns: hold.as_nanos() as Nanos,
            ramp_down_ns: down.as_nanos() as Nanos,
        }),
        predict: predict.map(PredictMap),
        ..BotSwarmConfig::new(players, end_time)
    };
    let topology = SwarmTopology {
        arena_ports: vec![vec![egress]; CLIENT_ARENA_TABLE.max(arenas as usize)],
        connect_port: Some(egress),
    };
    let swarm = spawn_swarm_multi(&fabric, &cfg, &topology, |c| ((c % arenas) as u16, 0));
    let sock = UdpSocket::bind("127.0.0.1:0")?;
    sock.set_read_timeout(Some(CLIENT_STOP_POLL))?;

    // Outbound: the egress port is sunk into the socket, so a payload
    // leaves from the driver's thread.
    let sent = Arc::new(AtomicU64::new(0));
    {
        let (out, sent) = (sock.try_clone()?, sent.clone());
        real.sink_port(egress, move |_, payload| {
            if out.send_to(&payload, server).is_ok() {
                sent.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    // Inbound: one plain OS thread injecting into the driver's port
    // (zero players spawn no driver, and no thread). No timer on the
    // path — the read timeout exists only to observe `stop`.
    let stop = Arc::new(AtomicBool::new(false));
    let inbound = swarm.driver_ports.first().map(|&port| {
        let real = real.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut buf = [0u8; MAX_DATAGRAM];
            while !stop.load(Ordering::Relaxed) {
                if let Ok((len, _)) = sock.recv_from(&mut buf) {
                    real.send_external(egress, port, buf[..len].to_vec());
                }
            }
        })
    });

    fabric.run();
    stop.store(true, Ordering::Relaxed);
    if let Some(t) = inbound {
        t.join().expect("client inbound thread panicked");
    }

    let bots = swarm.report();
    Ok(ClientOutcome {
        sent: sent.load(Ordering::Relaxed),
        received: bots.stats.received,
        avg_ms: bots.stats.avg_latency_ms(),
        // The table is wider than the spread; report what was asked.
        per_arena: bots
            .per_arena
            .iter()
            .take(arenas as usize)
            .map(|a| a.received)
            .collect(),
        restarts_observed: bots.restarts_observed,
        rehomed_observed: bots.rehomed,
        prediction: bots.prediction,
        predict_in_flight: bots.predict_in_flight,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use parquake_protocol::{Encode, ServerMessage};
    use parquake_server::LifecycleEvent;
    use proptest::prelude::*;

    fn balanced_lane() -> ArenaLane {
        ArenaLane {
            pump_forwarded: 40,
            director_forwarded: 10,
            processed: 44,
            queue_dropped: 4,
            pending_at_shutdown: 2,
            ..ArenaLane::default()
        }
    }

    fn ack(cid: u32, arena: u16) -> Vec<u8> {
        ServerMessage::ConnectAck {
            client_id: cid,
            spawn: parquake_math::Vec3::ZERO,
            arena,
        }
        .to_bytes()
    }

    fn reply(cid: u32) -> Vec<u8> {
        ServerMessage::Reply {
            client_id: cid,
            seq: 1,
            sent_at_echo: 0,
            frame: 1,
            assigned_thread: 0,
            origin: parquake_math::Vec3::ZERO,
            delta: false,
            entities: Vec::new(),
            removed: Vec::new(),
            events: Vec::new(),
            predict: None,
        }
        .to_bytes()
    }

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    fn connect(cid: u32) -> ClientMessage {
        ClientMessage::Connect {
            client_id: cid,
            arena: 0,
        }
    }

    fn mv(cid: u32) -> ClientMessage {
        ClientMessage::Move {
            client_id: cid,
            cmd: parquake_protocol::MoveCmd::idle(1, 30),
        }
    }

    const GRACE: Duration = Duration::from_secs(1);

    /// The front door of the synthetic port tables below.
    const FRONT_PORT: PortId = 1;

    /// A router over a synthetic 2-arena × 2-thread port table, and a
    /// lane for it to count refusals in.
    fn two_by_two() -> (Router, GatewayLane) {
        let router = Router::new(FRONT_PORT, vec![vec![10, 11], vec![20, 21]], GRACE);
        (router, GatewayLane::default())
    }

    fn session(router: &Router, cid: u32) -> Option<session::Session> {
        router.book.get(cid)
    }

    fn placement(router: &Router, cid: u32) -> Option<GwPlacement> {
        session(router, cid).and_then(|s| s.placement())
    }

    /// [`Router::outbound`], counting an unroutable payload in `lane`
    /// as the gateway's sink does.
    fn outbound(
        router: &Router,
        lane: &mut GatewayLane,
        payload: &[u8],
        from: PortId,
    ) -> Option<SocketAddr> {
        let unroutable = AtomicU64::new(0);
        let addr = router.outbound(&unroutable, payload, from);
        lane.replies_unroutable += unroutable.into_inner();
        addr
    }

    #[test]
    fn connect_learns_and_refreshes_address() {
        let (router, mut lane) = two_by_two();
        let t0 = Instant::now();
        let front = Some((FRONT, FRONT_PORT));
        assert_eq!(
            router.inbound(&mut lane, &connect(7), addr(4000), t0),
            front
        );
        assert_eq!(session(&router, 7).unwrap().addr(), addr(4000));
        // Handshake retry from the same endpoint refreshes.
        let t1 = t0 + GRACE / 4;
        assert_eq!(
            router.inbound(&mut lane, &connect(7), addr(4000), t1),
            front
        );
        assert_eq!(session(&router, 7).unwrap().last_seen(), t1);
        assert_eq!(lane, GatewayLane::default());
    }

    #[test]
    fn connect_from_new_addr_is_rejected_within_grace() {
        let (router, mut lane) = two_by_two();
        let t0 = Instant::now();
        router
            .inbound(&mut lane, &connect(7), addr(4000), t0)
            .unwrap();
        let before = session(&router, 7);
        // Hijack attempt while the session is live: rejected, session
        // untouched.
        let t1 = t0 + GRACE / 2;
        assert_eq!(router.inbound(&mut lane, &connect(7), addr(5000), t1), None);
        assert_eq!(lane.spoof_rejected, 1);
        assert_eq!(session(&router, 7), before);
    }

    #[test]
    fn connect_rebinds_after_silence_grace() {
        let (router, mut lane) = two_by_two();
        let t0 = Instant::now();
        router
            .inbound(&mut lane, &connect(7), addr(4000), t0)
            .unwrap();
        outbound(&router, &mut lane, &ack(7, 1), 20).unwrap();
        router
            .inbound(&mut lane, &connect(7), addr(5000), t0 + GRACE)
            .unwrap();
        let s = session(&router, 7).unwrap();
        assert_eq!(s.addr(), addr(5000));
        // The session moved house, not arena.
        assert_eq!(s.placement().map(|p| p.arena), Some(1));
    }

    #[test]
    fn moves_require_the_bound_address() {
        let (router, mut lane) = two_by_two();
        let t0 = Instant::now();
        // Unknown client: no Move may pass (no implicit binding).
        assert_eq!(router.inbound(&mut lane, &mv(7), addr(4000), t0), None);
        assert_eq!(lane.spoof_rejected, 1);
        assert_eq!(session(&router, 7), None);
        router
            .inbound(&mut lane, &connect(7), addr(4000), t0)
            .unwrap();
        outbound(&router, &mut lane, &ack(7, 0), 10).unwrap();
        assert_eq!(
            router.inbound(&mut lane, &mv(7), addr(4000), t0),
            Some((0, 10))
        );
        // From anywhere else: rejected, even past the grace period
        // (only a validated Connect may rebind).
        let late = t0 + GRACE * 2;
        assert_eq!(router.inbound(&mut lane, &mv(7), addr(5000), late), None);
        assert_eq!(lane.spoof_rejected, 2);
        assert_eq!(session(&router, 7).unwrap().addr(), addr(4000));
    }

    /// The pump reads the clock at the top of its loop and may then
    /// block up to 10 ms in the receive; stamping an arrival with that
    /// pre-wait clock measured a session's rebind grace from a stale
    /// instant. The stamp is the one `recv_stamped` takes after the
    /// wait.
    #[test]
    fn arrival_after_silence_is_stamped_when_received() {
        let (Ok(rx), Ok(tx)) = (
            UdpSocket::bind("127.0.0.1:0"),
            UdpSocket::bind("127.0.0.1:0"),
        ) else {
            eprintln!("skipping: loopback UDP not permitted");
            return;
        };
        rx.set_read_timeout(Some(PUMP_IDLE_TIMEOUT)).unwrap();
        let to = rx.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(8));
            let sent = Instant::now();
            tx.send_to(&[7], to).unwrap();
            sent
        });
        let mut buf = [0u8; 16];
        let received = loop {
            // The wait is ≥ 8 ms here.
            if let Ok((_, _, received)) = recv_stamped(&rx, &mut buf) {
                break received;
            }
        };
        let sent = sender.join().unwrap();
        assert!(received >= sent, "stamped before the datagram existed");
    }

    #[test]
    fn lane_accounting_closes_on_balanced_books() {
        let mut lane = balanced_lane();
        assert!(lane.accounting_closed(), "{lane:?}");
        // One datagram reaches the queue but never gets a fate: open.
        lane.director_forwarded += 1;
        assert!(!lane.accounting_closed(), "{lane:?}");
    }

    #[test]
    fn outbound_notices_evict_and_rebind_placements() {
        let (router, mut lane) = two_by_two();
        let now = Instant::now();
        for cid in [7, 8] {
            assert_eq!(
                router.inbound(&mut lane, &connect(cid), addr(4000), now),
                Some((FRONT, FRONT_PORT))
            );
        }
        let sent = Some(addr(4000));

        // ConnectAck installs the placement and is forwarded.
        assert_eq!(outbound(&router, &mut lane, &ack(7, 1), 0), sent);
        assert_eq!(placement(&router, 7).map(|p| p.arena), Some(1));

        // A Reclaimed notice from the placed arena evicts the placement
        // (else every later Move is misrouted to the world that already
        // dropped the session); notices are never forwarded to the
        // client, and the session keeps its address.
        let reclaim = LifecycleEvent::Reclaimed {
            arena: 1,
            client_id: 7,
            at: 123,
        };
        assert_eq!(outbound(&router, &mut lane, &reclaim.to_bytes(), 0), None);
        assert_eq!(placement(&router, 7), None);
        assert_eq!(session(&router, 7).map(|s| s.addr()), sent);

        // A *late* notice from an old placement must not kill a newer
        // booking elsewhere.
        assert_eq!(outbound(&router, &mut lane, &ack(7, 2), 0), sent);
        let stale = LifecycleEvent::Disconnected {
            arena: 1,
            client_id: 7,
        };
        assert_eq!(outbound(&router, &mut lane, &stale.to_bytes(), 0), None);
        assert_eq!(
            placement(&router, 7).map(|p| p.arena),
            Some(2),
            "late notice evicted a fresh booking"
        );

        // A Migrated notice rebinds to the destination arena AND the
        // thread the destination dealt.
        let mig = LifecycleEvent::Migrated {
            from_arena: 2,
            to_arena: 0,
            client_id: 7,
            thread: 1,
        };
        assert_eq!(outbound(&router, &mut lane, &mig.to_bytes(), 0), None);
        assert_eq!(
            placement(&router, 7),
            Some(GwPlacement {
                arena: 0,
                thread: 1
            }),
            "Migrated notice did not rebind"
        );

        // A Connected notice installs arena and thread; Bye forwards
        // and evicts.
        let joined = LifecycleEvent::Connected {
            arena: 3,
            client_id: 8,
            thread: 1,
        };
        assert_eq!(outbound(&router, &mut lane, &joined.to_bytes(), 0), None);
        assert_eq!(
            placement(&router, 8),
            Some(GwPlacement {
                arena: 3,
                thread: 1
            })
        );
        let bye = ServerMessage::Bye { client_id: 8 }.to_bytes();
        assert_eq!(outbound(&router, &mut lane, &bye, 0), sent);
        assert_eq!(placement(&router, 8), None);

        // Garbage decodes to neither family: ignored, book untouched.
        assert_eq!(outbound(&router, &mut lane, &[0xFF, 1, 2, 3], 0), None);
        assert!(placement(&router, 7).is_some());
        assert_eq!(lane, GatewayLane::default(), "nothing above is a refusal");

        // Nothing is booked, and nothing sent, for a client no Connect
        // was admitted for.
        assert_eq!(outbound(&router, &mut lane, &ack(9, 1), 0), None);
        assert_eq!(lane.replies_unroutable, 1);
        assert_eq!(session(&router, 9), None);
    }

    /// Regression (stale-thread routing): a dedicated 2-thread arena
    /// must receive a placed client's moves on the *dealt* thread's
    /// port, not on `arena_ports[k][0]`.
    #[test]
    fn moves_route_to_the_dealt_threads_port() {
        let (router, mut lane) = two_by_two();
        let now = Instant::now();
        let from = addr(4000);
        for cid in [7, 8] {
            router.inbound(&mut lane, &connect(cid), from, now).unwrap();
        }
        // Admitted but not booked yet: the ack is still in flight.
        assert_eq!(router.inbound(&mut lane, &mv(7), from, now), None);
        assert_eq!(lane.arena_unknown, 1);

        // The ack for client 7 leaves arena 1 from thread 1's request
        // port: the gateway must learn (arena 1, thread 1)…
        assert_eq!(outbound(&router, &mut lane, &ack(7, 1), 21), Some(from));
        assert_eq!(
            placement(&router, 7),
            Some(GwPlacement {
                arena: 1,
                thread: 1
            })
        );
        // …and route later moves to thread 1's port.
        assert_eq!(router.inbound(&mut lane, &mv(7), from, now), Some((1, 21)));
        // Only from the bound address, booked or not.
        assert_eq!(router.inbound(&mut lane, &mv(7), addr(5000), now), None);
        assert_eq!(lane.spoof_rejected, 1);

        // An ack whose fabric source is NOT one of the named arena's
        // ports (a re-ack relayed oddly) falls back to thread 0 rather
        // than trusting a foreign thread index.
        assert_eq!(outbound(&router, &mut lane, &ack(8, 1), 11), Some(from));
        assert_eq!(router.inbound(&mut lane, &mv(8), from, now), Some((1, 20)));

        // Pooled arenas have one port: any learned thread clamps to it.
        let pooled: Vec<Vec<PortId>> = vec![vec![10], vec![20]];
        assert_eq!(route_move(placement(&router, 7), &pooled), Some((1, 20)));

        // A placement naming a missing arena is unroutable, not a
        // panic (elastic reap raced the move).
        assert_eq!(
            route_move(
                Some(GwPlacement {
                    arena: 9,
                    thread: 0
                }),
                &pooled
            ),
            None
        );
        assert_eq!(route_move(None, &pooled), None);
    }

    /// The live half: spin a dedicated directory whose single arena
    /// runs a 2-thread parallel runtime, connect two clients through
    /// the front door, and check the router learns two *different*
    /// dealt threads from the ack stream — and routes each client's
    /// moves to its own thread's port.
    #[test]
    fn dedicated_two_thread_arena_deals_moves_to_each_threads_port() {
        let (_real, fabric) = RealFabric::new_arc_pair();
        let end_time: Nanos = 400_000_000; // 400ms
        let gw = fabric.alloc_port();
        let server = ServerConfig::new(
            ServerKind::Parallel {
                threads: 2,
                locking: LockPolicy::Optimized,
            },
            end_time,
        );
        // The small map the gateway serves by default: the directory's
        // own default world takes most of the run to build in debug.
        let dir_cfg = ArenaDirectoryConfig {
            lifecycle_tap: Some(gw),
            map: MapGenConfig::small_arena(1),
            ..ArenaDirectoryConfig::new(1, 8, server)
        };
        let handle = spawn_directory(&fabric, dir_cfg);
        assert_eq!(
            handle.arena_ports[0].len(),
            2,
            "dedicated parallel arena should expose one port per thread"
        );
        let front = handle.front_port;
        let router = Arc::new(Router::new(front, handle.arena_ports.clone(), GRACE));
        let from = addr(4000);

        let task_router = router.clone();
        fabric.spawn(
            "driver",
            None,
            Box::new(move |ctx| {
                let mut lane = GatewayLane::default();
                for cid in 0..2u32 {
                    let dest = task_router.inbound(&mut lane, &connect(cid), from, Instant::now());
                    assert_eq!(dest, Some((FRONT, front)));
                    ctx.send(gw, front, connect(cid).to_bytes());
                }
                // Book acks (and lifecycle notices) until both
                // clients are placed or time runs out.
                let placed = |r: &Router| (0..2u32).all(|cid| placement(r, cid).is_some());
                while !placed(&task_router) && ctx.now() < end_time - 50_000_000 {
                    if !ctx.wait_readable(gw, Some(ctx.now() + 20_000_000)) {
                        continue;
                    }
                    while let Some(msg) = ctx.try_recv(gw) {
                        outbound(&task_router, &mut lane, &msg.payload, msg.from);
                    }
                }
            }),
        );
        fabric.run();

        let mut lane = GatewayLane::default();
        let mut threads: Vec<u16> = (0..2u32)
            .map(|cid| placement(&router, cid).expect("client never acked").thread)
            .collect();
        for cid in 0..2u32 {
            assert_eq!(
                router.inbound(&mut lane, &mv(cid), from, Instant::now()),
                Some((0, handle.arena_ports[0][threads[cid as usize] as usize])),
                "client {cid}'s moves must go to its dealt thread's port"
            );
        }
        threads.sort_unstable();
        assert_eq!(
            threads,
            vec![0, 1],
            "round-robin dealing should land the two clients on the two threads"
        );
    }

    /// A payload for a client with no session is counted
    /// `replies_unroutable` when it is sent — nothing is retained — and
    /// a routable one leaves on the gateway socket before `send` returns.
    #[test]
    fn reply_for_a_client_with_no_session_is_unroutable_at_once() {
        let (Ok(client_sock), Ok(gateway_sock)) = (
            UdpSocket::bind("127.0.0.1:0"),
            UdpSocket::bind("127.0.0.1:0"),
        ) else {
            eprintln!("skipping: loopback UDP not permitted");
            return;
        };
        client_sock
            .set_read_timeout(Some(Duration::from_millis(800)))
            .unwrap();
        let client_addr = client_sock.local_addr().unwrap();
        let (real, fabric) = RealFabric::new_arc_pair();
        let gw = fabric.alloc_port();
        let router = Arc::new(Router::new(FRONT_PORT, vec![vec![10]], GRACE));
        router
            .inbound(
                &mut GatewayLane::default(),
                &connect(7),
                client_addr,
                Instant::now(),
            )
            .unwrap();
        let out = GatewaySink::install(&real, gw, gateway_sock, router);
        // Client 42 never connected; client 7's reply follows its.
        real.send_external(gw, gw, reply(42));
        let mut lane = GatewayLane::default();
        out.fold_into(&mut lane);
        assert_eq!((lane.replies_unroutable, lane.datagrams_out), (1, 0));
        real.send_external(gw, gw, reply(7));
        assert_eq!(fabric.port_pending(gw), 0, "a sink queues nothing");

        let mut buf = [0u8; MAX_DATAGRAM];
        let (n, _) = client_sock
            .recv_from(&mut buf)
            .expect("routable reply not sent");
        assert_eq!(buf[..n], reply(7)[..]);
        let mut lane = GatewayLane::default();
        out.fold_into(&mut lane);
        assert_eq!((lane.replies_unroutable, lane.datagrams_out), (1, 1));
        assert!(lane.accounting_closed(), "{lane:?}");
    }

    #[test]
    fn striped_book_is_coherent_across_stripes() {
        let book = SessionBook::new(GRACE);
        let now = Instant::now();
        let home = |cid: u32| (addr(4000 + (cid % 7) as u16), (cid % 3) as u16);
        for cid in 0..256u32 {
            let (from, arena) = home(cid);
            assert_eq!(book.admit(cid, true, from, now), Some(None));
            let booked = Transition::Book(GwPlacement { arena, thread: 0 });
            assert_eq!(book.outbound(cid, Some(booked)), Some(from));
        }
        for cid in 0..256u32 {
            let (from, arena) = home(cid);
            let s = book.get(cid).expect("session lost");
            assert_eq!(
                (s.addr(), s.placement().map(|p| p.arena)),
                (from, Some(arena))
            );
        }
        assert_eq!(book.get(9999), None);
        // Spread sanity: 256 sequential ids should not all hash to one
        // stripe.
        assert!(
            book.stripes_used() > 1,
            "all 256 clients landed on one stripe"
        );
    }

    /// A source minting client ids — 200 000 Connects, 50 µs apart, so
    /// 20 000 per grace — is swept as it goes: the book never holds
    /// more than twice the sessions one grace can keep alive plus each
    /// stripe's sweep floor, and every placed client and every
    /// unplaced one still retrying its Connect keeps its session.
    #[test]
    fn a_connect_flood_is_swept_and_spares_live_sessions() {
        let (router, mut lane) = two_by_two();
        let t0 = Instant::now();
        let (placed, retrying) = (0..100u32, 100..110u32);
        for cid in 0..110 {
            router
                .inbound(&mut lane, &connect(cid), addr(4000), t0)
                .unwrap();
        }
        for cid in placed.clone() {
            outbound(&router, &mut lane, &ack(cid, 1), 20).unwrap();
        }
        let gap = Duration::from_micros(50);
        let per_grace = (GRACE.as_micros() / gap.as_micros()) as usize;
        let bound = 2 * (per_grace + 110) + 4 * 64;
        let mut peak = 0;
        for i in 1..=200_000u32 {
            let now = t0 + gap * i;
            // Every 10 ms the unplaced clients retry, each finding the
            // session it had.
            if i % 200 == 0 {
                for cid in retrying.clone() {
                    assert!(
                        session(&router, cid).is_some(),
                        "retrying client {cid} was evicted"
                    );
                    router
                        .inbound(&mut lane, &connect(cid), addr(4000), now)
                        .unwrap();
                }
            }
            router
                .inbound(&mut lane, &connect(1_000 + i), addr(5000), now)
                .unwrap();
            peak = peak.max(router.book.len());
        }
        assert!(
            peak <= bound,
            "the book peaked at {peak} sessions, bound {bound}"
        );
        for cid in placed {
            assert_eq!(
                placement(&router, cid),
                Some(GwPlacement {
                    arena: 1,
                    thread: 0
                }),
                "placed client {cid} lost its session"
            );
        }
        assert_eq!(lane, GatewayLane::default());
    }

    #[test]
    fn missing_lane_counters_keep_the_report_open() {
        let mut r = UdpArenaReport {
            lanes: vec![balanced_lane()],
            ..UdpArenaReport::default()
        };
        assert!(r.accounting_closed(), "{r:?}");
        // The same balanced books with a lane whose director-side
        // counters were absent must refuse to close: zero-filling the
        // row would fake a closed identity over a drifted fleet view.
        r.lanes_missing_counters.push(0);
        assert!(!r.accounting_closed(), "{r:?}");
    }

    #[test]
    fn report_accounting_closes_every_layer() {
        let mut r = UdpArenaReport {
            datagrams_in: 100,
            decode_rejected: 2,
            spoof_rejected: 1,
            arena_unknown: 3,
            fault_dropped: 4,
            fault_duplicated: 5,
            forwarded: 95, // 90 delivered + 5 duplicates
            to_front: 45,
            front_drained: 40,
            front_queue_dropped: 3,
            front_pending: 2,
            lanes: vec![balanced_lane(), balanced_lane()],
            ..UdpArenaReport::default()
        };
        assert!(r.accounting_closed(), "{r:?}");
        // A single open lane opens the whole report.
        r.lanes[1].processed -= 1;
        assert!(!r.accounting_closed(), "{r:?}");
    }

    #[test]
    fn report_requires_the_gateway_lane_to_be_the_totals() {
        let lane = GatewayLane {
            datagrams_in: 30,
            forwarded: 30,
            ..GatewayLane::default()
        };
        let mut r = UdpArenaReport {
            datagrams_in: 30,
            forwarded: 30,
            to_front: 0,
            shards: vec![lane],
            ..UdpArenaReport::default()
        };
        assert!(r.accounting_closed(), "{r:?}");
        // A lane that doesn't close opens the report…
        r.shards[0].fault_dropped += 1;
        assert!(!r.accounting_closed(), "{r:?}");
        r.shards[0].fault_dropped -= 1;
        // …and a closed lane that isn't the totals (a datagram counted
        // on the lane but missing from the totals) opens it too.
        r.shards[0].datagrams_in -= 5;
        r.shards[0].forwarded -= 5;
        assert!(!r.accounting_closed(), "{r:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any interleaving of Connects, Moves, Disconnects, acks,
        /// replies, `Bye`s and lifecycle notices over a few busy
        /// clients and a crowd wide enough to fill every stripe past its
        /// sweep floor leaves the book, and the lane, exactly where the
        /// rules say: a Move is forwarded iff it comes from the bound
        /// address *and* a routable placement is booked; a rebind waits
        /// out the grace and keeps the placement; an end-at notice
        /// clears only a placement at its own arena; and a session goes
        /// away only when a sweep evicts it, placement-less and silent
        /// for one grace.
        #[test]
        fn session_book_follows_the_rules_under_any_interleaving(
            steps in prop::collection::vec(
                (0u8..12, prop_oneof![0u32..3, 0u32..1024, 0u32..1024], 0u16..3, 0u16..3, 0u16..2, 0u64..700),
                1000..2400,
            ),
        ) {
            let (router, mut lane) = two_by_two();
            let ports = [[10, 11], [20, 21]];
            // The rules, restated over a plain map and a second lane.
            let mut model: HashMap<u32, Known> = HashMap::new();
            let mut want = GatewayLane::default();
            let mut now = Instant::now();
            for (kind, cid, endpoint, arena, thread, dt_ms) in steps {
                now += Duration::from_millis(dt_ms);
                let from = addr(4000 + endpoint);
                let known = model.get(&cid).copied();
                // What a client-bound payload does.
                let sent = |want: &mut GatewayLane| {
                    want.replies_unroutable += u64::from(known.is_none());
                    known.map(|s| s.addr)
                };
                let place = |model: &mut HashMap<u32, Known>, p: Option<GwPlacement>| {
                    if let Some(s) = model.get_mut(&cid) {
                        s.placement = p;
                    }
                };
                match kind {
                    0..=3 => {
                        let admitted = known.map_or(true, |s| {
                            s.addr == from || now.duration_since(s.last_seen) >= GRACE
                        });
                        let got = router.inbound(&mut lane, &connect(cid), from, now);
                        if admitted {
                            prop_assert_eq!(got, Some((FRONT, FRONT_PORT)));
                            model.insert(cid, Known {
                                addr: from,
                                last_seen: now,
                                placement: known.and_then(|s| s.placement),
                            });
                        } else {
                            prop_assert_eq!(got, None);
                            want.spoof_rejected += 1;
                        }
                        // An open may have swept its stripe.
                        if known.is_none() && router.book.len() != model.len() {
                            follow_evictions(&router, &mut model, now)?;
                        }
                    }
                    4..=6 => {
                        let msg = if kind == 6 {
                            ClientMessage::Disconnect { client_id: cid }
                        } else {
                            mv(cid)
                        };
                        let dest = match known {
                            Some(s) if s.addr == from => {
                                model.get_mut(&cid).unwrap().last_seen = now;
                                let dest = s.placement.filter(|p| p.arena < 2).map(|p| {
                                    let k = p.arena as usize;
                                    (k, ports[k][(p.thread as usize).min(1)])
                                });
                                want.arena_unknown += u64::from(dest.is_none());
                                dest
                            }
                            _ => {
                                want.spoof_rejected += 1;
                                None
                            }
                        };
                        prop_assert_eq!(router.inbound(&mut lane, &msg, from, now), dest);
                    }
                    7 => {
                        // An ack leaving thread `thread` of arena
                        // `endpoint`'s port (arena 2 has none: 0).
                        let source = ports.get(endpoint as usize).map_or(0, |p| p[thread as usize]);
                        let got = outbound(&router, &mut lane, &ack(cid, arena), source);
                        prop_assert_eq!(got, sent(&mut want));
                        let thread = if endpoint == arena && arena < 2 { thread } else { 0 };
                        place(&mut model, Some(GwPlacement { arena, thread }));
                    }
                    8 => {
                        let got = outbound(&router, &mut lane, &reply(cid), 0);
                        prop_assert_eq!(got, sent(&mut want));
                    }
                    9 => {
                        let bye = ServerMessage::Bye { client_id: cid }.to_bytes();
                        prop_assert_eq!(outbound(&router, &mut lane, &bye, 0), sent(&mut want));
                        place(&mut model, None);
                    }
                    10 => {
                        let notice = if thread == 0 {
                            LifecycleEvent::Connected { arena, client_id: cid, thread: endpoint }
                        } else {
                            LifecycleEvent::Migrated {
                                from_arena: 0,
                                to_arena: arena,
                                client_id: cid,
                                thread: endpoint,
                            }
                        };
                        prop_assert_eq!(outbound(&router, &mut lane, &notice.to_bytes(), 0), None);
                        place(&mut model, Some(GwPlacement { arena, thread: endpoint }));
                    }
                    _ => {
                        let notice = match thread {
                            0 if endpoint == 0 => LifecycleEvent::Rejected { arena, client_id: cid },
                            0 => LifecycleEvent::Disconnected { arena, client_id: cid },
                            _ => LifecycleEvent::Reclaimed { arena, client_id: cid, at: 1 },
                        };
                        prop_assert_eq!(outbound(&router, &mut lane, &notice.to_bytes(), 0), None);
                        let ends = !matches!(notice, LifecycleEvent::Rejected { .. });
                        if ends && known.and_then(|s| s.placement).map(|p| p.arena) == Some(arena) {
                            place(&mut model, None);
                        }
                    }
                }
                prop_assert_eq!(session(&router, cid).map(Known::of), model.get(&cid).copied());
                prop_assert_eq!(router.book.len(), model.len());
                prop_assert_eq!(&lane, &want);
            }
            for (&id, &k) in &model {
                prop_assert_eq!(session(&router, id).map(Known::of), Some(k));
            }
        }
    }

    /// Follow the router's evictions where the rule allows them —
    /// placement-less and silent for one grace — and match every other
    /// session field for field.
    fn follow_evictions(
        router: &Router,
        model: &mut HashMap<u32, Known>,
        now: Instant,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let ids: Vec<u32> = model.keys().copied().collect();
        for id in ids {
            match session(router, id) {
                Some(s) => prop_assert_eq!(Known::of(s), model[&id]),
                None => {
                    let k = model.remove(&id).unwrap();
                    prop_assert!(
                        k.placement.is_none() && now.duration_since(k.last_seen) >= GRACE,
                        "client {} evicted against the rule: {:?}",
                        id,
                        k
                    );
                }
            }
        }
        Ok(())
    }

    /// The property test's model of one session.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    struct Known {
        addr: SocketAddr,
        last_seen: Instant,
        placement: Option<GwPlacement>,
    }

    impl Known {
        fn of(s: session::Session) -> Known {
            Known {
                addr: s.addr(),
                last_seen: s.last_seen(),
                placement: s.placement(),
            }
        }
    }

    /// `classify_outbound` as it was before it read headers: decode the
    /// whole `ServerMessage`, and a `LifecycleEvent` when that fails.
    fn classify_by_decode(
        payload: &[u8],
        from_pos: Option<(u16, u16)>,
    ) -> Option<(u32, Option<Transition>, bool)> {
        use parquake_server::LifecycleEvent::*;
        Some(match ServerMessage::from_bytes(payload) {
            Ok(ServerMessage::ConnectAck {
                client_id, arena, ..
            }) => {
                let thread = from_pos.filter(|&(a, _)| a == arena).map_or(0, |(_, t)| t);
                let book = Transition::Book(GwPlacement { arena, thread });
                (client_id, Some(book), true)
            }
            Ok(ServerMessage::Bye { client_id }) => (client_id, Some(Transition::Bye), true),
            Ok(ServerMessage::Reply { client_id, .. }) => (client_id, None, true),
            Err(_) => {
                let ev = LifecycleEvent::from_bytes(payload).ok()?;
                let transition = match ev {
                    Connected { thread, .. } | Migrated { thread, .. } => {
                        Transition::Book(GwPlacement {
                            arena: ev.arena(),
                            thread,
                        })
                    }
                    Disconnected { .. } | Reclaimed { .. } => Transition::EndAt(ev.arena()),
                    Rejected { .. } => Transition::Refuse,
                };
                (ev.client_id(), Some(transition), false)
            }
        })
    }

    /// One encoded payload of every `ServerMessage` and `LifecycleEvent`
    /// variant, with random fields (arenas often small, so acks often
    /// come from their own arena).
    fn arb_outbound() -> impl Strategy<Value = Vec<u8>> {
        use parquake_protocol::{EntityKind, EntityUpdate, GameEvent, GameEventKind};
        let id = any::<u32>;
        let arena = || prop_oneof![0u16..4, any::<u16>()];
        let reply = (
            id(),
            any::<bool>(),
            0usize..70,
            0usize..70,
            0usize..34,
            any::<bool>(),
        )
            .prop_map(|(client_id, delta, n_ent, n_rm, n_ev, predicts)| {
                ServerMessage::Reply {
                    client_id,
                    seq: client_id ^ 5,
                    sent_at_echo: 9,
                    frame: 3,
                    assigned_thread: 1,
                    origin: parquake_math::Vec3::ZERO,
                    delta,
                    entities: (0..n_ent.min(64) as u16)
                        .map(|id| EntityUpdate {
                            id,
                            kind: EntityKind::Player,
                            state: 1,
                            pos: parquake_math::Vec3::ZERO,
                            yaw: 0.0,
                        })
                        .collect(),
                    removed: (0..n_rm.min(64) as u16).collect(),
                    events: (0..n_ev.min(32) as u16)
                        .map(|a| GameEvent {
                            kind: GameEventKind::Hit,
                            a,
                            b: a,
                            pos: parquake_math::Vec3::ZERO,
                        })
                        .collect(),
                    predict: predicts.then_some(parquake_protocol::ReplyPredict {
                        input_ack: 1,
                        perturb: 2,
                        vel: parquake_math::Vec3::ZERO,
                        on_ground: true,
                    }),
                }
                .to_bytes()
            });
        prop_oneof![
            (id(), arena()).prop_map(|(cid, a)| ack(cid, a)),
            reply,
            id().prop_map(|client_id| ServerMessage::Bye { client_id }.to_bytes()),
            (id(), arena(), 0u16..4).prop_map(|(client_id, arena, thread)| {
                LifecycleEvent::Connected {
                    arena,
                    client_id,
                    thread,
                }
                .to_bytes()
            }),
            (id(), arena()).prop_map(|(client_id, arena)| {
                LifecycleEvent::Disconnected { arena, client_id }.to_bytes()
            }),
            (id(), arena(), any::<u64>()).prop_map(|(client_id, arena, at)| {
                LifecycleEvent::Reclaimed {
                    arena,
                    client_id,
                    at,
                }
                .to_bytes()
            }),
            (id(), arena()).prop_map(|(client_id, arena)| {
                LifecycleEvent::Rejected { arena, client_id }.to_bytes()
            }),
            (id(), arena(), arena(), 0u16..4).prop_map(
                |(client_id, from_arena, to_arena, thread)| {
                    LifecycleEvent::Migrated {
                        from_arena,
                        to_arena,
                        client_id,
                        thread,
                    }
                    .to_bytes()
                }
            ),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Reading the header classifies every well-formed payload as
        /// the full decode did, from any source position.
        #[test]
        fn header_classification_equals_full_decode_classification(
            payload in arb_outbound(),
            from_pos in prop_oneof![Just(None), (0u16..4, 0u16..4).prop_map(Some)],
        ) {
            prop_assert_eq!(
                classify_outbound(&payload, from_pos),
                classify_by_decode(&payload, from_pos)
            );
        }

        /// A cut or lengthened payload: an ack, a bye, a notice or a
        /// reply's fixed part is garbage, as before; a reply cut inside
        /// its lists, or with bytes after its end, is still a reply to
        /// its client, where the full decode refused it.
        #[test]
        fn an_edited_payload_is_garbage_unless_a_reply_keeps_its_fixed_part(
            payload in arb_outbound(),
            frac in 0.0f64..1.0,
            extra in prop::collection::vec(any::<u8>(), 0..8),
        ) {
            let mut cut = payload[..(payload.len() as f64 * frac) as usize].to_vec();
            if !extra.is_empty() {
                cut = [&payload[..], &extra[..]].concat();
            }
            let cut = &cut[..];
            let header = classify_outbound(cut, None);
            let fixed_reply = cut.first() == Some(&parquake_protocol::tags::TAG_REPLY)
                && cut.len() >= reply(0).len();
            if fixed_reply {
                let client_id = u32::from_le_bytes(cut[1..5].try_into().unwrap());
                prop_assert_eq!(header, Some((client_id, None, true)));
            } else {
                prop_assert_eq!(header, None);
                prop_assert_eq!(classify_by_decode(cut, None), None);
            }
        }
    }
}
