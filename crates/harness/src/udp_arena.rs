//! The real-network UDP gateway: one port, every arena and every
//! server thread behind it.
//!
//! ```text
//!   UDP 127.0.0.1:port ×N (SO_REUSEPORT) ─(pump-in s)─► Connect ──► front port
//!                                                       Move/Disc ─► arena[k][thread]
//!   gateway fabric port[s] ◄── replies of shard-s-forwarded traffic ─(pump-out s)─► socket s
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
//! What the gateway knows of a client is one [`Session`] — reply
//! address, last arrival, booked placement — in the one
//! [`StripedBook`] of the [`Router`] every pump shares. An admitted
//! `Connect` opens the session *before* it is forwarded and nothing
//! removes it, so every payload a server emits for a client finds its
//! address; one that does not is counted `replies_unroutable` on the
//! spot. A datagram takes **one** stripe lock: in
//! [`Router::inbound`] (admission, and the booked arena **and** dealt
//! thread; the shard's seeded fault lottery — drop, duplicate, delay,
//! client→server only — then deals the admitted datagram its fate) or
//! in [`Router::outbound`] (book the placement a `ConnectAck` or
//! lifecycle notice names, read the address).
//!
//! The gateway runs `gateway_shards` independent pump pairs. Each shard
//! owns a socket bound to the *same* UDP port via `SO_REUSEPORT` (the
//! kernel spreads client flows across shard sockets by 4-tuple hash),
//! its lottery (shard 0 keeps the configured seed so a 1-shard gateway
//! replays the exact pre-shard lottery; other shards salt it) and a
//! [`parquake_metrics::GatewayLane`], so no counter is ever shared
//! between pumps. Where batched syscalls are available (see
//! [`crate::mmsg`]), a pump drains datagram bursts with one `recvmmsg`,
//! forwards them into the fabric under one queue lock
//! ([`parquake_fabric::real::RealFabric::send_external_batch`]), and
//! writes reply bursts with one `sendmmsg`; everywhere else the same
//! loops degrade to one-datagram std I/O.
//!
//! Accounting closes at every layer and at every width: each shard's
//! [`GatewayLane`] closes on its own, the aggregate of the shard lanes
//! must equal the report's totals, the front door balances, and per
//! arena `pump_forwarded + director_forwarded == processed +
//! queue_dropped + pending_at_shutdown`.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use parquake_arena::{spawn_directory, AdmissionStats, ArenaDirectoryConfig, ArenaHandle};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, PredictMap, SwarmRamp, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::{FaultConfig, FaultLottery};
use parquake_fabric::real::RealFabric;
use parquake_fabric::{Fabric, Nanos, PortId};
use parquake_interest::InterestStats;
use parquake_metrics::GatewayLane;
use parquake_protocol::{ClientMessage, Decode, ServerMessage, MAX_DATAGRAM};
use parquake_server::{InterestMode, LockPolicy, ServerConfig, ServerKind};

use crate::mmsg;

/// How long an inbound pump sleeps in `recv_from` when nothing is
/// pending — the poll cadence for the shutdown deadline.
const PUMP_IDLE_TIMEOUT: Duration = Duration::from_millis(10);

/// How an inbound pump should wait for its next wakeup, given the
/// earliest due time of its held (fault-delayed) datagrams.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PumpWait {
    /// Blocking `recv_from` with this read timeout.
    Block(Duration),
    /// Switch the socket nonblocking, try one `recv_from`, and sleep
    /// this long if it comes up empty.
    PollSleep(Duration),
}

/// Plan the pump's next wait so a held datagram is injected *at* its
/// due time, not up to [`PUMP_IDLE_TIMEOUT`] after it.
///
/// `SO_RCVTIMEO` rounds up to scheduler ticks (observed ~5 ms worst
/// case at HZ=250), so capping the read timeout alone still delivers
/// milliseconds late. Instead: block only while the due time is
/// comfortably far (stopping a tick-slack early), then close the final
/// stretch with nonblocking reads paced by hrtimer sleeps, which hold
/// sub-millisecond precision.
fn pump_wait_plan(earliest_due: Option<Instant>, now: Instant) -> PumpWait {
    /// Worst observed `SO_RCVTIMEO` overshoot plus margin.
    const TICK_SLACK: Duration = Duration::from_millis(6);
    /// Inside this window, poll: a blocking read could overshoot past
    /// the due time.
    const NEAR: Duration = Duration::from_millis(10);
    /// Poll pace — short enough for ~ms delivery error, long enough
    /// not to spin.
    const STEP: Duration = Duration::from_micros(500);
    /// `set_read_timeout(Some(ZERO))` is an error.
    const FLOOR: Duration = Duration::from_millis(1);
    match earliest_due {
        None => PumpWait::Block(PUMP_IDLE_TIMEOUT),
        Some(due) => {
            let gap = due.saturating_duration_since(now);
            if gap <= NEAR {
                PumpWait::PollSleep(gap.min(STEP))
            } else {
                PumpWait::Block((gap - TICK_SLACK).clamp(FLOOR, PUMP_IDLE_TIMEOUT))
            }
        }
    }
}

/// An inbound pump's socket plus its current blocking mode, so a mode
/// or timeout switch costs a syscall only when the plan changes.
struct PumpSock {
    sock: UdpSocket,
    /// Read timeout last set (`None` = not set by us yet).
    timeout: Option<Duration>,
    nonblocking: bool,
}

impl PumpSock {
    fn new(sock: UdpSocket) -> PumpSock {
        PumpSock {
            sock,
            timeout: None,
            nonblocking: false,
        }
    }

    /// Wait for one datagram as `plan` says. Returns it with the
    /// instant it was in hand, read *after* the wait: the wait may
    /// have blocked for up to [`PUMP_IDLE_TIMEOUT`], so a clock value
    /// from before it is up to that stale — arrivals (a session's
    /// `last_seen`, fault-delay due times) are stamped with this one.
    fn recv(
        &mut self,
        plan: PumpWait,
        buf: &mut [u8],
    ) -> std::io::Result<(usize, SocketAddr, Instant)> {
        let res = match plan {
            PumpWait::Block(want) => {
                if self.nonblocking {
                    let _ = self.sock.set_nonblocking(false);
                    self.nonblocking = false;
                }
                if self.timeout != Some(want) {
                    let _ = self.sock.set_read_timeout(Some(want));
                    self.timeout = Some(want);
                }
                self.sock.recv_from(buf)
            }
            PumpWait::PollSleep(nap) => {
                if !self.nonblocking {
                    let _ = self.sock.set_nonblocking(true);
                    self.nonblocking = true;
                }
                let r = self.sock.recv_from(buf);
                if r.is_err() && !nap.is_zero() {
                    std::thread::sleep(nap);
                }
                r
            }
        };
        res.map(|(n, from)| (n, from, Instant::now()))
    }
}

/// Gateway options.
#[derive(Clone, Debug)]
pub struct UdpArenaOpts {
    /// The single UDP port every arena is served on.
    pub port: u16,
    /// Inbound/outbound pump pairs sharing that port (1 = the classic
    /// single-pump gateway, byte-identical fault lottery included).
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
    /// Per-frame panic lottery probability; > 0 turns supervision on
    /// (checkpoint/restore + watchdog) and injects crashes.
    pub crash_rate: f32,
    /// Seed for the per-arena frame-fault lottery.
    pub crash_seed: u64,
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
            crash_rate: 0.0,
            crash_seed: 0xC4A5_5EED,
            migrate_spread: 0,
            migrate_drain: false,
        }
    }
}

/// The fault seed shard `shard` runs: shard 0 keeps the configured
/// seed (a 1-shard gateway replays the exact pre-shard lottery);
/// every other shard salts it so shards draw independent sequences.
pub(crate) fn shard_fault_seed(base: u64, shard: usize) -> u64 {
    if shard == 0 {
        base
    } else {
        base ^ (shard as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

/// One arena's traffic lane through the gateway.
// lockcheck: identity(pump_forwarded + director_forwarded == processed + queue_dropped + pending_at_shutdown)
#[derive(Clone, Debug, Default)]
pub struct ArenaLane {
    /// Datagrams the pumps (all shards) routed straight to this
    /// arena's ports.
    pub pump_forwarded: u64,
    /// Datagrams the director forwarded to this arena's ports.
    pub director_forwarded: u64,
    /// Datagrams the arena drained from its ports.
    pub processed: u64,
    /// Datagrams discarded by the arena ports' bounded-queue policy.
    pub queue_dropped: u64,
    /// Datagrams still queued on the arena ports at shutdown.
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
// lockcheck: identity(datagrams_in == decode_rejected + spoof_rejected + arena_unknown + fault_dropped + delivered, per-shard and per-lane closure)
#[derive(Clone, Debug, Default)]
pub struct UdpArenaReport {
    /// Datagrams read off the shard sockets (all shards).
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
    /// Datagrams written to the shard sockets.
    pub datagrams_out: u64,
    /// Client-bound payloads whose client has no session.
    pub replies_unroutable: u64,
    /// Per-shard gateway lanes (one per pump pair); their aggregate
    /// must reproduce the totals above.
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
    /// Supervision accounting (all-zero when `crash_rate` was 0).
    pub supervisor: parquake_metrics::SupervisorStats,
    /// Interest-matching accounting merged over every arena (all zero
    /// under [`InterestMode::Scan`]).
    pub interest: InterestStats,
}

impl UdpArenaReport {
    /// Close the books at every layer and width: each shard's gateway
    /// lane, the aggregate of the shard lanes against the totals, the
    /// front door, and each arena's lane.
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
        // Per-shard closure, and the shard lanes must *sum* to the
        // totals — a datagram counted on a shard but lost from the
        // aggregate (or vice versa) opens the report. Reports built
        // without shard lanes (unit-test fixtures) skip this layer.
        let shards = self.shards.is_empty() || {
            let agg = GatewayLane::aggregate(&self.shards);
            self.shards.iter().all(|l| l.accounting_closed())
                && agg.datagrams_in == self.datagrams_in
                && agg.decode_rejected == self.decode_rejected
                && agg.spoof_rejected == self.spoof_rejected
                && agg.arena_unknown == self.arena_unknown
                && agg.fault_dropped == self.fault_dropped
                && agg.fault_duplicated == self.fault_duplicated
                && agg.forwarded == self.forwarded
                && agg.to_front == self.to_front
                && agg.datagrams_out == self.datagrams_out
                && agg.replies_unroutable == self.replies_unroutable
        };
        gateway
            && front
            && shards
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

/// Everything the gateway knows of one client. Only an admitted
/// `Connect` opens one and nothing removes it: with its placement
/// evicted it still says where the client's replies go.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Session {
    /// The bound endpoint: replies go here, requests must come from
    /// here.
    pub(crate) addr: SocketAddr,
    /// Last admitted arrival — what the rebind grace is measured from.
    pub(crate) last_seen: Instant,
    /// Where `Move`/`Disconnect` datagrams go; `None` until the first
    /// ack (or lifecycle notice) books it, and again after a `Bye`.
    pub(crate) placement: Option<GwPlacement>,
}

impl Session {
    /// The admission policy: may a datagram from `from` pass as this
    /// session's? If so the bound address and arrival time are brought
    /// up to date.
    ///
    /// * `Connect` from the bound address refreshes it (handshake
    ///   retry); from a *different* address it rebinds only once the
    ///   bound endpoint has been silent for `rebind_grace` (NAT
    ///   rebinding), else it is rejected — a live session cannot be
    ///   hijacked by guessing its client id. A rebind keeps the
    ///   placement.
    /// * `Move`/`Disconnect` must come from the bound address.
    fn admit(
        &mut self,
        is_connect: bool,
        from: SocketAddr,
        now: Instant,
        rebind_grace: Duration,
    ) -> bool {
        let rebind = is_connect && now.duration_since(self.last_seen) >= rebind_grace;
        if self.addr != from && !rebind {
            return false;
        }
        self.addr = from;
        self.last_seen = now;
        true
    }
}

/// A placement change derived from one outbound payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BookOp {
    /// Bind (or rebind) the client's placement.
    Insert(u32, GwPlacement),
    /// The session is over server-side: forget the placement.
    Remove(u32),
    /// Evict only a booking *at that arena* — a late notice from an
    /// old placement must not kill a newer one elsewhere.
    RemoveIfArena(u32, u16),
}

impl BookOp {
    /// The client the op concerns (the striping key).
    pub fn client_id(&self) -> u32 {
        match *self {
            BookOp::Insert(cid, _) | BookOp::Remove(cid) | BookOp::RemoveIfArena(cid, _) => cid,
        }
    }

    /// Apply to that client's session.
    pub(crate) fn apply(&self, session: &mut Session) {
        match *self {
            BookOp::Insert(_, p) => session.placement = Some(p),
            BookOp::Remove(_) => session.placement = None,
            BookOp::RemoveIfArena(_, arena) => {
                if session.placement.map(|p| p.arena) == Some(arena) {
                    session.placement = None;
                }
            }
        }
    }
}

/// Classify one outbound fabric payload: does it go on the wire (and
/// to which client), and how does it change that client's placement?
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
) -> (Option<u32>, Option<BookOp>) {
    use parquake_server::LifecycleEvent::{self, *};
    match ServerMessage::from_bytes(payload) {
        Ok(ServerMessage::ConnectAck {
            client_id, arena, ..
        }) => {
            let thread = match from_pos {
                Some((a, t)) if a == arena => t,
                _ => 0,
            };
            (
                Some(client_id),
                Some(BookOp::Insert(client_id, GwPlacement { arena, thread })),
            )
        }
        Ok(ServerMessage::Bye { client_id }) => (Some(client_id), Some(BookOp::Remove(client_id))),
        Ok(ServerMessage::Reply { client_id, .. }) => (Some(client_id), None),
        Err(_) => {
            let op = match LifecycleEvent::from_bytes(payload) {
                Ok(Connected {
                    arena,
                    client_id,
                    thread,
                })
                | Ok(Migrated {
                    to_arena: arena,
                    client_id,
                    thread,
                    ..
                }) => Some(BookOp::Insert(client_id, GwPlacement { arena, thread })),
                Ok(Disconnected { arena, client_id })
                | Ok(Reclaimed {
                    arena, client_id, ..
                }) => Some(BookOp::RemoveIfArena(client_id, arena)),
                Ok(Rejected { .. }) | Err(_) => None,
            };
            (None, op)
        }
    }
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

/// A client-keyed map split over `max(4, shards)` stripes so gateway
/// pumps on different shards almost never contend on one lock, while
/// every shard still sees every entry (a Connect admitted on shard 0
/// routes the reply leaving through shard 1).
pub(crate) struct StripedBook<T> {
    stripes: Vec<Mutex<HashMap<u32, T>>>,
}

impl<T> StripedBook<T> {
    pub(crate) fn new(stripes: usize) -> StripedBook<T> {
        let n = stripes.max(4).next_power_of_two();
        StripedBook {
            stripes: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Run `f` under the client's stripe lock (Fibonacci-hashed onto a
    /// power-of-two stripe count).
    pub(crate) fn with<R>(&self, cid: u32, f: impl FnOnce(&mut HashMap<u32, T>) -> R) -> R {
        let h = (cid.wrapping_mul(0x9E37_79B9) >> 16) as usize;
        let stripe = &self.stripes[h & (self.stripes.len() - 1)];
        let mut sessions = stripe.lock().expect("a pump panicked holding this stripe"); // lockcheck: allow(raw-sync: striped gateway book shared with OS-thread pumps outside the fabric)
        f(&mut sessions)
    }
}

/// The arena cell of a datagram bound for the directory's front door.
const FRONT: usize = usize::MAX;

/// What the gateway's pumps share: the session book and the port
/// tables it is read against. Each of its two methods takes one stripe
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
    rebind_grace: Duration,
    book: StripedBook<Session>,
}

impl Router {
    pub(crate) fn new(
        front: PortId,
        arena_ports: Vec<Vec<PortId>>,
        stripes: usize,
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
            rebind_grace,
            book: StripedBook::new(stripes),
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
        let admitted = self.book.with(cid, |sessions| {
            let session = match sessions.entry(cid) {
                Entry::Occupied(o) => o.into_mut(),
                // Only a `Connect` opens a session.
                Entry::Vacant(v) if is_connect => v.insert(Session {
                    addr: from,
                    last_seen: now,
                    placement: None,
                }),
                Entry::Vacant(_) => return None,
            };
            session
                .admit(is_connect, from, now, self.rebind_grace)
                .then_some(session.placement)
        });
        let Some(placement) = admitted else {
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

    /// Classify one payload off a gateway port (`from` = its fabric
    /// source), book what it says about its client, and return the
    /// address it goes to. `None` for a lifecycle notice (booked, never
    /// sent), for garbage, and — counted `replies_unroutable` in `lane`
    /// — for a client with no session, for whom nothing is booked
    /// either: no `Connect` of its was admitted, so no `Move` can be.
    pub(crate) fn outbound(
        &self,
        lane: &mut GatewayLane,
        payload: &[u8],
        from: PortId,
    ) -> Option<SocketAddr> {
        let (fwd, op) = classify_outbound(payload, self.port_pos.get(&from).copied());
        let cid = fwd.or(op.map(|op| op.client_id()))?;
        let addr = self.book.with(cid, |sessions| {
            let session = sessions.get_mut(&cid)?;
            if let Some(op) = op {
                op.apply(session);
            }
            Some(session.addr)
        });
        fwd?;
        if addr.is_none() {
            lane.replies_unroutable += 1;
        }
        addr
    }
}

/// One shard's outbound pump: a fabric task draining the shard's
/// gateway port to its socket — drain, classify, book, `sendmmsg`.
pub(crate) struct OutboundPump {
    pub(crate) shard: usize,
    /// The gateway fabric port carrying this shard's replies.
    pub(crate) gw: PortId,
    /// This shard's UDP socket (replies leave from the server port).
    pub(crate) sock: UdpSocket,
    pub(crate) router: Arc<Router>,
    pub(crate) end_time: Nanos,
    /// Where the task hands in its half of the shard's lane (datagrams
    /// out, unroutable replies, batched sends) as it exits.
    pub(crate) done: mpsc::Sender<GatewayLane>,
}

impl OutboundPump {
    pub(crate) fn spawn(self, fabric: &Arc<dyn Fabric>) {
        fabric.spawn(
            &format!("udp-arena-out{}", self.shard),
            None,
            Box::new(move |ctx| {
                let mut lane = GatewayLane::new(self.shard);
                // What one wakeup drains leaves in one batched write.
                let mut outbox: Vec<(Vec<u8>, SocketAddr)> = Vec::new();
                while ctx.wait_readable(self.gw, Some(self.end_time)) {
                    while let Some(msg) = ctx.try_recv(self.gw) {
                        if let Some(addr) = self.router.outbound(&mut lane, &msg.payload, msg.from)
                        {
                            outbox.push((msg.payload, addr));
                        }
                    }
                    let (sent, batched) = mmsg::send_batch(&self.sock, &outbox);
                    outbox.clear();
                    lane.datagrams_out += sent;
                    lane.batched_sends += batched;
                }
                // The host may already have given up on the run.
                let _ = self.done.send(lane);
            }),
        );
    }
}

/// One shard's inbound pump: a plain OS thread demuxing the shard's
/// socket to the front door and every arena. It owns everything it
/// writes — lane, lottery, hold list, outbox; only the router is shared.
struct InboundPump {
    sock: PumpSock,
    real: Arc<RealFabric>,
    /// The shard's gateway port: the fabric source of everything
    /// forwarded here, so the replies come back to this shard.
    gw: PortId,
    router: Arc<Router>,
    lottery: FaultLottery,
    lane: GatewayLane,
    /// Copies staged per arena cell.
    to_arena: Vec<u64>,
    /// Fault-delayed copies: (due, arena cell, port, payload).
    held: Vec<(Instant, usize, PortId, Vec<u8>)>,
    /// Copies staged this wakeup, flushed in per-port batches under
    /// one queue lock each.
    outbox: Vec<(PortId, Vec<u8>)>,
}

impl InboundPump {
    /// One datagram off the socket: decode, admit and route, draw its
    /// fault fate.
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
        for extra in fates {
            if extra == 0 {
                self.stage(cell, port, payload.to_vec());
            } else {
                let due = now + Duration::from_nanos(extra);
                self.held.push((due, cell, port, payload.to_vec()));
            }
        }
    }

    fn stage(&mut self, cell: usize, port: PortId, payload: Vec<u8>) {
        self.lane.forwarded += 1;
        if cell == FRONT {
            self.lane.to_front += 1;
        } else {
            self.to_arena[cell] += 1;
        }
        self.outbox.push((port, payload));
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

    /// Pump until `deadline`; returns the lane and the per-cell count
    /// of copies staged for each arena.
    fn run(mut self, deadline: Instant) -> (GatewayLane, Vec<u64>) {
        let mut buf = [0u8; MAX_DATAGRAM];
        loop {
            let now = Instant::now();
            let mut i = 0;
            while i < self.held.len() {
                if self.held[i].0 <= now {
                    let (_, cell, port, payload) = self.held.swap_remove(i);
                    self.stage(cell, port, payload);
                } else {
                    i += 1;
                }
            }
            self.flush();
            if now >= deadline {
                break;
            }
            // Wait so the earliest held due time is hit on the dot
            // (block far out, poll the final stretch) instead of up to
            // the idle timeout late.
            let plan = pump_wait_plan(self.held.iter().map(|h| h.0).min(), now);
            match self.sock.recv(plan, &mut buf) {
                // `received`, not the pre-wait `now`, stamps the whole
                // burst.
                Ok((n, from, received)) => {
                    self.process(&buf[..n], from, received);
                    // Drain the rest of a burst in one batched syscall
                    // (no-op without mmsg capability).
                    for (extra, from) in mmsg::recv_more(&self.sock.sock, mmsg::BATCH - 1) {
                        self.lane.batched_recvs += 1;
                        self.process(&extra, from, received);
                    }
                }
                Err(ref e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(_) => break,
            }
        }
        // Late delivery is legal UDP: flush held copies so the
        // accounting identity closes exactly.
        for (_, cell, port, payload) in std::mem::take(&mut self.held) {
            self.stage(cell, port, payload);
        }
        self.flush();
        (self.lane, self.to_arena)
    }
}

/// Bind the shard sockets for one gateway port: `SO_REUSEPORT` siblings
/// where the host has it, else (and at one shard) one plain socket every
/// pump shares via `try_clone`, the kernel waking one blocked reader
/// per datagram.
fn bind_shard_sockets(port: u16, shards: usize) -> std::io::Result<Vec<UdpSocket>> {
    if shards > 1 && mmsg::capability().reuseport {
        // All sockets on the port must carry the flag (a plain bind
        // blocks later reuseport binds), so the first one is bound
        // through the raw path too.
        let bound = (|| {
            let first = mmsg::bind_reuseport(Ipv4Addr::LOCALHOST, port).ok()?;
            let bound_port = first.local_addr().ok()?.port();
            let mut socks = vec![first];
            for _ in 1..shards {
                socks.push(mmsg::bind_reuseport(Ipv4Addr::LOCALHOST, bound_port).ok()?);
            }
            Some(socks)
        })();
        if let Some(socks) = bound {
            return Ok(socks);
        }
        // A partial failure dropped every socket above; fall through to
        // the shared-socket fallback on a fresh plain bind.
    }
    let first = UdpSocket::bind(("127.0.0.1", port))?;
    let clones: Vec<UdpSocket> = (1..shards)
        .map(|_| first.try_clone())
        .collect::<std::io::Result<_>>()?;
    Ok(std::iter::once(first).chain(clones).collect())
}

/// Run the arena directory behind `gateway_shards` pump pairs on one
/// real UDP port until `opts.duration` elapses. Returns the layered
/// traffic report. Fails with `InvalidInput` on an option combination
/// [`ArenaDirectoryConfig::validate`] refuses, and with the bind error
/// when the port cannot be had.
pub fn run_udp_arena_server(opts: &UdpArenaOpts) -> std::io::Result<UdpArenaReport> {
    let kind = if opts.threads > 1 {
        ServerKind::Parallel {
            threads: opts.threads,
            locking: LockPolicy::Optimized,
        }
    } else {
        ServerKind::Sequential
    };
    let shards = opts.gateway_shards.max(1) as usize;
    let (real, fabric) = RealFabric::new_arc_pair();
    let end_time: Nanos = opts.duration.as_nanos() as Nanos;
    // One gateway fabric port per shard carries that shard's replies
    // out; the directory's lifecycle tap (slot-churn notices) rides on
    // shard 0, and the shared book shows every shard what it learns.
    let gw_ports: Vec<PortId> = (0..shards).map(|_| fabric.alloc_port()).collect();
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
        supervision: opts.crash_rate > 0.0,
        frame_faults: (opts.crash_rate > 0.0).then(|| FaultConfig {
            panic_per_frame: opts.crash_rate,
            seed: opts.crash_seed,
            ..FaultConfig::none()
        }),
        migrate_spread: opts.migrate_spread,
        migrate_drain: opts.migrate_drain,
        lifecycle_tap: Some(gw_ports[0]),
        ..ArenaDirectoryConfig::new(opts.arenas, opts.slots_per_arena, server)
    };
    dir_cfg
        .validate()
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    // Before the worlds are built: a port that cannot be had fails at
    // once, and what arrives during set-up waits in the socket.
    let socks = bind_shard_sockets(opts.port, shards)?;
    let handle = spawn_directory(&fabric, dir_cfg);
    // Every provisioned cell, including elastic headroom past the boot
    // fleet — the pumps route to (and the report covers) all of them.
    let cells = handle.arena_ports.len();
    let rebind_grace = if opts.client_timeout.is_zero() {
        Duration::from_secs(1)
    } else {
        opts.client_timeout / 2
    };
    let router = Arc::new(Router::new(
        handle.front_port,
        handle.arena_ports.clone(),
        shards,
        rebind_grace,
    ));

    let deadline = Instant::now() + opts.duration;
    let (done, out_lanes) = mpsc::channel();
    let mut pumps = Vec::with_capacity(shards);
    for (shard, (&gw, sock)) in gw_ports.iter().zip(&socks).enumerate() {
        OutboundPump {
            shard,
            gw,
            sock: sock.try_clone()?,
            router: router.clone(),
            end_time,
            done: done.clone(),
        }
        .spawn(&fabric);
        let pump = InboundPump {
            sock: PumpSock::new(sock.try_clone()?),
            real: real.clone(),
            gw,
            router: router.clone(),
            lottery: FaultLottery::new(FaultConfig {
                seed: shard_fault_seed(opts.fault.seed, shard),
                ..opts.fault.clone()
            }),
            lane: GatewayLane::new(shard),
            to_arena: vec![0; cells],
            held: Vec::new(),
            outbox: Vec::new(),
        };
        pumps.push(std::thread::spawn(move || pump.run(deadline)));
    }

    fabric.run();
    let mut shard_lanes: Vec<GatewayLane> = Vec::with_capacity(shards);
    let mut pump_to_arena = vec![0u64; cells];
    for pump in pumps {
        let (lane, to_arena) = pump.join().expect("inbound pump panicked");
        for (total, v) in pump_to_arena.iter_mut().zip(to_arena) {
            *total += v;
        }
        shard_lanes.push(lane);
    }
    // Every outbound task has exited and handed in its half-lane.
    for out in out_lanes.try_iter() {
        shard_lanes[out.shard].absorb(&out);
    }
    Ok(build_report(&fabric, &handle, shard_lanes, &pump_to_arena))
}

/// Read the directory's sinks and the ports' counters into the layered
/// report. Host-side, after the run: no task is alive.
fn build_report(
    fabric: &Arc<dyn Fabric>,
    handle: &ArenaHandle,
    shard_lanes: Vec<GatewayLane>,
    pump_to_arena: &[u64],
) -> UdpArenaReport {
    let agg = GatewayLane::aggregate(&shard_lanes);
    let admission = handle.admission.lock().unwrap().clone(); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
    let elastic = handle.elastic.lock().unwrap().clone(); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
    let supervisor = handle.supervisor.lock().unwrap().clone(); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
    let mut lanes = Vec::with_capacity(pump_to_arena.len());
    let mut lanes_missing_counters: Vec<u16> = Vec::new();
    let mut interest = InterestStats::default();
    for (k, &pump_forwarded) in pump_to_arena.iter().enumerate() {
        let r = handle.results[k].lock().unwrap(); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
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
            handle.arena_ports[k]
                .iter()
                .fold((0u64, 0u64), |(d, p), &port| {
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
        datagrams_in: agg.datagrams_in,
        decode_rejected: agg.decode_rejected,
        spoof_rejected: agg.spoof_rejected,
        arena_unknown: agg.arena_unknown,
        fault_dropped: agg.fault_dropped,
        fault_duplicated: agg.fault_duplicated,
        forwarded: agg.forwarded,
        to_front: agg.to_front,
        front_drained: admission.drained(),
        front_queue_dropped: fabric.port_dropped(handle.front_port),
        front_pending: fabric.port_pending(handle.front_port) as u64,
        datagrams_out: agg.datagrams_out,
        replies_unroutable: agg.replies_unroutable,
        shards: shard_lanes,
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
/// bridged to sockets for `duration` (DESIGN.md §7):
///
/// ```text
///   driver d ──► egress port ─(one fabric task)─► socket d ──► server
///   driver d ◄── driver port d ◄─(one OS thread per socket)── socket d
/// ```
///
/// Behind the egress port sits a single server address, so every arena
/// of the swarm's topology, and its front door, is that one port.
/// Inbound datagrams are injected with the egress port as their
/// source, which is what the drivers expect of a server reply.
///
/// Bot `i` requests arena `i % arenas`, also when it falls back to the
/// handshake (moot while the director still books the session —
/// placement is sticky). With `ramp = Some((up, hold, down))` bots join
/// staggered over the up window and leave (with a `Disconnect`)
/// staggered over the down window — the load shape that exercises an
/// elastic gateway. The bots are dealt to `sockets` drivers in
/// contiguous blocks, one client socket per spawned driver: a sharded
/// `SO_REUSEPORT` gateway balances 4-tuples, not datagrams, so driving
/// S shards needs at least S client sockets. Given a compiled map in
/// `predict` (bit-identical to the server's — both sides default to
/// [`UdpArenaOpts::default`]'s generator), every bot predicts locally,
/// opts into the Move/Reply trailer and reconciles against each reply;
/// the outcome then carries the prediction ledger and its oracle.
pub fn run_udp_clients(
    server: SocketAddr,
    arenas: u32,
    players: u32,
    duration: Duration,
    ramp: Option<(Duration, Duration, Duration)>,
    sockets: u32,
    predict: Option<Arc<parquake_bsp::BspWorld>>,
) -> std::io::Result<ClientOutcome> {
    let arenas = arenas.max(1);
    let (real, fabric) = RealFabric::new_arc_pair();
    let egress = fabric.alloc_port();
    let end_time: Nanos = duration.as_nanos() as Nanos;
    let cfg = BotSwarmConfig {
        // A bare `clamp(1, 0)` panics.
        drivers: sockets.clamp(1, players.max(1)),
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
    // One socket per *spawned* driver: fewer players than sockets
    // spawn fewer drivers, and nothing may index past them.
    let socks: Vec<UdpSocket> = swarm
        .driver_ports
        .iter()
        .map(|_| {
            let s = UdpSocket::bind("127.0.0.1:0")?;
            s.set_read_timeout(Some(CLIENT_STOP_POLL))?;
            Ok(s)
        })
        .collect::<std::io::Result<_>>()?;

    // Outbound: one fabric task drains the egress port onto the socket
    // of the driver each payload came from.
    let sent = Arc::new(AtomicU64::new(0));
    {
        let out_socks: Vec<UdpSocket> = socks
            .iter()
            .map(UdpSocket::try_clone)
            .collect::<std::io::Result<_>>()?;
        let driver_ports = swarm.driver_ports.clone();
        let sent = sent.clone();
        fabric.spawn(
            "udp-client-out",
            None,
            Box::new(move |ctx| {
                // A payload a driver hands over on its very last tick
                // may miss the wire; it is then not counted as sent.
                while ctx.wait_readable(egress, Some(end_time)) {
                    while let Some(raw) = ctx.try_recv(egress) {
                        let Some(d) = driver_ports.iter().position(|&p| p == raw.from) else {
                            continue;
                        };
                        if out_socks[d].send_to(&raw.payload, server).is_ok() {
                            sent.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            }),
        );
    }

    // Inbound: one plain OS thread per socket, injecting into its
    // driver's port. No timer on the path — the read timeout exists
    // only to observe `stop`.
    let stop = Arc::new(AtomicBool::new(false));
    let inbound: Vec<std::thread::JoinHandle<()>> = socks
        .into_iter()
        .zip(swarm.driver_ports.iter().copied())
        .map(|(sock, port)| {
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
        })
        .collect();

    fabric.run();
    stop.store(true, Ordering::Relaxed);
    for t in inbound {
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
    use parquake_protocol::Encode;
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
        let router = Router::new(FRONT_PORT, vec![vec![10, 11], vec![20, 21]], 1, GRACE);
        (router, GatewayLane::default())
    }

    fn session(router: &Router, cid: u32) -> Option<Session> {
        router
            .book
            .with(cid, |sessions| sessions.get(&cid).copied())
    }

    fn placement(router: &Router, cid: u32) -> Option<GwPlacement> {
        session(router, cid).and_then(|s| s.placement)
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
        assert_eq!(session(&router, 7).unwrap().addr, addr(4000));
        // Handshake retry from the same endpoint refreshes.
        let t1 = t0 + GRACE / 4;
        assert_eq!(
            router.inbound(&mut lane, &connect(7), addr(4000), t1),
            front
        );
        assert_eq!(session(&router, 7).unwrap().last_seen, t1);
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
        router.outbound(&mut lane, &ack(7, 1), 20).unwrap();
        router
            .inbound(&mut lane, &connect(7), addr(5000), t0 + GRACE)
            .unwrap();
        let s = session(&router, 7).unwrap();
        assert_eq!(s.addr, addr(5000));
        // The session moved house, not arena.
        assert_eq!(s.placement.map(|p| p.arena), Some(1));
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
        router.outbound(&mut lane, &ack(7, 0), 10).unwrap();
        assert_eq!(
            router.inbound(&mut lane, &mv(7), addr(4000), t0),
            Some((0, 10))
        );
        // From anywhere else: rejected, even past the grace period
        // (only a validated Connect may rebind).
        let late = t0 + GRACE * 2;
        assert_eq!(router.inbound(&mut lane, &mv(7), addr(5000), late), None);
        assert_eq!(lane.spoof_rejected, 2);
        assert_eq!(session(&router, 7).unwrap().addr, addr(4000));
    }

    #[test]
    fn wait_plan_tracks_the_earliest_due_time() {
        let now = Instant::now();
        // Nothing held: blocking read at the idle cadence.
        assert_eq!(
            pump_wait_plan(None, now),
            PumpWait::Block(PUMP_IDLE_TIMEOUT)
        );
        // Due soon: poll, never risking a tick-rounded oversleep.
        assert_eq!(
            pump_wait_plan(Some(now + Duration::from_millis(3)), now),
            PumpWait::PollSleep(Duration::from_micros(500))
        );
        // Due in under a poll step: nap only to the due time.
        assert_eq!(
            pump_wait_plan(Some(now + Duration::from_micros(80)), now),
            PumpWait::PollSleep(Duration::from_micros(80))
        );
        // Already due: zero nap, the caller flushes immediately.
        assert_eq!(
            pump_wait_plan(Some(now), now),
            PumpWait::PollSleep(Duration::ZERO)
        );
        // Due just past the poll window: block, but stop a tick-slack
        // short of the due time.
        assert_eq!(
            pump_wait_plan(Some(now + Duration::from_millis(12)), now),
            PumpWait::Block(Duration::from_millis(6))
        );
        // Far-off due time: never block longer than the idle cadence,
        // and never ask for a zero timeout (that's an io error).
        assert_eq!(
            pump_wait_plan(Some(now + Duration::from_secs(1)), now),
            PumpWait::Block(PUMP_IDLE_TIMEOUT)
        );
        match pump_wait_plan(
            Some(now + Duration::from_millis(10) + Duration::from_micros(1)),
            now,
        ) {
            PumpWait::Block(t) => assert!(t >= Duration::from_millis(1), "{t:?}"),
            other => panic!("expected Block, got {other:?}"),
        }
    }

    /// Satellite regression: a fault-delayed datagram must be delivered
    /// within 2 ms of its due time. The pre-fix pump slept a fixed
    /// 10 ms in `recv_from` regardless of due times (and `SO_RCVTIMEO`
    /// rounds up to scheduler ticks on top), so a delayed copy could
    /// arrive ~10 ms late — this loop, the pump's exact wait structure
    /// sharing `pump_wait_plan`, would fail.
    #[test]
    fn delayed_fault_delivery_error_under_two_ms() {
        let Ok(sock) = UdpSocket::bind("127.0.0.1:0") else {
            eprintln!("skipping: loopback UDP not permitted");
            return;
        };
        let mut sock = PumpSock::new(sock);
        let mut worst = Duration::ZERO;
        // Best-of-3: absorb scheduler hiccups on loaded machines.
        for _ in 0..3 {
            // 15 ms out exercises both phases: block, then poll.
            let due = Instant::now() + Duration::from_millis(15);
            let mut buf = [0u8; 16];
            let delivered = loop {
                let now = Instant::now();
                if due <= now {
                    break now; // the pump would inject the copy here
                }
                let _ = sock.recv(pump_wait_plan(Some(due), now), &mut buf); // quiet: timeout
            };
            let err = delivered.duration_since(due);
            worst = worst.max(err);
            if err < Duration::from_millis(2) {
                return;
            }
        }
        panic!("delayed delivery error {worst:?} ≥ 2ms on every attempt");
    }

    /// The stamping side of the same bound. The pump reads the clock
    /// at the top of its loop and may then block up to 10 ms in the
    /// receive; stamping an arrival with that pre-wait clock made a
    /// fault-delayed copy come due up to 10 ms early (and measured
    /// rebind grace from a stale instant). The stamp is the one
    /// `PumpSock::recv` takes after the wait.
    #[test]
    fn arrival_after_silence_is_stamped_when_received() {
        let (Ok(rx), Ok(tx)) = (
            UdpSocket::bind("127.0.0.1:0"),
            UdpSocket::bind("127.0.0.1:0"),
        ) else {
            eprintln!("skipping: loopback UDP not permitted");
            return;
        };
        let to = rx.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(8));
            let sent = Instant::now();
            tx.send_to(&[7], to).unwrap();
            sent
        });
        let mut sock = PumpSock::new(rx);
        let mut buf = [0u8; 16];
        let received = loop {
            // The pump's own order: clock, plan, wait (≥ 8 ms here).
            let now = Instant::now();
            if let Ok((_, _, received)) = sock.recv(pump_wait_plan(None, now), &mut buf) {
                break received;
            }
        };
        let sent = sender.join().unwrap();
        // Held copies come due at `stamp + drawn delay`, so a 5 ms
        // draw is staged no earlier than 5 ms after the arrival iff
        // the stamp is no earlier than the arrival.
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
        assert_eq!(router.outbound(&mut lane, &ack(7, 1), 0), sent);
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
        assert_eq!(router.outbound(&mut lane, &reclaim.to_bytes(), 0), None);
        assert_eq!(placement(&router, 7), None);
        assert_eq!(session(&router, 7).map(|s| s.addr), sent);

        // A *late* notice from an old placement must not kill a newer
        // booking elsewhere.
        assert_eq!(router.outbound(&mut lane, &ack(7, 2), 0), sent);
        let stale = LifecycleEvent::Disconnected {
            arena: 1,
            client_id: 7,
        };
        assert_eq!(router.outbound(&mut lane, &stale.to_bytes(), 0), None);
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
        assert_eq!(router.outbound(&mut lane, &mig.to_bytes(), 0), None);
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
        assert_eq!(router.outbound(&mut lane, &joined.to_bytes(), 0), None);
        assert_eq!(
            placement(&router, 8),
            Some(GwPlacement {
                arena: 3,
                thread: 1
            })
        );
        let bye = ServerMessage::Bye { client_id: 8 }.to_bytes();
        assert_eq!(router.outbound(&mut lane, &bye, 0), sent);
        assert_eq!(placement(&router, 8), None);

        // Garbage decodes to neither family: ignored, book untouched.
        assert_eq!(router.outbound(&mut lane, &[0xFF, 1, 2, 3], 0), None);
        assert!(placement(&router, 7).is_some());
        assert_eq!(lane, GatewayLane::default(), "nothing above is a refusal");

        // Nothing is booked, and nothing sent, for a client no Connect
        // was admitted for.
        assert_eq!(router.outbound(&mut lane, &ack(9, 1), 0), None);
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
        assert_eq!(router.outbound(&mut lane, &ack(7, 1), 21), Some(from));
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
        assert_eq!(router.outbound(&mut lane, &ack(8, 1), 11), Some(from));
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
        let dir_cfg = ArenaDirectoryConfig {
            lifecycle_tap: Some(gw),
            ..ArenaDirectoryConfig::new(1, 8, server)
        };
        let handle = spawn_directory(&fabric, dir_cfg);
        assert_eq!(
            handle.arena_ports[0].len(),
            2,
            "dedicated parallel arena should expose one port per thread"
        );
        let front = handle.front_port;
        let router = Arc::new(Router::new(front, handle.arena_ports.clone(), 1, GRACE));
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
                        task_router.outbound(&mut lane, &msg.payload, msg.from);
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
    /// `replies_unroutable` when it is drained — nothing is retained —
    /// and the pump goes straight on to the next payload.
    #[test]
    fn reply_for_a_client_with_no_session_is_unroutable_at_once() {
        let Ok(client_sock) = UdpSocket::bind("127.0.0.1:0") else {
            eprintln!("skipping: loopback UDP not permitted");
            return;
        };
        client_sock
            .set_read_timeout(Some(Duration::from_millis(800)))
            .unwrap();
        let client_addr = client_sock.local_addr().unwrap();
        let (real, fabric) = RealFabric::new_arc_pair();
        let gw = fabric.alloc_port();
        let router = Arc::new(Router::new(FRONT_PORT, vec![vec![10]], 1, GRACE));
        router
            .inbound(
                &mut GatewayLane::default(),
                &connect(7),
                client_addr,
                Instant::now(),
            )
            .unwrap();
        let (done, lanes) = mpsc::channel();
        OutboundPump {
            shard: 0,
            gw,
            sock: UdpSocket::bind("127.0.0.1:0").unwrap(),
            router,
            end_time: 150_000_000, // 150ms
            done,
        }
        .spawn(&fabric);
        // Client 42 never connected; client 7's reply queues behind
        // its.
        real.send_external(gw, gw, reply(42));
        real.send_external(gw, gw, reply(7));
        fabric.run();

        let mut buf = [0u8; MAX_DATAGRAM];
        let (n, _) = client_sock
            .recv_from(&mut buf)
            .expect("routable reply not sent");
        assert_eq!(buf[..n], reply(7)[..]);
        let lane = lanes.try_recv().expect("outbound pump handed in no lane");
        assert_eq!(lane.replies_unroutable, 1);
        assert_eq!(lane.datagrams_out, 1);
        assert!(lane.accounting_closed(), "{lane:?}");
    }

    #[test]
    fn striped_book_is_coherent_across_stripes() {
        let book: StripedBook<u64> = StripedBook::new(4);
        for cid in 0..256u32 {
            book.with(cid, |m| m.insert(cid, u64::from(cid) * 3));
        }
        for cid in 0..256u32 {
            assert_eq!(
                book.with(cid, |m| m.get(&cid).copied()),
                Some(u64::from(cid) * 3)
            );
        }
        assert_eq!(book.with(9999, |m| m.get(&9999).copied()), None);
        // Spread sanity: 256 sequential ids should not all hash to one
        // stripe.
        let used = (0..book.stripes.len())
            .filter(|&s| !book.stripes[s].lock().unwrap().is_empty()) // lockcheck: allow(raw-sync: single-threaded test inspection of the striped book)
            .count();
        assert!(used > 1, "all 256 clients landed on one stripe");
    }

    #[test]
    fn shard_zero_keeps_the_configured_fault_seed() {
        // Byte-identity anchor: at `--gateway-shards 1` the only pump
        // draws the exact pre-shard lottery sequence.
        assert_eq!(shard_fault_seed(0xDEAD_BEEF, 0), 0xDEAD_BEEF);
        assert_ne!(shard_fault_seed(0xDEAD_BEEF, 1), 0xDEAD_BEEF);
        assert_ne!(
            shard_fault_seed(0xDEAD_BEEF, 1),
            shard_fault_seed(0xDEAD_BEEF, 2)
        );
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
    fn report_requires_shard_lanes_to_sum_to_totals() {
        let shard = |s: usize, datagrams: u64| GatewayLane {
            shard: s,
            datagrams_in: datagrams,
            forwarded: datagrams,
            ..GatewayLane::default()
        };
        let mut r = UdpArenaReport {
            datagrams_in: 30,
            forwarded: 30,
            to_front: 0,
            shards: vec![shard(0, 10), shard(1, 20)],
            ..UdpArenaReport::default()
        };
        assert!(r.accounting_closed(), "{r:?}");
        // A shard lane that doesn't close opens the report…
        r.shards[0].fault_dropped += 1;
        assert!(!r.accounting_closed(), "{r:?}");
        r.shards[0].fault_dropped -= 1;
        // …and closed shard lanes that don't SUM to the totals (a
        // datagram counted on a shard but missing from the aggregate)
        // open it too.
        r.shards[1].datagrams_in -= 5;
        r.shards[1].forwarded -= 5;
        assert!(!r.accounting_closed(), "{r:?}");
    }

    /// Satellite: the per-shard counter model. Any partition of one
    /// seeded fate stream across shards must (a) leave every shard
    /// lane individually closed and (b) sum exactly to the lane a
    /// single-socket gateway would have counted for the same stream —
    /// sharding the gateway must never create or lose a datagram fate.
    fn apply_fate(lane: &mut GatewayLane, fate: u8, dups: u8) {
        match fate % 5 {
            0 => {
                lane.datagrams_in += 1;
                lane.decode_rejected += 1;
            }
            1 => {
                lane.datagrams_in += 1;
                lane.spoof_rejected += 1;
            }
            2 => {
                lane.datagrams_in += 1;
                lane.arena_unknown += 1;
            }
            3 => {
                lane.datagrams_in += 1;
                lane.fault_dropped += 1;
            }
            _ => {
                let copies = 1 + u64::from(dups % 3);
                lane.datagrams_in += 1;
                lane.fault_duplicated += copies - 1;
                lane.forwarded += copies;
                if fate % 2 == 0 {
                    lane.to_front += 1;
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn sharded_lanes_sum_to_the_single_socket_totals(
            stream in prop::collection::vec((any::<u8>(), any::<u8>(), 0usize..4), 0..200),
            shards in 1usize..4,
        ) {
            let mut single = GatewayLane::new(0);
            let mut lanes: Vec<GatewayLane> =
                (0..shards).map(GatewayLane::new).collect();
            for &(fate, dups, pick) in &stream {
                apply_fate(&mut single, fate, dups);
                apply_fate(&mut lanes[pick % shards], fate, dups);
            }
            for lane in &lanes {
                prop_assert!(lane.accounting_closed(), "shard lane open: {lane:?}");
            }
            prop_assert!(single.accounting_closed());
            let agg = GatewayLane::aggregate(&lanes);
            prop_assert_eq!(agg.datagrams_in, single.datagrams_in);
            prop_assert_eq!(agg.decode_rejected, single.decode_rejected);
            prop_assert_eq!(agg.spoof_rejected, single.spoof_rejected);
            prop_assert_eq!(agg.arena_unknown, single.arena_unknown);
            prop_assert_eq!(agg.fault_dropped, single.fault_dropped);
            prop_assert_eq!(agg.fault_duplicated, single.fault_duplicated);
            prop_assert_eq!(agg.forwarded, single.forwarded);
            prop_assert_eq!(agg.to_front, single.to_front);
            prop_assert!(agg.accounting_closed());
        }

        /// Any interleaving of Connects, Moves, Disconnects, acks,
        /// replies, `Bye`s and lifecycle notices over a few clients,
        /// endpoints and arenas leaves the book, and the lane, exactly
        /// where the rules say: a Move is forwarded iff it comes from
        /// the bound address *and* a routable placement is booked; a
        /// rebind waits out the grace and keeps the placement; an
        /// eviction notice clears only a placement at its own arena;
        /// and a session, once opened, never goes away.
        #[test]
        fn session_book_follows_the_rules_under_any_interleaving(
            steps in prop::collection::vec(
                (0u8..10, 0u32..3, 0u16..3, 0u16..3, 0u16..2, 0u64..700),
                0..120,
            ),
        ) {
            let (router, mut lane) = two_by_two();
            let ports = [[10, 11], [20, 21]];
            // The rules, restated over a plain map and a second lane.
            let mut model: HashMap<u32, Session> = HashMap::new();
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
                let place = |model: &mut HashMap<u32, Session>, p: Option<GwPlacement>| {
                    if let Some(s) = model.get_mut(&cid) {
                        s.placement = p;
                    }
                };
                match kind {
                    0 | 1 => {
                        let admitted = known.map_or(true, |s| {
                            s.addr == from || now.duration_since(s.last_seen) >= GRACE
                        });
                        let got = router.inbound(&mut lane, &connect(cid), from, now);
                        if admitted {
                            prop_assert_eq!(got, Some((FRONT, FRONT_PORT)));
                            model.insert(cid, Session {
                                addr: from,
                                last_seen: now,
                                placement: known.and_then(|s| s.placement),
                            });
                        } else {
                            prop_assert_eq!(got, None);
                            want.spoof_rejected += 1;
                        }
                    }
                    2..=4 => {
                        let msg = if kind == 4 {
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
                    5 => {
                        // An ack leaving thread `thread` of arena
                        // `endpoint`'s port (arena 2 has none: 0).
                        let source = ports.get(endpoint as usize).map_or(0, |p| p[thread as usize]);
                        let got = router.outbound(&mut lane, &ack(cid, arena), source);
                        prop_assert_eq!(got, sent(&mut want));
                        let thread = if endpoint == arena && arena < 2 { thread } else { 0 };
                        place(&mut model, Some(GwPlacement { arena, thread }));
                    }
                    6 => {
                        let got = router.outbound(&mut lane, &reply(cid), 0);
                        prop_assert_eq!(got, sent(&mut want));
                    }
                    7 => {
                        let bye = ServerMessage::Bye { client_id: cid }.to_bytes();
                        prop_assert_eq!(router.outbound(&mut lane, &bye, 0), sent(&mut want));
                        place(&mut model, None);
                    }
                    8 => {
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
                        prop_assert_eq!(router.outbound(&mut lane, &notice.to_bytes(), 0), None);
                        place(&mut model, Some(GwPlacement { arena, thread: endpoint }));
                    }
                    _ => {
                        let notice = if thread == 0 {
                            LifecycleEvent::Disconnected { arena, client_id: cid }
                        } else {
                            LifecycleEvent::Reclaimed { arena, client_id: cid, at: 1 }
                        };
                        prop_assert_eq!(router.outbound(&mut lane, &notice.to_bytes(), 0), None);
                        if known.and_then(|s| s.placement).map(|p| p.arena) == Some(arena) {
                            place(&mut model, None);
                        }
                    }
                }
                for cid in 0..3u32 {
                    prop_assert_eq!(session(&router, cid), model.get(&cid).copied());
                }
                prop_assert_eq!(&lane, &want);
            }
        }
    }
}
