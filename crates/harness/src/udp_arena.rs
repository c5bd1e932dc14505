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
//! The gateway runs `gateway_shards` independent pump pairs. Each shard
//! owns a socket bound to the *same* UDP port via `SO_REUSEPORT` (the
//! kernel spreads client flows across shard sockets by 4-tuple hash), a
//! seeded fault injector (shard 0 keeps the configured seed so a
//! 1-shard gateway replays the exact pre-shard lottery; other shards
//! salt it), and a [`parquake_metrics::GatewayLane`] so no counter is
//! ever shared between pumps. Where batched syscalls are available
//! (see [`crate::mmsg`]), a pump drains datagram bursts with one
//! `recvmmsg`, forwards them into the fabric under one queue lock
//! ([`parquake_fabric::real::RealFabric::send_external_batch`]), and
//! writes reply bursts with one `sendmmsg`; everywhere else the same
//! loops degrade to one-datagram std I/O.
//!
//! Inbound pumps are plain OS threads; each datagram passes decode →
//! address admission → routing → a seeded
//! [`parquake_fabric::fault::FaultInjector`] stage (drop, duplicate,
//! delay — client→server path only; replies travel untouched).
//! Client addresses are learned under a strict admission policy
//! ([`admit`]): only a validated `Connect` may bind or rebind an
//! address, mid-session address changes are rejected until the old
//! endpoint has been silent for a grace period, and `Move`/`Disconnect`
//! datagrams must come from the bound address — a datagram carrying a
//! client id cannot redirect that player's reply stream.
//!
//! The address and placement books are striped
//! ([`StripedBook`]): clients hash to one of `max(4, shards)` stripes,
//! so pumps on different shards almost never contend on one lock, and
//! a book entry learned by one shard (Connect via shard 0, reply out
//! via shard 1) is visible to all.
//!
//! Routing demuxes all arenas over every shard: `Connect`s go through
//! the directory's admission stage, while `Move`/`Disconnect`
//! datagrams are routed by the gateway straight to the client's placed
//! arena **and thread** — the placement is learned from the outbound
//! `ConnectAck{arena}` stream plus the ack's fabric source port (which
//! names the dealt thread), and from the directory's lifecycle notices
//! (which carry the thread explicitly).
//!
//! Accounting closes at every layer and at every width: each shard's
//! [`GatewayLane`] closes on its own, the aggregate of the shard lanes
//! must equal the report's totals, the front door balances, and per
//! arena `pump_forwarded + director_forwarded == processed +
//! queue_dropped + pending_at_shutdown`.

use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use parquake_arena::{spawn_directory, AdmissionStats, ArenaDirectoryConfig};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, PredictMap, SwarmRamp, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::{FaultConfig, FaultInjector};
use parquake_fabric::real::RealFabric;
use parquake_fabric::{Fabric, Nanos, PortId};
use parquake_interest::InterestStats;
use parquake_metrics::GatewayLane;
use parquake_protocol::{ClientMessage, Decode, ServerMessage, MAX_DATAGRAM};
use parquake_server::{InterestMode, LockPolicy, ServerConfig, ServerKind};

use crate::mmsg;

/// How long an unroutable reply is retried before being counted as
/// lost; covers the window where a reply races address learning.
const REPLY_RETAIN: Duration = Duration::from_millis(250);

/// A learned client endpoint.
#[derive(Clone, Copy, Debug)]
pub(crate) struct AddrEntry {
    pub(crate) addr: SocketAddr,
    pub(crate) last_seen: Instant,
}

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
    /// from before it is up to that stale — arrivals (address-book
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

/// How often an outbound pump retries held (not-yet-routable) replies
/// when no new gateway traffic wakes it — without this bound a reply
/// whose address-book entry lands just after it would sit the whole
/// retention window on a quiet port.
const HELD_RETRY_TICK: Nanos = 25_000_000;

/// The admission policy: may a decoded datagram from `from` reach the
/// server, and how does it affect the address book?
///
/// * `Connect` from an unknown id binds the address; from the bound
///   address it refreshes it (handshake retry); from a *different*
///   address it rebinds only once the bound endpoint has been silent
///   for `rebind_grace` (NAT rebinding), else it is rejected — a live
///   session cannot be hijacked by guessing its client id.
/// * `Move`/`Disconnect` must come from the bound address.
fn admit(
    book: &mut HashMap<u32, AddrEntry>,
    msg: &ClientMessage,
    from: SocketAddr,
    now: Instant,
    rebind_grace: Duration,
) -> bool {
    match msg {
        ClientMessage::Connect { client_id, .. } => match book.get_mut(client_id) {
            None => {
                book.insert(
                    *client_id,
                    AddrEntry {
                        addr: from,
                        last_seen: now,
                    },
                );
                true
            }
            Some(e) if e.addr == from => {
                e.last_seen = now;
                true
            }
            Some(e) if now.duration_since(e.last_seen) >= rebind_grace => {
                e.addr = from;
                e.last_seen = now;
                true
            }
            Some(_) => false,
        },
        ClientMessage::Move { client_id, .. } | ClientMessage::Disconnect { client_id } => {
            match book.get_mut(client_id) {
                Some(e) if e.addr == from => {
                    e.last_seen = now;
                    true
                }
                _ => false,
            }
        }
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
    /// Replies that never matched a learned client address.
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

/// A placement-book mutation derived from one outbound payload.
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

    /// Apply to a plain placement map (one stripe).
    pub fn apply(&self, book: &mut HashMap<u32, GwPlacement>) {
        match *self {
            BookOp::Insert(cid, p) => {
                book.insert(cid, p);
            }
            BookOp::Remove(cid) => {
                book.remove(&cid);
            }
            BookOp::RemoveIfArena(cid, arena) => {
                if book.get(&cid).map(|p| p.arena) == Some(arena) {
                    book.remove(&cid);
                }
            }
        }
    }
}

/// Classify one outbound fabric payload: does it go on the wire (and
/// to which client), and how does it change the placement book?
///
/// `from_pos` is the payload's fabric source resolved to an
/// `(arena, thread)` position when it came from an arena thread's
/// request port. A `ConnectAck` whose source thread belongs to the
/// ack's own arena teaches the gateway the client's *dealt thread* —
/// the pre-fix book kept only the arena and routed every later move to
/// thread 0's port. Lifecycle notices carry the thread explicitly.
pub fn classify_outbound(
    payload: &[u8],
    from_pos: Option<(u16, u16)>,
) -> (Option<u32>, Option<BookOp>) {
    use parquake_server::LifecycleEvent;
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
                Ok(LifecycleEvent::Connected {
                    arena,
                    client_id,
                    thread,
                }) => Some(BookOp::Insert(client_id, GwPlacement { arena, thread })),
                Ok(LifecycleEvent::Disconnected { arena, client_id })
                | Ok(LifecycleEvent::Reclaimed {
                    arena, client_id, ..
                }) => Some(BookOp::RemoveIfArena(client_id, arena)),
                Ok(LifecycleEvent::Migrated {
                    to_arena,
                    client_id,
                    thread,
                    ..
                }) => Some(BookOp::Insert(
                    client_id,
                    GwPlacement {
                        arena: to_arena,
                        thread,
                    },
                )),
                Ok(LifecycleEvent::Rejected { .. }) | Err(_) => None,
            };
            (None, op)
        }
    }
}

/// Apply one outbound payload to a placement book. Returns
/// `Some(client_id)` when the payload must be forwarded to the client,
/// `None` for lifecycle notices and undecodable payloads.
pub fn apply_outbound(
    book: &mut HashMap<u32, GwPlacement>,
    payload: &[u8],
    from_pos: Option<(u16, u16)>,
) -> Option<u32> {
    let (fwd, op) = classify_outbound(payload, from_pos);
    if let Some(op) = op {
        op.apply(book);
    }
    fwd
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

impl<T: Clone> StripedBook<T> {
    pub(crate) fn new(stripes: usize) -> StripedBook<T> {
        let n = stripes.max(4).next_power_of_two();
        StripedBook {
            stripes: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    /// Fibonacci-hash the client id onto a stripe (power-of-two count).
    fn stripe(&self, cid: u32) -> &Mutex<HashMap<u32, T>> {
        let h = (cid.wrapping_mul(0x9E37_79B9) >> 16) as usize;
        &self.stripes[h & (self.stripes.len() - 1)]
    }

    pub(crate) fn get(&self, cid: u32) -> Option<T> {
        self.stripe(cid).lock().unwrap().get(&cid).cloned() // lockcheck: allow(raw-sync: striped gateway book shared with OS-thread pumps outside the fabric)
    }

    /// Run `f` under the client's stripe lock.
    pub(crate) fn with<R>(&self, cid: u32, f: impl FnOnce(&mut HashMap<u32, T>) -> R) -> R {
        f(&mut self.stripe(cid).lock().unwrap()) // lockcheck: allow(raw-sync: striped gateway book shared with OS-thread pumps outside the fabric)
    }
}

impl StripedBook<GwPlacement> {
    /// Apply a book op under its client's stripe lock.
    pub(crate) fn apply(&self, op: &BookOp) {
        self.with(op.client_id(), |m| op.apply(m));
    }
}

/// Outbound-pump counters, merged into the shard's [`GatewayLane`]
/// after the run.
#[derive(Clone, Copy, Default)]
pub(crate) struct OutCounters {
    pub(crate) sent: u64,
    pub(crate) unroutable: u64,
    pub(crate) batched: u64,
}

/// Everything one outbound pump needs.
pub(crate) struct OutboundShard {
    pub(crate) shard: usize,
    /// The gateway fabric port carrying this shard's replies.
    pub(crate) gw: PortId,
    /// This shard's UDP socket (replies leave from the server port).
    pub(crate) sock: UdpSocket,
    pub(crate) addrs: Arc<StripedBook<AddrEntry>>,
    pub(crate) placements: Arc<StripedBook<GwPlacement>>,
    /// Arena thread request port → `(arena, thread)`, for learning the
    /// dealt thread from a `ConnectAck`'s fabric source.
    pub(crate) port_pos: Arc<HashMap<PortId, (u16, u16)>>,
    pub(crate) end_time: Nanos,
    pub(crate) out: Arc<Mutex<Vec<OutCounters>>>,
}

/// Spawn one shard's outbound pump: a fabric task draining the shard's
/// gateway port to its socket. Replies whose client address is not
/// learned yet are retained up to [`REPLY_RETAIN`] and retried both on
/// new gateway traffic and on a bounded retry tick
/// ([`HELD_RETRY_TICK`]) — without the tick, a book entry arriving on
/// a quiet port left the reply sitting the whole retention window.
pub(crate) fn spawn_outbound_pump(fabric: &Arc<dyn Fabric>, p: OutboundShard) {
    let OutboundShard {
        shard,
        gw,
        sock,
        addrs,
        placements,
        port_pos,
        end_time,
        out,
    } = p;
    fabric.spawn(
        &format!("udp-arena-out{shard}"),
        None,
        Box::new(move |ctx| {
            let mut sent = 0u64;
            let mut unroutable = 0u64;
            let mut batched = 0u64;
            let mut held: Vec<(Instant, u32, Vec<u8>)> = Vec::new();
            loop {
                let deadline = if held.is_empty() {
                    end_time
                } else {
                    (ctx.now() + HELD_RETRY_TICK).min(end_time)
                };
                let readable = ctx.wait_readable(gw, Some(deadline));
                let now = Instant::now();
                // Everything sendable this wakeup goes out in one
                // batched write at the end.
                let mut outbox: Vec<(Vec<u8>, SocketAddr)> = Vec::new();
                held.retain_mut(|(since, cid, payload)| {
                    if let Some(e) = addrs.get(*cid) {
                        outbox.push((std::mem::take(payload), e.addr));
                        false
                    } else if now.duration_since(*since) >= REPLY_RETAIN {
                        unroutable += 1;
                        false
                    } else {
                        true
                    }
                });
                let expired = !readable && ctx.now() >= end_time;
                if readable {
                    while let Some(msg) = ctx.try_recv(gw) {
                        let from_pos = port_pos.get(&msg.from).copied();
                        let (fwd, op) = classify_outbound(&msg.payload, from_pos);
                        if let Some(op) = op {
                            placements.apply(&op);
                        }
                        let Some(cid) = fwd else { continue };
                        match addrs.get(cid) {
                            Some(e) => outbox.push((msg.payload, e.addr)),
                            None => held.push((Instant::now(), cid, msg.payload)),
                        }
                    }
                }
                let (s, b) = mmsg::send_batch(&sock, &outbox);
                sent += s;
                batched += b;
                if expired {
                    break;
                }
            }
            unroutable += held.len() as u64;
            let mut c = out.lock().unwrap(); // lockcheck: allow(raw-sync: OS-thread UDP bridge counters, aggregated after join)
            c[shard].sent += sent;
            c[shard].unroutable += unroutable;
            c[shard].batched += batched;
        }),
    );
}

/// Bind the shard sockets for one gateway port. Returns the sockets
/// and whether `SO_REUSEPORT` carried them (`false` at one shard, and
/// on the portable fallback where all pumps share one socket via
/// `try_clone` and the kernel wakes one blocked reader per datagram).
fn bind_shard_sockets(port: u16, shards: usize) -> std::io::Result<(Vec<UdpSocket>, bool)> {
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
            return Ok((socks, true));
        }
        // A partial failure dropped every socket above; fall through to
        // the shared-socket fallback on a fresh plain bind.
    }
    let first = UdpSocket::bind(("127.0.0.1", port))?;
    let mut socks = Vec::with_capacity(shards);
    for _ in 1..shards {
        socks.push(first.try_clone()?);
    }
    socks.insert(0, first);
    Ok((socks, false))
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
    // shard 0, and the shared placement book makes what it learns
    // visible to every shard.
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
    let handle = spawn_directory(&fabric, dir_cfg);
    // Every provisioned cell, including elastic headroom past the boot
    // fleet — the pumps route to (and the report covers) all of them.
    let cells = handle.arena_ports.len();
    let arena_ports: Arc<Vec<Vec<PortId>>> = Arc::new(handle.arena_ports.clone());
    let port_pos: Arc<HashMap<PortId, (u16, u16)>> = Arc::new(
        arena_ports
            .iter()
            .enumerate()
            .flat_map(|(k, ports)| {
                ports
                    .iter()
                    .enumerate()
                    .map(move |(t, &p)| (p, (k as u16, t as u16)))
            })
            .collect(),
    );

    let (socks, _reuseport) = bind_shard_sockets(opts.port, shards)?;

    let addrs: Arc<StripedBook<AddrEntry>> = Arc::new(StripedBook::new(shards));
    let placements: Arc<StripedBook<GwPlacement>> = Arc::new(StripedBook::new(shards));
    let rebind_grace = if opts.client_timeout.is_zero() {
        Duration::from_secs(1)
    } else {
        opts.client_timeout / 2
    };

    // Outbound pumps: one fabric task per shard.
    let out_counters: Arc<Mutex<Vec<OutCounters>>> =
        Arc::new(Mutex::new(vec![OutCounters::default(); shards]));
    for (shard, gw) in gw_ports.iter().enumerate() {
        spawn_outbound_pump(
            &fabric,
            OutboundShard {
                shard,
                gw: *gw,
                sock: socks[shard].try_clone()?,
                addrs: addrs.clone(),
                placements: placements.clone(),
                port_pos: port_pos.clone(),
                end_time,
                out: out_counters.clone(),
            },
        );
    }

    // Inbound pumps: one OS thread per shard demuxing its socket to
    // all arenas. Each owns its lane and fault injector outright.
    let deadline = Instant::now() + opts.duration;
    let front = handle.front_port;
    let pumps: Vec<std::thread::JoinHandle<(GatewayLane, Vec<u64>)>> = (0..shards)
        .map(|shard| {
            let mut sock = PumpSock::new(
                socks[shard]
                    .try_clone()
                    .expect("shard socket clone for inbound pump"),
            );
            let real = real.clone();
            let gw = gw_ports[shard];
            let addrs = addrs.clone();
            let placements = placements.clone();
            let arena_ports = arena_ports.clone();
            let injector = FaultInjector::new(FaultConfig {
                seed: shard_fault_seed(opts.fault.seed, shard),
                ..opts.fault.clone()
            });
            std::thread::spawn(move || {
                let mut buf = [0u8; MAX_DATAGRAM];
                let mut lane = GatewayLane::new(shard);
                let mut to_arena = vec![0u64; cells];
                // Delayed copies waiting to come due:
                // (due, cell, port, payload); cell usize::MAX = front.
                let mut held: Vec<(Instant, usize, PortId, Vec<u8>)> = Vec::new();
                // Fabric deliveries staged this wakeup, flushed in
                // per-port batches under one queue lock each.
                let mut outbox: Vec<(PortId, Vec<u8>)> = Vec::new();

                fn stage(
                    lane: &mut GatewayLane,
                    to_arena: &mut [u64],
                    outbox: &mut Vec<(PortId, Vec<u8>)>,
                    cell: usize,
                    port: PortId,
                    payload: Vec<u8>,
                ) {
                    lane.forwarded += 1;
                    if cell == usize::MAX {
                        lane.to_front += 1;
                    } else {
                        to_arena[cell] += 1;
                    }
                    outbox.push((port, payload));
                }

                fn flush(real: &RealFabric, gw: PortId, outbox: &mut Vec<(PortId, Vec<u8>)>) {
                    while !outbox.is_empty() {
                        let port = outbox[0].0;
                        let mut batch = Vec::new();
                        let mut rest = Vec::new();
                        for (p, payload) in outbox.drain(..) {
                            if p == port {
                                batch.push(payload);
                            } else {
                                rest.push((p, payload));
                            }
                        }
                        *outbox = rest;
                        real.send_external_batch(gw, port, batch);
                    }
                }

                let process = |lane: &mut GatewayLane,
                               to_arena: &mut Vec<u64>,
                               held: &mut Vec<(Instant, usize, PortId, Vec<u8>)>,
                               outbox: &mut Vec<(PortId, Vec<u8>)>,
                               payload: &[u8],
                               from: SocketAddr,
                               now: Instant| {
                    lane.datagrams_in += 1;
                    let Ok(msg) = ClientMessage::from_bytes(payload) else {
                        lane.decode_rejected += 1;
                        return;
                    };
                    let cid = match &msg {
                        ClientMessage::Connect { client_id, .. }
                        | ClientMessage::Move { client_id, .. }
                        | ClientMessage::Disconnect { client_id } => *client_id,
                    };
                    let admitted =
                        addrs.with(cid, |book| admit(book, &msg, from, now, rebind_grace));
                    if !admitted {
                        lane.spoof_rejected += 1;
                        return;
                    }
                    // Route: Connects go through admission (the
                    // director picks the arena); moves/disconnects go
                    // straight to the placed arena's dealt thread.
                    let (cell, port) = match &msg {
                        ClientMessage::Connect { .. } => (usize::MAX, front),
                        ClientMessage::Move { client_id, .. }
                        | ClientMessage::Disconnect { client_id } => {
                            match route_move(placements.get(*client_id), &arena_ports) {
                                Some(dest) => dest,
                                None => {
                                    lane.arena_unknown += 1;
                                    return;
                                }
                            }
                        }
                    };
                    let fates = injector.draw();
                    if fates.is_empty() {
                        lane.fault_dropped += 1;
                        return;
                    }
                    lane.fault_duplicated += fates.len() as u64 - 1;
                    for extra in fates {
                        if extra == 0 {
                            stage(lane, to_arena, outbox, cell, port, payload.to_vec());
                        } else {
                            held.push((
                                now + Duration::from_nanos(extra),
                                cell,
                                port,
                                payload.to_vec(),
                            ));
                        }
                    }
                };

                loop {
                    let now = Instant::now();
                    let mut i = 0;
                    while i < held.len() {
                        if held[i].0 <= now {
                            let (_, cell, port, payload) = held.swap_remove(i);
                            stage(&mut lane, &mut to_arena, &mut outbox, cell, port, payload);
                        } else {
                            i += 1;
                        }
                    }
                    flush(&real, gw, &mut outbox);
                    if now >= deadline {
                        break;
                    }
                    // Wait so the earliest held due time is hit on the
                    // dot (block far out, poll the final stretch)
                    // instead of up to the idle timeout late.
                    let plan = pump_wait_plan(held.iter().map(|h| h.0).min(), now);
                    match sock.recv(plan, &mut buf) {
                        // `received`, not the pre-wait `now`, stamps
                        // the whole burst.
                        Ok((n, from, received)) => {
                            let (payload, rest) = buf.split_at_mut(n);
                            let _ = rest;
                            process(
                                &mut lane,
                                &mut to_arena,
                                &mut held,
                                &mut outbox,
                                payload,
                                from,
                                received,
                            );
                            // Drain the rest of a burst in one batched
                            // syscall (no-op without mmsg capability).
                            for (extra, from2) in mmsg::recv_more(&sock.sock, mmsg::BATCH - 1) {
                                lane.batched_recvs += 1;
                                process(
                                    &mut lane,
                                    &mut to_arena,
                                    &mut held,
                                    &mut outbox,
                                    &extra,
                                    from2,
                                    received,
                                );
                            }
                        }
                        Err(ref e)
                            if e.kind() == std::io::ErrorKind::WouldBlock
                                || e.kind() == std::io::ErrorKind::TimedOut =>
                        {
                            continue;
                        }
                        Err(_) => break,
                    }
                }
                // Late delivery is legal UDP: flush held copies so the
                // accounting identity closes exactly.
                for (_, cell, port, payload) in std::mem::take(&mut held) {
                    stage(&mut lane, &mut to_arena, &mut outbox, cell, port, payload);
                }
                flush(&real, gw, &mut outbox);
                (lane, to_arena)
            })
        })
        .collect();

    fabric.run();
    let mut shard_lanes: Vec<GatewayLane> = Vec::with_capacity(shards);
    let mut pump_to_arena = vec![0u64; cells];
    for pump in pumps {
        let (lane, to_arena) = pump.join().expect("inbound pump panicked");
        for (k, v) in to_arena.iter().enumerate() {
            pump_to_arena[k] += v;
        }
        shard_lanes.push(lane);
    }
    {
        let outs = out_counters.lock().unwrap(); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
        for lane in shard_lanes.iter_mut() {
            let oc = outs[lane.shard];
            lane.datagrams_out = oc.sent;
            lane.replies_unroutable = oc.unroutable;
            lane.batched_sends = oc.batched;
        }
    }
    let agg = GatewayLane::aggregate(&shard_lanes);

    let admission = handle.admission.lock().unwrap().clone(); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
    let elastic = handle.elastic.lock().unwrap().clone(); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
    let supervisor = handle.supervisor.lock().unwrap().clone(); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
    let mut lanes = Vec::with_capacity(cells);
    let mut lanes_missing_counters: Vec<u16> = Vec::new();
    let mut interest = InterestStats::default();
    for (k, &pump_forwarded) in pump_to_arena.iter().enumerate() {
        let r = handle.results[k].lock().unwrap(); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
        let m = r.merged();
        interest.merge(&r.interest);
        // A provisioned cell absent from the director's tables is a
        // drifted fleet view, not quiet traffic: record it so the
        // report refuses to close, instead of zero-filling silently.
        let director_forwarded = match admission.forwarded_per_arena.get(k) {
            Some(&v) => v,
            None => {
                lanes_missing_counters.push(k as u16);
                0
            }
        };
        let admitted = match admission.per_arena.get(k) {
            Some(&v) => v,
            None => {
                if lanes_missing_counters.last() != Some(&(k as u16)) {
                    lanes_missing_counters.push(k as u16);
                }
                0
            }
        };
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
            director_forwarded,
            processed: m.datagrams,
            queue_dropped,
            pending_at_shutdown,
            replies: m.replies,
            frames: r.frame_count,
            admitted,
        });
    }
    Ok(UdpArenaReport {
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
    })
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

    fn addr(port: u16) -> SocketAddr {
        SocketAddr::from(([127, 0, 0, 1], port))
    }

    const GRACE: Duration = Duration::from_secs(1);

    #[test]
    fn connect_learns_and_refreshes_address() {
        let mut book = HashMap::new();
        let t0 = Instant::now();
        let connect = ClientMessage::Connect {
            client_id: 7,
            arena: 0,
        };
        assert!(admit(&mut book, &connect, addr(4000), t0, GRACE));
        assert_eq!(book[&7].addr, addr(4000));
        // Handshake retry from the same endpoint refreshes.
        assert!(admit(
            &mut book,
            &connect,
            addr(4000),
            t0 + GRACE / 4,
            GRACE
        ));
        assert_eq!(book[&7].last_seen, t0 + GRACE / 4);
    }

    #[test]
    fn connect_from_new_addr_is_rejected_within_grace() {
        let mut book = HashMap::new();
        let t0 = Instant::now();
        let connect = ClientMessage::Connect {
            client_id: 7,
            arena: 0,
        };
        assert!(admit(&mut book, &connect, addr(4000), t0, GRACE));
        // Hijack attempt while the session is live: rejected, address
        // book untouched.
        assert!(!admit(
            &mut book,
            &connect,
            addr(5000),
            t0 + GRACE / 2,
            GRACE
        ));
        assert_eq!(book[&7].addr, addr(4000));
    }

    #[test]
    fn connect_rebinds_after_silence_grace() {
        let mut book = HashMap::new();
        let t0 = Instant::now();
        let connect = ClientMessage::Connect {
            client_id: 7,
            arena: 0,
        };
        assert!(admit(&mut book, &connect, addr(4000), t0, GRACE));
        assert!(admit(&mut book, &connect, addr(5000), t0 + GRACE, GRACE));
        assert_eq!(book[&7].addr, addr(5000));
    }

    #[test]
    fn moves_require_the_bound_address() {
        let mut book = HashMap::new();
        let t0 = Instant::now();
        let connect = ClientMessage::Connect {
            client_id: 7,
            arena: 0,
        };
        let mv = ClientMessage::Move {
            client_id: 7,
            cmd: parquake_protocol::MoveCmd::idle(1, 30),
        };
        // Unknown client: no Move may pass (no implicit binding).
        assert!(!admit(&mut book, &mv, addr(4000), t0, GRACE));
        assert!(book.is_empty());
        assert!(admit(&mut book, &connect, addr(4000), t0, GRACE));
        assert!(admit(&mut book, &mv, addr(4000), t0, GRACE));
        // From anywhere else: rejected, even past the grace period
        // (only a validated Connect may rebind).
        assert!(!admit(&mut book, &mv, addr(5000), t0 + GRACE * 2, GRACE));
        assert_eq!(book[&7].addr, addr(4000));
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
        let mut book: HashMap<u32, GwPlacement> = HashMap::new();

        // ConnectAck installs the placement and is forwarded.
        assert_eq!(apply_outbound(&mut book, &ack(7, 1), None), Some(7));
        assert_eq!(book[&7].arena, 1);

        // A Reclaimed notice from the placed arena evicts the entry
        // (the pre-fix book kept it and misrouted every later Move to
        // the world that had already dropped the session); notices are
        // never forwarded to the client.
        let reclaim = LifecycleEvent::Reclaimed {
            arena: 1,
            client_id: 7,
            at: 123,
        };
        assert_eq!(apply_outbound(&mut book, &reclaim.to_bytes(), None), None);
        assert!(!book.contains_key(&7));

        // A *late* notice from an old placement must not kill a newer
        // booking elsewhere.
        assert_eq!(apply_outbound(&mut book, &ack(7, 2), None), Some(7));
        let stale = LifecycleEvent::Disconnected {
            arena: 1,
            client_id: 7,
        };
        assert_eq!(apply_outbound(&mut book, &stale.to_bytes(), None), None);
        assert_eq!(
            book.get(&7).map(|p| p.arena),
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
        assert_eq!(apply_outbound(&mut book, &mig.to_bytes(), None), None);
        assert_eq!(
            book.get(&7),
            Some(&GwPlacement {
                arena: 0,
                thread: 1
            }),
            "Migrated notice did not rebind"
        );

        // A Connected notice (direct-at-arena join the front door
        // never saw) installs arena and thread; Bye forwards and
        // evicts.
        let joined = LifecycleEvent::Connected {
            arena: 3,
            client_id: 8,
            thread: 1,
        };
        assert_eq!(apply_outbound(&mut book, &joined.to_bytes(), None), None);
        assert_eq!(
            book.get(&8),
            Some(&GwPlacement {
                arena: 3,
                thread: 1
            })
        );
        let bye = ServerMessage::Bye { client_id: 8 }.to_bytes();
        assert_eq!(apply_outbound(&mut book, &bye, None), Some(8));
        assert!(!book.contains_key(&8));

        // Garbage decodes to neither family: ignored, book untouched.
        assert_eq!(apply_outbound(&mut book, &[0xFF, 1, 2, 3], None), None);
        assert_eq!(book.len(), 1);
    }

    /// Satellite regression (stale-thread routing): a dedicated
    /// 2-thread arena must receive a placed client's moves on the
    /// *dealt* thread's port. The pre-fix pump routed every move to
    /// `arena_ports[k][0]`.
    #[test]
    fn moves_route_to_the_dealt_threads_port() {
        // Synthetic 2-arena × 2-thread port table.
        let ports: Vec<Vec<PortId>> = vec![vec![10, 11], vec![20, 21]];
        let mut book: HashMap<u32, GwPlacement> = HashMap::new();

        // The ack for client 7 leaves arena 1 from thread 1's request
        // port: the gateway must learn (arena 1, thread 1)…
        assert_eq!(apply_outbound(&mut book, &ack(7, 1), Some((1, 1))), Some(7));
        assert_eq!(
            book[&7],
            GwPlacement {
                arena: 1,
                thread: 1
            }
        );
        // …and route later moves to thread 1's port (pre-fix: 20).
        assert_eq!(route_move(book.get(&7).copied(), &ports), Some((1, 21)));

        // An ack whose fabric source is NOT one of the named arena's
        // ports (a re-ack relayed oddly) falls back to thread 0 rather
        // than trusting a foreign thread index.
        assert_eq!(apply_outbound(&mut book, &ack(8, 1), Some((0, 1))), Some(8));
        assert_eq!(route_move(book.get(&8).copied(), &ports), Some((1, 20)));

        // Pooled arenas have one port: any learned thread clamps to it.
        let pooled: Vec<Vec<PortId>> = vec![vec![10], vec![20]];
        assert_eq!(route_move(book.get(&7).copied(), &pooled), Some((1, 20)));

        // A placement naming a missing arena is unroutable, not a
        // panic (elastic reap raced the move).
        assert_eq!(
            route_move(
                Some(GwPlacement {
                    arena: 9,
                    thread: 0
                }),
                &ports
            ),
            None
        );
        assert_eq!(route_move(None, &ports), None);
    }

    /// Satellite regression, live half: spin a dedicated directory
    /// whose single arena runs a 2-thread parallel runtime, connect
    /// two clients through the front door, and check the gateway's
    /// book learns two *different* dealt threads from the ack stream —
    /// and that moves would route to each thread's own port.
    #[test]
    fn dedicated_two_thread_arena_deals_moves_to_each_threads_port() {
        use parquake_server::LockPolicy;

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
        let arena_ports = handle.arena_ports.clone();
        let port_pos: HashMap<PortId, (u16, u16)> = arena_ports
            .iter()
            .enumerate()
            .flat_map(|(k, ports)| {
                ports
                    .iter()
                    .enumerate()
                    .map(move |(t, &p)| (p, (k as u16, t as u16)))
            })
            .collect();
        let front = handle.front_port;

        let learned: Arc<Mutex<HashMap<u32, GwPlacement>>> = Arc::new(Mutex::new(HashMap::new()));
        let learned_task = learned.clone();
        fabric.spawn(
            "driver",
            None,
            Box::new(move |ctx| {
                use parquake_protocol::Encode;
                for cid in 0..2u32 {
                    ctx.send(
                        gw,
                        front,
                        ClientMessage::Connect {
                            client_id: cid,
                            arena: 0,
                        }
                        .to_bytes(),
                    );
                }
                let mut book: HashMap<u32, GwPlacement> = HashMap::new();
                // Collect acks (and lifecycle notices) until both
                // clients' placements are learned or time runs out.
                while book.len() < 2 && ctx.now() < end_time - 50_000_000 {
                    if !ctx.wait_readable(gw, Some(ctx.now() + 20_000_000)) {
                        continue;
                    }
                    while let Some(msg) = ctx.try_recv(gw) {
                        apply_outbound(&mut book, &msg.payload, port_pos.get(&msg.from).copied());
                    }
                }
                *learned_task.lock().unwrap() = book; // lockcheck: allow(raw-sync: test harness captures the driver's book for post-run asserts)
            }),
        );
        fabric.run();

        let book = learned.lock().unwrap(); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
        assert_eq!(book.len(), 2, "both clients should be acked: {book:?}");
        let threads: Vec<u16> = (0..2u32).map(|cid| book[&cid].thread).collect();
        assert_eq!(
            {
                let mut t = threads.clone();
                t.sort_unstable();
                t
            },
            vec![0, 1],
            "round-robin dealing should land the two clients on the two threads"
        );
        for cid in 0..2u32 {
            let dest = route_move(book.get(&cid).copied(), &arena_ports).unwrap();
            assert_eq!(
                dest.1, arena_ports[0][threads[cid as usize] as usize],
                "client {cid}'s moves must go to its dealt thread's port"
            );
        }
        // The pre-fix gateway would have sent both to thread 0's port.
        assert_ne!(
            route_move(book.get(&0).copied(), &arena_ports),
            route_move(book.get(&1).copied(), &arena_ports),
            "the two clients should route to different thread ports"
        );
    }

    /// Satellite regression (held-reply starvation): a reply retained
    /// for address learning must leave within one retry tick of the
    /// book entry appearing — even with zero further gateway traffic.
    /// Pre-fix, the outbound pump only retried on `wait_readable`
    /// wakeups, so this reply sat the full 250 ms retention window.
    #[test]
    fn held_reply_sends_within_one_tick_of_address_learning() {
        let Ok(client_sock) = UdpSocket::bind("127.0.0.1:0") else {
            eprintln!("skipping: loopback UDP not permitted");
            return;
        };
        client_sock
            .set_read_timeout(Some(Duration::from_millis(800)))
            .unwrap();
        let gw_sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        let (real, fabric) = RealFabric::new_arc_pair();
        let gw = fabric.alloc_port();
        let addrs: Arc<StripedBook<AddrEntry>> = Arc::new(StripedBook::new(1));
        let out = Arc::new(Mutex::new(vec![OutCounters::default()]));
        spawn_outbound_pump(
            &fabric,
            OutboundShard {
                shard: 0,
                gw,
                sock: gw_sock,
                addrs: addrs.clone(),
                placements: Arc::new(StripedBook::new(1)),
                port_pos: Arc::new(HashMap::new()),
                end_time: 600_000_000, // 600ms
                out: out.clone(),
            },
        );
        // A reply for client 42 reaches the gateway before any address
        // is learned (e.g. a migration re-ack beating the handshake).
        let reply = ServerMessage::Reply {
            client_id: 42,
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
        .to_bytes();
        real.send_external(gw, gw, reply);
        let client_addr = client_sock.local_addr().unwrap();
        let learner = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            let inserted_at = Instant::now();
            addrs.with(42, |book| {
                book.insert(
                    42,
                    AddrEntry {
                        addr: client_addr,
                        last_seen: Instant::now(),
                    },
                );
            });
            let mut buf = [0u8; MAX_DATAGRAM];
            let got = client_sock.recv_from(&mut buf).is_ok();
            (inserted_at, Instant::now(), got)
        });
        fabric.run();
        let (inserted_at, received_at, got) = learner.join().unwrap();
        assert!(got, "held reply never delivered");
        let lag = received_at.duration_since(inserted_at);
        // One 25 ms tick plus generous scheduling slack — far below
        // the pre-fix floor of REPLY_RETAIN (250 ms).
        assert!(
            lag < Duration::from_millis(120),
            "held reply took {lag:?} after the address was learned"
        );
        assert_eq!(out.lock().unwrap()[0].unroutable, 0); // lockcheck: allow(raw-sync: host-side read after the run joined, no tasks alive)
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
    fn striped_book_is_coherent_across_stripes() {
        let book: StripedBook<u64> = StripedBook::new(4);
        for cid in 0..256u32 {
            book.with(cid, |m| m.insert(cid, u64::from(cid) * 3));
        }
        for cid in 0..256u32 {
            assert_eq!(book.get(cid), Some(u64::from(cid) * 3));
        }
        assert_eq!(book.get(9999), None);
        // Spread sanity: 256 sequential ids should not all hash to one
        // stripe.
        let used = (0..book.stripes.len())
            .filter(|&s| !book.stripes[s].lock().unwrap().is_empty()) // lockcheck: allow(raw-sync: single-threaded test inspection of the striped book)
            .count();
        assert!(used > 1, "all 256 clients landed on one stripe");
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
    }
}
