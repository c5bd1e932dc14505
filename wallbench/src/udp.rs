//! `udp_arena_64p`: the multi-arena gateway exactly as
//! `udpd --arenas 2 --workers 2` ships it — spinning default cost
//! model included — over real loopback UDP from one client socket with
//! a sender thread and a receiver thread.
//!
//! 56 steady players in 8 staggered groups, plus 8 churners that play
//! 1 s, `Disconnect`, wait 1 s and reconnect, so address/placement
//! book and ledger *writes* run beside the read-mostly `Move` routing.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parquake_bots::{BotBehavior, BotMind};
use parquake_harness::udp_arena::{run_udp_arena_server, UdpArenaOpts, UdpArenaReport};
use parquake_protocol::{ClientMessage, Encode, ServerMessage, MAX_DATAGRAM};

use crate::inproc::{RunOpts, Timing, CONNECT_BUDGET_NS, CONNECT_RESEND_NS, THROWAWAY_NS};
use crate::openloop::{tally, wait_until, Generated, Ledger, Received, SentLog, Window, TICK_NS};
use crate::procstat::{current_tid, CpuMeter};
use crate::trace::{Span, SpanKind};

pub const PLAYERS: u32 = 64;
pub const ARENAS: u32 = 2;
const STEADY: u32 = 56;
/// Steady players (and, riding along, the churners) are sent in this
/// many groups per tick…
pub const STEADY_GROUPS: u32 = 8;
/// …one group every 3.75 ms.
pub const GROUP_GAP_NS: u64 = TICK_NS / STEADY_GROUPS as u64;
/// A churner plays this many ticks (~1 s), then is offline as long.
const CHURN_PLAY_TICKS: u32 = 33;
/// Churner `c` runs its cycle this many ticks ahead of churner `c - 1`,
/// so the book writes are spread over the window.
const CHURN_PHASE_TICKS: u32 = 8;

const T0_NS: u64 = CONNECT_BUDGET_NS + 20_000_000;
const DRAIN_NS: u64 = 150_000_000;

/// Everything one UDP run produced.
pub struct UdpOutcome {
    pub gen: Generated,
    pub report: UdpArenaReport,
    /// How long the gateway ran (its counters cover all of it).
    pub server_secs: f64,
    /// Connect → ConnectAck for churner reconnects, microseconds.
    pub churn_ack_us: Vec<f64>,
}

struct Live {
    epoch: Instant,
    sock: UdpSocket,
    server: JoinHandle<io::Result<UdpArenaReport>>,
    duration: Duration,
    connects_failed: u64,
    setup_s: f64,
}

fn connect_bytes(client_id: u32) -> Vec<u8> {
    ClientMessage::Connect {
        client_id,
        arena: (client_id % ARENAS) as u16,
    }
    .to_bytes()
}

/// Boot a gateway that serves for `lifetime_ns` on a free loopback
/// port and connect all clients. The port is found by binding `:0` first; losing the race for it
/// (`AddrInUse`) retries with another.
fn set_up(lifetime_ns: u64) -> io::Result<Live> {
    let started = Instant::now();
    let duration = Duration::from_nanos(lifetime_ns);
    for _ in 0..8 {
        let port = UdpSocket::bind("127.0.0.1:0")?.local_addr()?.port();
        let opts = UdpArenaOpts {
            port,
            arenas: ARENAS,
            workers: 2,
            gateway_shards: 1,
            slots_per_arena: 40,
            duration,
            ..UdpArenaOpts::default()
        };
        let epoch = Instant::now();
        let server = std::thread::spawn(move || run_udp_arena_server(&opts));
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.connect(addr)?;
        sock.set_read_timeout(Some(Duration::from_nanos(CONNECT_RESEND_NS)))?;

        let mut acked = vec![false; PLAYERS as usize];
        let mut missing = PLAYERS as usize;
        let mut buf = [0u8; MAX_DATAGRAM];
        'connect: while epoch.elapsed().as_nanos() < CONNECT_BUDGET_NS as u128 {
            if server.is_finished() {
                break;
            }
            for client in (0..PLAYERS).filter(|&c| !acked[c as usize]) {
                // The gateway may not be bound yet: ECONNREFUSED from a
                // connected UDP socket is expected then, and retried.
                let _ = sock.send(&connect_bytes(client));
            }
            let resend_at = Instant::now() + Duration::from_nanos(CONNECT_RESEND_NS);
            while Instant::now() < resend_at {
                let Ok(n) = sock.recv(&mut buf) else {
                    continue;
                };
                if let Ok(ServerMessage::ConnectAck { client_id, .. }) =
                    parquake_protocol::Decode::from_bytes(&buf[..n])
                {
                    if let Some(a) = acked.get_mut(client_id as usize) {
                        missing -= usize::from(!*a);
                        *a = true;
                    }
                }
                if missing == 0 {
                    break 'connect;
                }
            }
        }
        if server.is_finished() {
            match server.join().expect("gateway thread panicked") {
                Err(e) if e.kind() == io::ErrorKind::AddrInUse => continue,
                Err(e) => return Err(e),
                Ok(_) => return Err(io::Error::other("gateway exited during connect")),
            }
        }
        return Ok(Live {
            epoch,
            sock,
            server,
            duration,
            connects_failed: missing as u64,
            setup_s: started.elapsed().as_secs_f64(),
        });
    }
    Err(io::Error::new(
        io::ErrorKind::AddrInUse,
        "no free loopback port after 8 tries",
    ))
}

/// A churner's connection state, driven by the sender.
#[derive(Clone, Copy)]
enum Churn {
    Playing,
    Offline,
    /// Connect first sent at `since_ns`, last (re)sent at `last_ns`.
    Connecting {
        since_ns: u64,
        last_ns: u64,
        counted_failed: bool,
    },
}

/// Run the UDP workload. `Err` means the loopback gateway could not be
/// brought up at all (e.g. binding is not permitted here).
pub fn run(seed: u64, timing: Timing, opts: RunOpts) -> io::Result<UdpOutcome> {
    let window = Window::from_secs(timing.warm_s, timing.window_s);
    let run_ns = window.total_ticks() as u64 * TICK_NS;

    let mut setup_s = Vec::new();
    for _ in 1..timing.setups {
        // A throwaway gateway runs only as long as its connect phase
        // (tens of milliseconds) needs.
        let live = set_up(THROWAWAY_NS)?;
        setup_s.push(live.setup_s);
        live.server.join().expect("gateway thread panicked")?;
    }
    let Live {
        epoch,
        sock,
        server,
        duration,
        connects_failed: initial_failed,
        setup_s: last_setup,
    } = set_up(T0_NS + run_ns + DRAIN_NS)?;
    setup_s.push(last_setup);
    let now = move || epoch.elapsed().as_nanos() as u64;

    let per_group = STEADY / STEADY_GROUPS;
    let group_of = |p: u32| {
        if p < STEADY {
            p / per_group
        } else {
            (p - STEADY) % STEADY_GROUPS
        }
    };
    let offsets_ns: Vec<u64> = (0..PLAYERS)
        .map(|p| group_of(p) as u64 * GROUP_GAP_NS)
        .collect();
    let groups: Vec<Vec<u32>> = (0..STEADY_GROUPS)
        .map(|g| (0..PLAYERS).filter(|&p| group_of(p) == g).collect())
        .collect();

    // Receiver thread. `ack_at[c]` carries churner acks to the sender:
    // 0 = none since the sender last cleared it, else receive time.
    let stop = Arc::new(AtomicBool::new(false));
    let recv_tid = Arc::new(AtomicU32::new(0));
    let ack_at: Arc<Vec<AtomicU64>> = Arc::new((0..PLAYERS).map(|_| AtomicU64::new(0)).collect());
    let receiver: JoinHandle<Received> = {
        let sock = sock.try_clone()?;
        sock.set_read_timeout(Some(Duration::from_millis(20)))?;
        let (stop, recv_tid, ack_at) = (stop.clone(), recv_tid.clone(), ack_at.clone());
        let mut ledger = Ledger::new(window, T0_NS, offsets_ns, 1);
        ledger.boundary_spans = opts.trace;
        std::thread::spawn(move || {
            recv_tid.store(current_tid(), Ordering::Release);
            let mut buf = [0u8; MAX_DATAGRAM];
            let mut spans = Vec::new();
            let mut recv_decode_us = Vec::new();
            let mut count = 0u32;
            while !stop.load(Ordering::Acquire) {
                let Ok(n) = sock.recv(&mut buf) else {
                    continue;
                };
                let at = now();
                if let Some(ServerMessage::ConnectAck { client_id, .. }) =
                    ledger.on_datagram(&buf[..n], at)
                {
                    if let Some(slot) = ack_at.get(client_id as usize) {
                        slot.store(at.max(1), Ordering::Release);
                    }
                }
                if opts.trace {
                    let done = now();
                    count += 1;
                    spans.push(Span {
                        kind: SpanKind::LoadgenRecvDecode,
                        id: count,
                        start_ns: at,
                        end_ns: done,
                    });
                    recv_decode_us.push((done - at) as f64 / 1e3);
                }
            }
            Received {
                ledger,
                spans,
                recv_decode_us,
            }
        })
    };

    let mut cpu = CpuMeter::new(Some(recv_tid));
    let mut minds: Vec<BotMind> = (0..PLAYERS)
        .map(|p| BotMind::new(p, seed, BotBehavior::deathmatch()))
        .collect();
    let mut sent = SentLog::new(window, PLAYERS as usize);
    let mut churn = [Churn::Playing; (PLAYERS - STEADY) as usize];
    let mut connects_attempted = PLAYERS as u64;
    let mut connects_failed = initial_failed;
    let mut churn_ack_us = Vec::new();
    let mut gen_spans = Vec::new();
    let mut think_encode_us = Vec::new();
    for tick in 0..window.total_ticks() {
        if window.slice_boundary(tick) {
            cpu.mark();
        }
        for (g, members) in groups.iter().enumerate() {
            let due = T0_NS + tick as u64 * TICK_NS + g as u64 * GROUP_GAP_NS;
            let p0 = now();
            let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(members.len());
            let mut movers: Vec<u32> = Vec::with_capacity(members.len());
            for &p in members {
                // Every player thinks every tick, online or not: the
                // command stream stays a pure function of the seed and
                // `think`'s own numbering keeps seq = tick + 1.
                let cmd = minds[p as usize].think(due, 30);
                if p >= STEADY {
                    let c = (p - STEADY) as usize;
                    let pos = (tick + c as u32 * CHURN_PHASE_TICKS) % (2 * CHURN_PLAY_TICKS);
                    let want_online = pos < CHURN_PLAY_TICKS;
                    let slot = &ack_at[p as usize];
                    churn[c] = match churn[c] {
                        Churn::Playing if !want_online => {
                            payloads.push(ClientMessage::Disconnect { client_id: p }.to_bytes());
                            Churn::Offline
                        }
                        Churn::Offline if want_online => {
                            slot.store(0, Ordering::Release);
                            connects_attempted += 1;
                            payloads.push(connect_bytes(p));
                            Churn::Connecting {
                                since_ns: due,
                                last_ns: due,
                                counted_failed: false,
                            }
                        }
                        Churn::Connecting {
                            since_ns,
                            last_ns,
                            counted_failed,
                        } => {
                            let acked = slot.load(Ordering::Acquire);
                            if acked != 0 {
                                churn_ack_us.push(acked.saturating_sub(since_ns) as f64 / 1e3);
                                Churn::Playing
                            } else {
                                let failed_now =
                                    !counted_failed && due - since_ns > CONNECT_BUDGET_NS;
                                connects_failed += u64::from(failed_now);
                                let resend = due - last_ns >= CONNECT_RESEND_NS;
                                if resend {
                                    payloads.push(connect_bytes(p));
                                }
                                Churn::Connecting {
                                    since_ns,
                                    last_ns: if resend { due } else { last_ns },
                                    counted_failed: counted_failed || failed_now,
                                }
                            }
                        }
                        state => state,
                    };
                    if !matches!(churn[c], Churn::Playing) {
                        continue;
                    }
                }
                payloads.push(ClientMessage::Move { client_id: p, cmd }.to_bytes());
                movers.push(p);
            }
            if opts.trace {
                let p1 = now();
                gen_spans.push(Span {
                    kind: SpanKind::LoadgenThinkEncode,
                    id: tick,
                    start_ns: p0,
                    end_ns: p1,
                });
                think_encode_us.push((p1 - p0) as f64 / 1e3 / movers.len().max(1) as f64);
            }
            wait_until(now, due);
            for payload in &payloads {
                // A refused or full socket is a lost datagram: the move
                // stays attempted and will count as unanswered.
                let _ = sock.send(payload);
            }
            sent.note_group(tick, due, now());
            for &p in &movers {
                sent.note_sent(p, tick);
            }
        }
    }
    wait_until(now, T0_NS + run_ns + DRAIN_NS / 2);
    stop.store(true, Ordering::Release);
    let Received {
        mut ledger,
        spans: recv_spans,
        recv_decode_us,
    } = receiver.join().expect("receiver thread panicked");
    let report = server.join().expect("gateway thread panicked")?;

    let mut spans = gen_spans;
    spans.extend(recv_spans);
    let tally = tally(&mut ledger, &sent, &mut spans);
    Ok(UdpOutcome {
        gen: Generated {
            window,
            setup_s,
            connects_attempted,
            connects_failed,
            ledger,
            sent,
            tally,
            server_cpu_ns: cpu.server_ns_per_slice(),
            gen_cpu_s: cpu.generator_s(),
            steal_share: cpu.steal_share(),
            spans,
            think_encode_us,
            recv_decode_us,
        },
        report,
        server_secs: duration.as_secs_f64(),
        churn_ack_us,
    })
}
