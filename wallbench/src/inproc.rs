//! The in-process workload driver: a server on the real fabric, fed
//! through its fabric ports by one generator thread that owns a single
//! reply port (the generator's one "socket").
//!
//! The cost model is scaled to zero and the protocol checkers are off:
//! these workloads measure the Rust code, not the modelled Xeon. Reply
//! times are the fabric's own `Message::sent_at`, so the generator's
//! drain lag is excluded from RTT, and the generator keeps off the CPU
//! while the server runs a frame: the box has two cores, and a third
//! busy thread would make every timing a measurement of the scheduler.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parquake_bots::{BotBehavior, BotMind};
use parquake_fabric::real::RealFabric;
use parquake_fabric::{Fabric, PortId};
use parquake_protocol::{ClientMessage, Decode, Encode, MoveCmd, ServerMessage};
use parquake_server::{
    spawn_server, CostModel, InterestMode, ServerConfig, ServerHandle, ServerKind, ServerResults,
};
use parquake_sim::GameWorld;

use crate::mirror::{spawn_mirror, SpanSink};
use crate::openloop::{
    sleep_until, tally, wait_until, Generated, Ledger, SentLog, Window, TICK_NS,
};
use crate::procstat::CpuMeter;
use crate::trace::{Span, SpanKind};
use crate::workloads::InprocSpec;

/// Fabric time by which every client must hold a `ConnectAck`; a
/// client still un-acked then counts as a failed operation.
pub const CONNECT_BUDGET_NS: u64 = 500_000_000;
/// Connect is re-sent to un-acked clients this often.
pub const CONNECT_RESEND_NS: u64 = 10_000_000;
/// Fabric time of tick 0. Fixed (not "when connects finished") because
/// the server's `end_time` must be chosen before it is spawned.
const T0_NS: u64 = CONNECT_BUDGET_NS + 20_000_000;
/// The server outlives the last tick by this much so final moves drain.
const DRAIN_NS: u64 = 200_000_000;
/// Fabric time a throwaway server lives: long enough for every client
/// to connect (a few milliseconds), short because nine set-ups ride on
/// every run and a server cannot be told to stop early.
pub const THROWAWAY_NS: u64 = 100_000_000;
/// The generator sleeps through a server frame and is back this long
/// before the next group is due, to read replies, think and encode
/// while the server idles (384 replies and moves take ~2 ms).
const QUIET_LEAD_NS: u64 = 8_000_000;

/// Which frame loop serves the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// `spawn_server`: the program's own loop (every end-to-end number).
    Program,
    /// The benchmark's span-recording mirror of the sequential loop.
    Mirror,
}

/// How long to warm up and measure, and how many times to set up.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub warm_s: f64,
    pub window_s: f64,
    /// Set-ups per run; all but the last are torn down unused and only
    /// feed `setup_s`.
    pub setups: u32,
}

/// Options that do not change what is measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunOpts {
    /// Record generator and boundary spans.
    pub trace: bool,
    /// Test hook: truncate the first reply of the measured window, so
    /// the correctness gate can be shown to trip.
    pub corrupt_reply: bool,
}

/// Everything one in-process run produced.
pub struct InprocOutcome {
    pub spec: InprocSpec,
    pub gen: Generated,
    pub results: ServerResults,
    pub world: Arc<GameWorld>,
    pub audit: Result<(), String>,
    /// Fabric-time bounds of the measured window.
    pub window_ns: (u64, u64),
    /// The last tick's commands, one per player: real kernel inputs.
    pub last_cmds: Vec<MoveCmd>,
}

struct Live {
    real: Arc<RealFabric>,
    fabric: Arc<dyn Fabric>,
    world: Arc<GameWorld>,
    handle: ServerHandle,
    reply_port: PortId,
    server: JoinHandle<()>,
    sink: SpanSink,
    connects_failed: u64,
    setup_s: f64,
}

/// Players sharing one destination port.
type PortGroup = (PortId, Vec<u32>);

/// Players grouped by the server port their moves go to.
fn by_port(handle: &ServerHandle, players: impl Iterator<Item = u32>) -> Vec<PortGroup> {
    let mut map: BTreeMap<PortId, Vec<u32>> = BTreeMap::new();
    for p in players {
        map.entry(handle.port_of(p)).or_default().push(p);
    }
    map.into_iter().collect()
}

/// Generate the map, build the world, spawn the server and connect
/// every client: the `setup_s` interval.
fn set_up(spec: &InprocSpec, end_time_ns: u64, driver: Driver) -> Live {
    let started = Instant::now();
    let map = Arc::new(spec.map.generate());
    let mut world = GameWorld::new(map, 4, spec.players as u16);
    if let Some(d) = spec.view_dist {
        world.max_view_dist = d;
    }
    let world = Arc::new(world);
    let (real, fabric) = RealFabric::new_arc_pair();
    let reply_port = fabric.alloc_port();
    let cfg = ServerConfig {
        cost: CostModel::default().scaled(0.0),
        checking: false,
        frame_batch_ns: spec.frame_batch_ns,
        delta_compression: spec.delta_compression,
        interest: InterestMode::Sweep,
        ..ServerConfig::new(spec.kind, end_time_ns)
    };
    let sink = SpanSink::default();
    let handle = match driver {
        Driver::Program => spawn_server(&fabric, cfg, world.clone()),
        Driver::Mirror => {
            assert_eq!(
                spec.kind,
                ServerKind::Sequential,
                "the mirror is sequential"
            );
            spawn_mirror(&fabric, cfg, world.clone(), sink.clone())
        }
    };
    let server = {
        let fabric = fabric.clone();
        std::thread::spawn(move || fabric.run())
    };

    let n = spec.players as usize;
    let mut acked = vec![false; n];
    let mut missing = n;
    'connect: while fabric.now(0) < CONNECT_BUDGET_NS {
        for (port, players) in by_port(&handle, (0..spec.players).filter(|&p| !acked[p as usize])) {
            let connects = players.iter().map(|&client_id| {
                ClientMessage::Connect {
                    client_id,
                    arena: 0,
                }
                .to_bytes()
            });
            real.send_external_batch(reply_port, port, connects);
        }
        let resend_at = fabric.now(0) + CONNECT_RESEND_NS;
        while fabric.wait_readable(0, reply_port, Some(resend_at)) {
            while let Some(msg) = fabric.try_recv(0, reply_port) {
                if let Ok(ServerMessage::ConnectAck { client_id, .. }) =
                    ServerMessage::from_bytes(&msg.payload)
                {
                    if let Some(a) = acked.get_mut(client_id as usize) {
                        missing -= usize::from(!*a);
                        *a = true;
                    }
                }
            }
            if missing == 0 {
                break 'connect;
            }
        }
    }
    Live {
        real,
        fabric,
        world,
        handle,
        reply_port,
        server,
        sink,
        connects_failed: missing as u64,
        setup_s: started.elapsed().as_secs_f64(),
    }
}

/// Run one in-process workload end to end.
pub fn run(
    spec: &InprocSpec,
    seed: u64,
    timing: Timing,
    driver: Driver,
    opts: RunOpts,
) -> InprocOutcome {
    let window = Window::from_secs(timing.warm_s, timing.window_s);
    let run_ns = window.total_ticks() as u64 * TICK_NS;

    // Throwaway set-ups: they exist to steady `setup_s`. Each server
    // idles until its (short) end time and is joined before the
    // next set-up so worlds never coexist in memory.
    let mut setup_s = Vec::new();
    for _ in 1..timing.setups {
        let live = set_up(spec, THROWAWAY_NS, driver);
        setup_s.push(live.setup_s);
        live.server.join().expect("server thread panicked");
    }
    let live = set_up(spec, T0_NS + run_ns + DRAIN_NS, driver);
    setup_s.push(live.setup_s);
    let Live {
        real,
        fabric,
        world,
        handle,
        reply_port,
        server,
        sink,
        connects_failed,
        ..
    } = live;
    let now = || fabric.now(0);
    let window_start = T0_NS + window.warm_ticks as u64 * TICK_NS;

    // One group every `group_gap_ns`; a group's moves may go to
    // several server ports (one per server thread).
    let per_group = spec.players.div_ceil(spec.groups);
    let groups: Vec<(u64, Vec<PortGroup>)> = (0..spec.groups)
        .map(|g| {
            let members = (g * per_group)..((g + 1) * per_group).min(spec.players);
            (g as u64 * spec.group_gap_ns, by_port(&handle, members))
        })
        .collect();
    let offsets_ns: Vec<u64> = (0..spec.players)
        .map(|p| (p / per_group) as u64 * spec.group_gap_ns)
        .collect();

    // One generator thread: it sends each group at its due time and,
    // in between, drains the reply port into the ledger. Reply times
    // are the fabric's own `sent_at`, so when a reply is *read* does
    // not matter, and the generator can stay off the CPU while a frame
    // runs: it sleeps through it and comes back `QUIET_LEAD_NS` before
    // the next group is due to drain, think and encode.
    let mut ledger = Ledger::new(window, T0_NS, offsets_ns, spec.threads() as u8);
    // The mirror traces sequential frames from inside; a parallel
    // server is traced at the benchmark boundary only.
    ledger.boundary_spans = opts.trace && spec.kind != ServerKind::Sequential;
    let mut corrupt_pending = opts.corrupt_reply;
    let mut recv_spans: Vec<Span> = Vec::new();
    let mut recv_decode_us = Vec::new();
    let mut drain = |ledger: &mut Ledger| {
        let r0 = now();
        let mut n = 0u32;
        while let Some(mut msg) = fabric.try_recv(0, reply_port) {
            if corrupt_pending && msg.sent_at >= window_start {
                msg.payload.truncate(msg.payload.len().saturating_sub(2));
                corrupt_pending = false;
            }
            ledger.on_datagram(&msg.payload, msg.sent_at);
            n += 1;
        }
        if opts.trace && n > 0 {
            let r1 = now();
            recv_spans.push(Span {
                kind: SpanKind::LoadgenRecvDecode,
                id: recv_spans.len() as u32 + 1,
                start_ns: r0,
                end_ns: r1,
            });
            recv_decode_us.push((r1 - r0) as f64 / 1e3 / n as f64);
        }
    };

    // Inputs are scripted: `think` without ever calling `observe`, so
    // the command stream depends on `seed` only.
    let mut cpu = CpuMeter::new(None);
    let mut minds: Vec<BotMind> = (0..spec.players)
        .map(|p| BotMind::new(p, seed, BotBehavior::deathmatch()))
        .collect();
    let mut sent = SentLog::new(window, spec.players as usize);
    let mut gen_spans: Vec<Span> = Vec::new();
    let mut think_encode_us = Vec::new();
    let mut last_cmds = vec![MoveCmd::idle(0, 30); spec.players as usize];
    for tick in 0..window.total_ticks() {
        for (g, (offset, parts)) in groups.iter().enumerate() {
            let due = T0_NS + tick as u64 * TICK_NS + offset;
            sleep_until(now, due.saturating_sub(QUIET_LEAD_NS));
            drain(&mut ledger);
            if g == 0 && window.slice_boundary(tick) {
                cpu.mark();
            }
            // Think and encode ahead of the due time; only the send
            // itself happens at it.
            let p0 = now();
            let batches: Vec<(PortId, Vec<Vec<u8>>)> = parts
                .iter()
                .map(|(port, players)| {
                    let payloads = players
                        .iter()
                        .map(|&client_id| {
                            let cmd = minds[client_id as usize].think(due, 30);
                            last_cmds[client_id as usize] = cmd;
                            ClientMessage::Move { client_id, cmd }.to_bytes()
                        })
                        .collect();
                    (*port, payloads)
                })
                .collect();
            if opts.trace {
                let p1 = now();
                let moves: usize = parts.iter().map(|(_, p)| p.len()).sum();
                gen_spans.push(Span {
                    kind: SpanKind::LoadgenThinkEncode,
                    id: tick,
                    start_ns: p0,
                    end_ns: p1,
                });
                think_encode_us.push((p1 - p0) as f64 / 1e3 / moves.max(1) as f64);
            }
            wait_until(now, due);
            for (port, payloads) in batches {
                real.send_external_batch(reply_port, port, payloads);
            }
            sent.note_group(tick, due, now());
            for (_, players) in parts {
                for &p in players {
                    sent.note_sent(p, tick);
                }
            }
        }
    }
    sleep_until(now, T0_NS + run_ns + DRAIN_NS / 2);
    drain(&mut ledger);
    server.join().expect("server thread panicked");
    drain(&mut ledger);

    // Mirror spans first, then the generator's and the boundary spans.
    let mut spans = std::mem::take(&mut *sink.lock().expect("span sink poisoned"));
    spans.extend(gen_spans);
    spans.extend(recv_spans);
    let tally = tally(&mut ledger, &sent, &mut spans);
    let results = handle
        .results
        .lock()
        .expect("server result sink poisoned")
        .clone();
    let audit = world.audit_links();
    InprocOutcome {
        spec: spec.clone(),
        gen: Generated {
            window,
            setup_s,
            connects_attempted: spec.players as u64,
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
        results,
        audit,
        world,
        window_ns: (
            window_start,
            window_start + window.window_ticks as u64 * TICK_NS,
        ),
        last_cmds,
    }
}
