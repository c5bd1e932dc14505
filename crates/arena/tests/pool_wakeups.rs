//! Pooled workers and the director idle on events, not on a poll
//! clock, on both fabrics: a datagram starts a frame at once, the only
//! idle waits that run into their deadline on the real fabric are the
//! ones the end of the run owes, and a lifecycle notice or a `Connect`
//! wakes a sleeping director. On the virtual fabric the wake-ups land
//! at exact instants: a move's frame starts when the move is delivered,
//! and a notice reaches the tap one hop after it reached the director.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use parquake_arena::{spawn_directory, ArenaDirectoryConfig};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, SwarmRamp, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::real::RealFabric;
use parquake_fabric::{Fabric, FabricKind, Nanos, PortId, TaskCtx, VirtualSmpConfig};
use parquake_math::Pcg32;
use parquake_protocol::{ClientMessage, Decode, Encode, MoveCmd, ServerMessage};
use parquake_server::{LifecycleEvent, ServerConfig, ServerKind};

/// Counted from fabric creation, so it also covers map generation.
const RUN_NS: u64 = 500_000_000;
const MOVES: u32 = 50;

#[test]
fn injected_moves_wake_the_pool_without_a_poll_clock() {
    let (real, fabric) = RealFabric::new_arc_pair();
    // No client timeout and a fixed fleet: no maintenance tick either.
    let server = ServerConfig::new(ServerKind::Sequential, RUN_NS);
    let cfg = ArenaDirectoryConfig {
        workers: 2,
        map: MapGenConfig::small_arena(11),
        maintenance_ns: 0,
        ..ArenaDirectoryConfig::new(2, 4, server)
    };
    let handle = spawn_directory(&fabric, cfg);
    let front = handle.front_port;
    let arena_ports = [handle.arena_ports[0][0], handle.arena_ports[1][0]];
    let client_port = fabric.alloc_port();

    // The client task connects one player per arena (re-sending until
    // acked, as real clients do: a slot spawns in the frame *after* the
    // one that read its Connect), tells the injector to start, and
    // counts the replies.
    let (go_tx, go_rx) = mpsc::channel();
    let replies = Arc::new(AtomicU64::new(0));
    let r = replies.clone();
    fabric.spawn(
        "client",
        None,
        Box::new(move |ctx| {
            let mut acked = [false; 2];
            let mut go_tx = Some(go_tx);
            loop {
                let mut deadline = RUN_NS;
                if go_tx.is_some() {
                    for arena in (0..2u16).filter(|&a| !acked[a as usize]) {
                        let connect = ClientMessage::Connect {
                            client_id: 100 + arena as u32,
                            arena,
                        };
                        ctx.send(client_port, front, connect.to_bytes());
                    }
                    deadline = deadline.min(ctx.now() + 5_000_000);
                }
                if !ctx.wait_readable(client_port, Some(deadline)) && ctx.now() >= RUN_NS {
                    break;
                }
                while let Some(raw) = ctx.try_recv(client_port) {
                    match ServerMessage::from_bytes(&raw.payload) {
                        Ok(ServerMessage::ConnectAck { arena, .. }) => {
                            acked[arena as usize] = true;
                            if acked == [true; 2] {
                                if let Some(tx) = go_tx.take() {
                                    tx.send(()).unwrap();
                                }
                            }
                        }
                        Ok(ServerMessage::Reply { .. }) => {
                            r.fetch_add(1, Ordering::Release);
                        }
                        _ => {}
                    }
                }
            }
        }),
    );

    // The injector is a plain OS thread, as the UDP gateway's inbound
    // pumps are: one move at a time, alternating arenas, each sent an
    // irregular 0.5–2.5 ms after the previous one was answered — so
    // every move is a burst of its own and finds both workers asleep.
    let answered = replies.clone();
    let injector = std::thread::spawn(move || {
        go_rx.recv().unwrap();
        let mut rng = Pcg32::seeded(17);
        for seq in 1..=MOVES {
            std::thread::sleep(Duration::from_micros(500 + rng.below(2_000) as u64));
            let arena = (seq % 2) as usize;
            let mv = ClientMessage::Move {
                client_id: 100 + arena as u32,
                cmd: MoveCmd::idle(seq, 10),
            };
            if seq % 4 < 2 {
                real.send_external(client_port, arena_ports[arena], mv.to_bytes());
            } else {
                real.send_external_batch(client_port, arena_ports[arena], [mv.to_bytes()]);
            }
            let sent = Instant::now();
            while answered.load(Ordering::Acquire) < seq as u64 {
                assert!(
                    sent.elapsed() < Duration::from_millis(200),
                    "move {seq} was never answered"
                );
                std::thread::yield_now();
            }
        }
    });
    fabric.run();
    injector.join().unwrap();

    assert_eq!(
        replies.load(Ordering::Relaxed),
        MOVES as u64,
        "every injected move must be answered"
    );
    let pool = handle.report().pool.unwrap();
    // Every move arrived alone, milliseconds after the previous frame
    // finished: each one got a frame of its own.
    let frames: u64 = pool.frames_by_arena.iter().sum();
    assert!(frames >= MOVES as u64, "{frames} frames for {MOVES} bursts");
    // Under a 1 ms poll bound each worker times out some 500 times in
    // this run. With delivery wake-ups the end of the run times each
    // worker out once; the slack is for a datagram that lands between
    // a worker's scan and its deadline computation, which makes that
    // one wait zero-length and "timed out" before the re-scan.
    let timeouts: u64 = pool.idle_timeouts_by_worker.iter().sum();
    assert!(
        timeouts <= 2 + 3,
        "idle workers woke {timeouts} times on a timer: {:?}",
        pool.idle_timeouts_by_worker
    );
}

/// The virtual twin of the test above: a client task sends one move at
/// a time to a two-arena pool, alternating arenas, each an irregular
/// 0.5–2.5 ms after the previous one was answered. Every move finds
/// both workers asleep, and its frame starts at the instant the move is
/// delivered plus the frame's select charge, not on a later poll tick.
#[test]
fn a_virtual_pool_starts_each_frame_when_its_move_lands() {
    let vcfg = VirtualSmpConfig::default();
    let latency = vcfg.link_latency_ns;
    let fabric = FabricKind::VirtualSmp(vcfg).build();
    let server = ServerConfig::new(ServerKind::Sequential, RUN_NS);
    let select = server.cost.select_op;
    let cfg = ArenaDirectoryConfig {
        workers: 2,
        map: MapGenConfig::small_arena(11),
        maintenance_ns: 0,
        ..ArenaDirectoryConfig::new(2, 4, server)
    };
    let handle = spawn_directory(&fabric, cfg);
    let front = handle.front_port;
    let arena_ports = [handle.arena_ports[0][0], handle.arena_ports[1][0]];
    let me = fabric.alloc_port();
    let sent = Arc::new(Mutex::new(Vec::new()));
    let log = sent.clone();
    fabric.spawn(
        "client",
        None,
        Box::new(move |ctx| {
            connect_one_per_arena(ctx, me, front);
            // Let the last Connect frames finish: a move must find its
            // arena idle.
            ctx.sleep_until(ctx.now() + 10_000_000);
            let mut rng = Pcg32::seeded(17);
            for seq in 1..=MOVES {
                ctx.sleep_until(ctx.now() + 500_000 + rng.below(2_000) as Nanos * 1_000);
                let arena = (seq % 2) as usize;
                let mv = ClientMessage::Move {
                    client_id: 100 + arena as u32,
                    cmd: MoveCmd::idle(seq, 10),
                };
                log.lock().unwrap().push((arena, ctx.now()));
                ctx.send(me, arena_ports[arena], mv.to_bytes());
                // Stray acks of re-sent Connects may still come in.
                loop {
                    assert!(
                        ctx.wait_readable(me, Some(RUN_NS)),
                        "move {seq} was never answered"
                    );
                    let raw = ctx.try_recv(me).unwrap();
                    if let Ok(ServerMessage::Reply { .. }) = ServerMessage::from_bytes(&raw.payload)
                    {
                        break;
                    }
                }
            }
        }),
    );
    fabric.run();

    let sent = sent.lock().unwrap().clone();
    assert_eq!(sent.len(), MOVES as usize);
    let report = handle.report();
    for (arena, results) in report.results.iter().enumerate() {
        let starts: Vec<Nanos> = results
            .timeline
            .samples()
            .iter()
            .filter(|f| f.requests > 0)
            .map(|f| f.start_ns)
            .collect();
        let landed: Vec<Nanos> = sent
            .iter()
            .filter(|&&(a, _)| a == arena)
            .map(|&(_, at)| at + latency + select)
            .collect();
        assert_eq!(starts, landed, "arena {arena}: move frames start late");
    }
}

/// Connect client `100 + k` to arena `k`, for both arenas, through the
/// front door, re-sending every 5 ms until acked.
fn connect_one_per_arena(ctx: &TaskCtx, me: PortId, front: PortId) {
    let mut acked = [false; 2];
    while acked != [true; 2] {
        for arena in (0..2u16).filter(|&a| !acked[a as usize]) {
            let connect = ClientMessage::Connect {
                client_id: 100 + arena as u32,
                arena,
            };
            ctx.send(me, front, connect.to_bytes());
        }
        ctx.wait_readable(me, Some(ctx.now() + 5_000_000));
        while let Some(raw) = ctx.try_recv(me) {
            if let Ok(ServerMessage::ConnectAck { arena, .. }) =
                ServerMessage::from_bytes(&raw.payload)
            {
                acked[arena as usize] = true;
            }
        }
    }
}

/// The director sleeps until work arrives, not until its next poll or
/// the end of the run: with `end_time` 10 s away and nothing else to
/// do, a notice injected on the control port reaches the lifecycle tap
/// within a second, and a `Connect` at the front door is still acked.
#[test]
fn a_sleeping_director_wakes_for_a_notice_and_a_connect() {
    wake_a_sleeping_director(FabricKind::Real.build());
}

/// On the virtual fabric the director wakes when the notice is sent,
/// sleeps until it lands and forwards it at once: it reaches the tap
/// exactly two link latencies after it was sent.
#[test]
fn a_sleeping_virtual_director_forwards_a_notice_the_instant_it_lands() {
    let vcfg = VirtualSmpConfig::default();
    let latency = vcfg.link_latency_ns;
    let (sent, reached) = wake_a_sleeping_director(FabricKind::VirtualSmp(vcfg).build());
    assert_eq!(reached, sent + 2 * latency);
}

/// Inject a notice and then a `Connect` into a directory whose run ends
/// 10 s later; returns when the notice was sent and when it reached the
/// tap.
fn wake_a_sleeping_director(fabric: Arc<dyn Fabric>) -> (Nanos, Nanos) {
    const END_NS: u64 = 10_000_000_000;
    const WITHIN_NS: u64 = 1_000_000_000;
    let tap = fabric.alloc_port();
    let server = ServerConfig::new(ServerKind::Sequential, END_NS);
    let cfg = ArenaDirectoryConfig {
        workers: 1,
        map: MapGenConfig::small_arena(11),
        lifecycle_tap: Some(tap),
        ..ArenaDirectoryConfig::new(1, 4, server)
    };
    let handle = spawn_directory(&fabric, cfg);
    let (front, lifecycle) = (handle.front_port, handle.lifecycle_port);
    let me = fabric.alloc_port();
    let (done_tx, done_rx) = mpsc::channel();
    fabric.spawn(
        "client",
        None,
        Box::new(move |ctx| {
            // Long enough for the director to fall asleep.
            ctx.sleep_until(ctx.now() + 100_000_000);
            let notice = LifecycleEvent::Connected {
                arena: 0,
                client_id: 77,
                thread: 0,
            }
            .to_bytes();
            let sent = ctx.now();
            ctx.send(me, lifecycle, notice.clone());
            assert!(
                ctx.wait_readable(tap, Some(sent + WITHIN_NS)),
                "the notice did not reach the tap within 1 s"
            );
            let reached = ctx.now();
            assert_eq!(ctx.try_recv(tap).unwrap().payload, notice);

            let connect = ClientMessage::Connect {
                client_id: 5,
                arena: 0,
            };
            let start = ctx.now();
            let acked = 'acked: loop {
                if ctx.now() >= start + WITHIN_NS {
                    break false;
                }
                ctx.send(me, front, connect.to_bytes());
                if ctx.wait_readable(me, Some(ctx.now() + 20_000_000)) {
                    while let Some(raw) = ctx.try_recv(me) {
                        if let Ok(ServerMessage::ConnectAck { client_id: 5, .. }) =
                            ServerMessage::from_bytes(&raw.payload)
                        {
                            break 'acked true;
                        }
                    }
                }
            };
            done_tx.send((sent, reached, acked)).unwrap();
        }),
    );
    fabric.run();
    let (sent, reached, acked) = done_rx.try_recv().expect("the client finished");
    assert!(acked, "the Connect was not acked within 1 s");
    (sent, reached)
}

/// The wake path under the schedule explorer: a small pooled directory
/// (2 arenas, 2 workers, 6 bots that join and leave, maintenance on)
/// runs under 32 schedule seeds, each twice. Every seed perturbs which
/// worker a delivery wakes and in what order equal-time wake-ups run;
/// each must replay bit for bit and keep the books closed.
#[test]
fn seeded_schedules_replay_the_pool_and_director_wake_ups() {
    const SEND_NS: Nanos = 1_000_000_000;
    let run = |seed: u64| {
        let fabric = FabricKind::VirtualSmp(VirtualSmpConfig {
            schedule_seed: seed,
            ..VirtualSmpConfig::default()
        })
        .build();
        let server = ServerConfig::new(ServerKind::Sequential, SEND_NS + 300_000_000);
        let cfg = ArenaDirectoryConfig {
            workers: 2,
            map: MapGenConfig::small_arena(11),
            maintenance_ns: 20_000_000,
            ..ArenaDirectoryConfig::new(2, 4, server)
        };
        let handle = spawn_directory(&fabric, cfg);
        let topology = SwarmTopology {
            arena_ports: handle.arena_ports.clone(),
            connect_port: Some(handle.front_port),
        };
        let mut swarm_cfg = BotSwarmConfig::new(6, SEND_NS);
        swarm_cfg.drivers = 2;
        swarm_cfg.ramp = Some(SwarmRamp::UpDown {
            ramp_up_ns: SEND_NS / 4,
            hold_ns: SEND_NS / 2,
            ramp_down_ns: SEND_NS / 4,
        });
        let swarm = spawn_swarm_multi(&fabric, &swarm_cfg, &topology, |c| ((c % 2) as u16, 0));
        fabric.run();
        let hashes: Vec<u64> = handle.worlds.iter().map(|w| w.world_hash()).collect();
        let report = handle.report();
        let replies: Vec<u64> = report.results.iter().map(|r| r.merged().replies).collect();
        assert_eq!(swarm.report().connected, 6, "seed {seed}");
        (hashes, replies, report)
    };
    let mut splits = std::collections::HashSet::new();
    for seed in 1..=32 {
        let (hashes, replies, report) = run(seed);
        let adm = &report.admission;
        assert!(adm.population_closed(), "seed {seed}: {adm:?}");
        assert!(adm.departed > 0, "seed {seed}: nobody left: {adm:?}");
        let pool = report.pool.as_ref().unwrap();
        assert_eq!(
            pool.frames_by_arena.iter().sum::<u64>(),
            pool.frames_by_worker.iter().sum::<u64>(),
            "seed {seed}"
        );
        assert!(replies.iter().all(|&r| r > 0), "seed {seed}: {replies:?}");
        let (hashes_again, replies_again, again) = run(seed);
        assert_eq!(hashes, hashes_again, "seed {seed}: worlds differ");
        assert_eq!(replies, replies_again, "seed {seed}: replies differ");
        let again = again.pool.unwrap();
        assert_eq!(pool.frames_by_worker, again.frames_by_worker, "seed {seed}");
        splits.insert(pool.frames_by_worker.clone());
    }
    // The seeds did explore: which worker a delivery woke varied.
    assert!(splits.len() > 1, "every seed split the frames alike");
}
