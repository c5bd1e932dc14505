//! Pooled workers on the real fabric idle on events, not on a poll
//! clock: a datagram injected from outside the fabric starts a frame,
//! and the only idle waits that run into their deadline are the ones
//! the end of the run owes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parquake_arena::{spawn_directory, ArenaDirectoryConfig};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::real::RealFabric;
use parquake_math::Pcg32;
use parquake_protocol::{ClientMessage, Decode, Encode, MoveCmd, ServerMessage};
use parquake_server::{ServerConfig, ServerKind};

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
    let pool = handle.pool.as_ref().unwrap().lock().unwrap().clone();
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
