//! Runtime-level tests of the shared server machinery: message
//! handling, connection lifecycle, world updates and reply building,
//! driven directly (one fabric task, no bots).

use std::sync::{Arc, Mutex};

use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::{Fabric, FabricKind, Nanos};
use parquake_interest::InterestStats;
use parquake_metrics::{FrameSample, ThreadStats};
use parquake_protocol::{ClientMessage, Decode, Encode, MoveCmd, ServerMessage};
use parquake_server::clients::SlotState;
use parquake_server::runtime::ServerShared;
use parquake_server::{spawn_server, Assignment, CostModel, LockPolicy, ServerConfig, ServerKind};
use parquake_sim::GameWorld;

fn make_shared(
    threads: u32,
    players: u16,
    assignment: Assignment,
) -> (Arc<dyn Fabric>, Arc<ServerShared>) {
    make_shared_with_timeout(threads, players, assignment, 0)
}

fn make_shared_with_timeout(
    threads: u32,
    players: u16,
    assignment: Assignment,
    client_timeout_ns: u64,
) -> (Arc<dyn Fabric>, Arc<ServerShared>) {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let map = Arc::new(MapGenConfig::small_arena(9).generate());
    let world = Arc::new(GameWorld::new(map, 4, players));
    let cfg = ServerConfig {
        assignment,
        checking: false,
        client_timeout_ns,
        ..ServerConfig::new(
            ServerKind::Parallel {
                threads,
                locking: LockPolicy::Optimized,
            },
            10_000_000_000,
        )
    };
    let shared = Arc::new(ServerShared::new(
        &fabric,
        &cfg,
        world,
        threads,
        Some(LockPolicy::Optimized),
    ));
    (fabric, shared)
}

/// Run a closure inside a single fabric task and return its output.
fn in_task<R: Send + 'static>(
    fabric: &Arc<dyn Fabric>,
    f: impl FnOnce(&parquake_fabric::TaskCtx) -> R + Send + 'static,
) -> R {
    let out = Arc::new(Mutex::new(None));
    let o = out.clone();
    fabric.spawn(
        "driver",
        Some(0),
        Box::new(move |ctx| {
            *o.lock().unwrap() = Some(f(ctx));
        }),
    );
    fabric.run();
    let mut guard = out.lock().unwrap();
    guard.take().expect("task produced no output")
}

#[test]
fn connect_then_world_update_spawns_and_acks() {
    let (fabric, shared) = make_shared(2, 8, Assignment::Static);
    let client_port = fabric.alloc_port();
    let sh = shared.clone();
    let (state_after_connect, acked) = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let mut mask = 0u64;
        // Connect lands a Pending slot in thread 0's home block.
        let is_move = sh.handle_message(
            ctx,
            ctx.now(),
            0,
            client_port,
            ClientMessage::Connect {
                client_id: 7,
                arena: 0,
            },
            &mut stats,
            &mut mask,
        );
        assert!(!is_move);
        let pending = sh.clients.slot(0).state;
        // World update transitions Pending -> Active and spawns.
        sh.run_world_update(ctx, sh.ports[0], &mut stats, 1);
        let active = sh.clients.slot(0).state == SlotState::Active
            && sh.clients.slot(0).needs_ack
            && sh.world.store.snapshot(0).active;
        // Reply phase sends the ack.
        let my_port = sh.ports[0];
        sh.reply_for_slots(
            ctx,
            my_port,
            &[0],
            &[],
            1,
            &mut stats,
            true,
            None,
            &mut InterestStats::default(),
        );
        // Let the modelled link deliver the datagram.
        ctx.sleep_until(ctx.now() + 2_000_000);
        let got_ack = ctx.try_recv(client_port).map(|m| {
            matches!(
                ServerMessage::from_bytes(&m.payload),
                Ok(ServerMessage::ConnectAck { client_id: 7, .. })
            )
        });
        (pending, got_ack == Some(true) && active)
    });
    assert_eq!(state_after_connect, SlotState::Pending);
    assert!(acked);
}

#[test]
fn move_is_processed_and_replied_with_echo() {
    let (fabric, shared) = make_shared(2, 8, Assignment::Static);
    let client_port = fabric.alloc_port();
    let sh = shared.clone();
    let echo = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let mut mask = 0u64;
        sh.handle_message(
            ctx,
            ctx.now(),
            0,
            client_port,
            ClientMessage::Connect {
                client_id: 7,
                arena: 0,
            },
            &mut stats,
            &mut mask,
        );
        sh.run_world_update(ctx, sh.ports[0], &mut stats, 1);
        let cmd = MoveCmd {
            sent_at: 123456,
            forward: 320.0,
            ..MoveCmd::idle(42, 30)
        };
        let is_move = sh.handle_message(
            ctx,
            ctx.now(),
            0,
            client_port,
            ClientMessage::Move { client_id: 7, cmd },
            &mut stats,
            &mut mask,
        );
        assert!(is_move);
        assert_eq!(stats.requests, 1);
        let my_port = sh.ports[0];
        sh.reply_for_slots(
            ctx,
            my_port,
            &[0],
            &[],
            1,
            &mut stats,
            true,
            None,
            &mut InterestStats::default(),
        );
        // Let the modelled link deliver the datagrams.
        ctx.sleep_until(ctx.now() + 2_000_000);
        // First message is the ack; second the reply.
        let mut echo = None;
        while let Some(m) = ctx.try_recv(client_port) {
            if let Ok(ServerMessage::Reply {
                seq, sent_at_echo, ..
            }) = ServerMessage::from_bytes(&m.payload)
            {
                echo = Some((seq, sent_at_echo));
            }
        }
        echo
    });
    assert_eq!(echo, Some((42, 123456)));
}

#[test]
fn unknown_client_moves_are_ignored() {
    let (fabric, shared) = make_shared(2, 8, Assignment::Static);
    let client_port = fabric.alloc_port();
    let sh = shared.clone();
    let processed = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let mut mask = 0u64;
        sh.handle_message(
            ctx,
            ctx.now(),
            0,
            client_port,
            ClientMessage::Move {
                client_id: 999,
                cmd: MoveCmd::idle(1, 30),
            },
            &mut stats,
            &mut mask,
        )
    });
    assert!(!processed);
}

#[test]
fn connects_fill_home_block_then_stop() {
    // Thread 0 owns 4 of 8 slots; a fifth connect to it must be refused
    // (no Empty slot in the home block).
    let (fabric, shared) = make_shared(2, 8, Assignment::Static);
    let client_port = fabric.alloc_port();
    let sh = shared.clone();
    let states = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let mut mask = 0u64;
        for cid in 0..5u32 {
            sh.handle_message(
                ctx,
                ctx.now(),
                0,
                client_port,
                ClientMessage::Connect {
                    client_id: 100 + cid,
                    arena: 0,
                },
                &mut stats,
                &mut mask,
            );
        }
        (0..8).map(|i| sh.clients.slot(i).state).collect::<Vec<_>>()
    });
    assert_eq!(
        states[..4],
        [
            SlotState::Pending,
            SlotState::Pending,
            SlotState::Pending,
            SlotState::Pending
        ]
    );
    assert_eq!(states[4..], [SlotState::Empty; 4]);
}

#[test]
fn region_affine_reclustering_steers_clients() {
    let (fabric, shared) = make_shared(4, 16, Assignment::RegionAffine { period_frames: 1 });
    let client_port = fabric.alloc_port();
    let sh = shared.clone();
    let desired: Vec<u32> = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let mut mask = 0u64;
        // Connect 8 clients through their home threads (2 per thread).
        for cid in 0..8u32 {
            sh.handle_message(
                ctx,
                ctx.now(),
                cid / 2,
                client_port,
                ClientMessage::Connect {
                    client_id: cid,
                    arena: 0,
                },
                &mut stats,
                &mut mask,
            );
        }
        // Spawn them, then recluster on the next world update.
        sh.run_world_update(ctx, sh.ports[0], &mut stats, 1);
        sh.run_world_update(ctx, sh.ports[0], &mut stats, 2);
        (0..16).map(|i| sh.clients.slot(i).desired_thread).collect()
    });
    // Every active slot got a desired thread in range, and the spread
    // uses more than one thread (8 players cluster into ≥2 groups).
    let active: Vec<u32> = desired.iter().take(8).copied().collect();
    assert!(active.iter().all(|&t| t < 4));
    let distinct: std::collections::HashSet<u32> = active.iter().copied().collect();
    assert!(distinct.len() >= 2, "no spread: {active:?}");
}

#[test]
fn connect_from_new_port_does_not_hijack_live_slot() {
    // A Connect with a known client_id but a different source port must
    // not rebind the reply port of a live session (address hijack).
    let (fabric, shared) = make_shared(2, 8, Assignment::Static);
    let port_a = fabric.alloc_port();
    let port_b = fabric.alloc_port();
    let sh = shared.clone();
    let (bound_port, rejected) = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let mut mask = 0u64;
        sh.handle_message(
            ctx,
            ctx.now(),
            0,
            port_a,
            ClientMessage::Connect {
                client_id: 7,
                arena: 0,
            },
            &mut stats,
            &mut mask,
        );
        sh.run_world_update(ctx, sh.ports[0], &mut stats, 1);
        // Attacker (or stale duplicate) claims the session from port_b.
        sh.handle_message(
            ctx,
            ctx.now(),
            0,
            port_b,
            ClientMessage::Connect {
                client_id: 7,
                arena: 0,
            },
            &mut stats,
            &mut mask,
        );
        (sh.clients.slot(0).reply_port, stats.connect_rejected)
    });
    assert_eq!(bound_port, port_a);
    assert_eq!(rejected, 1);
}

#[test]
fn connect_rebinds_after_silence_grace() {
    // With a timeout configured, a rebind from a new port is accepted
    // once the old endpoint has been silent for half the window.
    const TIMEOUT: u64 = 2_000_000_000;
    let (fabric, shared) = make_shared_with_timeout(2, 8, Assignment::Static, TIMEOUT);
    let port_a = fabric.alloc_port();
    let port_b = fabric.alloc_port();
    let sh = shared.clone();
    let (early, late) = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let mut mask = 0u64;
        sh.handle_message(
            ctx,
            ctx.now(),
            0,
            port_a,
            ClientMessage::Connect {
                client_id: 7,
                arena: 0,
            },
            &mut stats,
            &mut mask,
        );
        sh.run_world_update(ctx, sh.ports[0], &mut stats, 1);
        // Too soon: rejected.
        sh.handle_message(
            ctx,
            ctx.now(),
            0,
            port_b,
            ClientMessage::Connect {
                client_id: 7,
                arena: 0,
            },
            &mut stats,
            &mut mask,
        );
        let early = sh.clients.slot(0).reply_port;
        // After the grace period: accepted.
        ctx.sleep_until(ctx.now() + TIMEOUT / 2);
        sh.handle_message(
            ctx,
            ctx.now(),
            0,
            port_b,
            ClientMessage::Connect {
                client_id: 7,
                arena: 0,
            },
            &mut stats,
            &mut mask,
        );
        (early, sh.clients.slot(0).reply_port)
    });
    assert_eq!(early, port_a);
    assert_eq!(late, port_b);
}

#[test]
fn silent_client_is_reclaimed_with_bye() {
    const TIMEOUT: u64 = 1_000_000_000;
    let (fabric, shared) = make_shared_with_timeout(2, 8, Assignment::Static, TIMEOUT);
    let client_port = fabric.alloc_port();
    let sh = shared.clone();
    let (state, timeouts, got_bye) = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let mut mask = 0u64;
        sh.handle_message(
            ctx,
            ctx.now(),
            0,
            client_port,
            ClientMessage::Connect {
                client_id: 7,
                arena: 0,
            },
            &mut stats,
            &mut mask,
        );
        sh.run_world_update(ctx, sh.ports[0], &mut stats, 1);
        assert_eq!(sh.clients.slot(0).state, SlotState::Active);
        // Stay silent past the timeout; the next world update reclaims.
        ctx.sleep_until(ctx.now() + TIMEOUT + 1);
        sh.run_world_update(ctx, sh.ports[0], &mut stats, 2);
        ctx.sleep_until(ctx.now() + 2_000_000);
        let mut got_bye = false;
        while let Some(m) = ctx.try_recv(client_port) {
            if let Ok(ServerMessage::Bye { client_id: 7 }) = ServerMessage::from_bytes(&m.payload) {
                got_bye = true;
            }
        }
        (sh.clients.slot(0).state, stats.timeouts, got_bye)
    });
    assert_eq!(state, SlotState::Empty);
    assert_eq!(timeouts, 1);
    assert!(got_bye, "no Bye datagram reached the client");
}

#[test]
fn active_client_is_not_reclaimed_while_sending() {
    const TIMEOUT: u64 = 1_000_000_000;
    let (fabric, shared) = make_shared_with_timeout(2, 8, Assignment::Static, TIMEOUT);
    let client_port = fabric.alloc_port();
    let sh = shared.clone();
    let state = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let mut mask = 0u64;
        sh.handle_message(
            ctx,
            ctx.now(),
            0,
            client_port,
            ClientMessage::Connect {
                client_id: 7,
                arena: 0,
            },
            &mut stats,
            &mut mask,
        );
        sh.run_world_update(ctx, sh.ports[0], &mut stats, 1);
        // Keep moving at a rate well inside the timeout window.
        for frame in 0..10u32 {
            ctx.sleep_until(ctx.now() + TIMEOUT / 2);
            sh.handle_message(
                ctx,
                ctx.now(),
                0,
                client_port,
                ClientMessage::Move {
                    client_id: 7,
                    cmd: MoveCmd::idle(frame, 30),
                },
                &mut stats,
                &mut mask,
            );
            sh.run_world_update(ctx, sh.ports[0], &mut stats, 2 + frame);
        }
        assert_eq!(stats.timeouts, 0);
        sh.clients.slot(0).state
    });
    assert_eq!(state, SlotState::Active);
}

#[test]
fn global_event_buffer_roundtrip() {
    use parquake_math::Vec3;
    use parquake_protocol::{GameEvent, GameEventKind};
    let (fabric, shared) = make_shared(2, 8, Assignment::Static);
    let sh = shared.clone();
    let (n_read, n_after_clear) = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let ev = GameEvent {
            kind: GameEventKind::Sound,
            a: 1,
            b: 2,
            pos: Vec3::ZERO,
        };
        sh.push_global_events(ctx, &mut stats, &[ev, ev, ev]);
        let read = sh.read_global_events(ctx, &mut stats).len();
        sh.clear_global_events(ctx, &mut stats);
        (read, sh.read_global_events(ctx, &mut stats).len())
    });
    assert_eq!(n_read, 3);
    assert_eq!(n_after_clear, 0);
}

/// Satellite: one server, one gateway port, two concurrent clients —
/// one legacy (no input-seq trailer), one predicting. The legacy
/// client's replies must stay trailer-free while the predicting
/// client's replies carry the reconciliation trailer, with duplicate
/// inputs dropped and sequence gaps bumping the perturbation epoch.
#[test]
fn mixed_legacy_and_trailered_clients_share_a_server() {
    let (fabric, shared) = make_shared(2, 8, Assignment::Static);
    let legacy_port = fabric.alloc_port();
    let predict_port = fabric.alloc_port();
    let sh = shared.clone();
    let (stats_out, legacy_reply, predict_reply) = in_task(&fabric, move |ctx| {
        let mut stats = ThreadStats::new();
        let mut mask = 0u64;
        for (cid, port) in [(7u32, legacy_port), (8u32, predict_port)] {
            sh.handle_message(
                ctx,
                ctx.now(),
                0,
                port,
                ClientMessage::Connect {
                    client_id: cid,
                    arena: 0,
                },
                &mut stats,
                &mut mask,
            );
        }
        sh.run_world_update(ctx, sh.ports[0], &mut stats, 1);

        let send_move = |ctx: &parquake_fabric::TaskCtx,
                         stats: &mut ThreadStats,
                         mask: &mut u64,
                         cid: u32,
                         seq: u32,
                         trailer: bool| {
            let cmd = MoveCmd {
                forward: 320.0,
                predict_ack: trailer.then_some(0),
                ..MoveCmd::idle(seq, 30)
            };
            sh.handle_message(
                ctx,
                ctx.now(),
                0,
                if cid == 7 { legacy_port } else { predict_port },
                ClientMessage::Move {
                    client_id: cid,
                    cmd,
                },
                stats,
                mask,
            )
        };

        // In-order inputs for both clients.
        for seq in 1..=2u32 {
            assert!(send_move(ctx, &mut stats, &mut mask, 7, seq, false));
            assert!(send_move(ctx, &mut stats, &mut mask, 8, seq, true));
        }
        // A network duplicate of the predicting client's seq 2: dropped.
        assert!(
            !send_move(ctx, &mut stats, &mut mask, 8, 2, true),
            "duplicate trailered input must not re-execute"
        );
        // The same duplicate from the legacy client IS re-executed
        // (legacy semantics are untouched).
        assert!(send_move(ctx, &mut stats, &mut mask, 7, 2, false));
        // A gap: seqs 3..4 lost, 5 arrives.
        assert!(send_move(ctx, &mut stats, &mut mask, 8, 5, true));

        let my_port = sh.ports[0];
        sh.reply_for_slots(
            ctx,
            my_port,
            &[0, 1],
            &[],
            2,
            &mut stats,
            true,
            None,
            &mut InterestStats::default(),
        );
        ctx.sleep_until(ctx.now() + 2_000_000);
        let grab = |port| {
            let mut reply = None;
            while let Some(m) = ctx.try_recv(port) {
                if let Ok(ServerMessage::Reply { seq, predict, .. }) =
                    ServerMessage::from_bytes(&m.payload)
                {
                    reply = Some((seq, predict));
                }
            }
            reply
        };
        (stats, grab(legacy_port), grab(predict_port))
    });

    assert_eq!(stats_out.inputs_deduped, 1);
    assert_eq!(stats_out.input_gaps, 1);

    let (seq, predict) = legacy_reply.expect("legacy client got no reply");
    assert_eq!(seq, 2);
    assert_eq!(predict, None, "legacy reply must stay trailer-free");

    let (seq, predict) = predict_reply.expect("predicting client got no reply");
    assert_eq!(seq, 5);
    let p = predict.expect("predicting reply lacks the trailer");
    assert_eq!(p.input_ack, 5, "ack echoes the last applied input");
    assert!(
        p.perturb >= 1,
        "the 3..4 gap must bump the perturbation epoch"
    );
}

/// The §5.2 batching window of a 2-thread parallel server.
const WINDOW_NS: Nanos = 10_000_000;
/// When the clients of [`batched_frame`] send their moves.
const MOVES_AT: Nanos = 50_000_000;

/// A 2-thread parallel server with a 10 ms batching window, under a
/// cost model that charges nothing: a frame's duration is then exactly
/// the time its master spent waiting for joiners. Client 0 plays on
/// thread 0's port and client 1 on thread 1's; both connect (twice: the
/// first Connect claims the slot, the second starts the frame whose
/// world update spawns the player). At `MOVES_AT` client 0 moves and,
/// when `both`, client 1 moves at the same instant. Returns the frame
/// that ran those moves.
fn batched_frame(both: bool) -> FrameSample {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let map = Arc::new(MapGenConfig::small_arena(9).generate());
    let world = Arc::new(GameWorld::new(map, 4, 4));
    let kind = ServerKind::Parallel {
        threads: 2,
        locking: LockPolicy::Optimized,
    };
    let cfg = ServerConfig {
        cost: CostModel::default().scaled(0.0),
        frame_batch_ns: WINDOW_NS,
        ..ServerConfig::new(kind, 2 * MOVES_AT)
    };
    let handle = spawn_server(&fabric, cfg, world);
    let server = handle.ports.clone();
    let clients = [fabric.alloc_port(), fabric.alloc_port()];
    fabric.spawn(
        "clients",
        None,
        Box::new(move |ctx| {
            let send =
                |i: usize, msg: ClientMessage| ctx.send(clients[i], server[i], msg.to_bytes());
            for at in [0, 2 * WINDOW_NS] {
                ctx.sleep_until(at);
                for i in 0..2 {
                    let client_id = i as u32;
                    send(
                        i,
                        ClientMessage::Connect {
                            client_id,
                            arena: 0,
                        },
                    );
                }
            }
            ctx.sleep_until(MOVES_AT);
            for i in 0..if both { 2 } else { 1 } {
                let cmd = MoveCmd::idle(1, 30);
                send(
                    i,
                    ClientMessage::Move {
                        client_id: i as u32,
                        cmd,
                    },
                );
            }
        }),
    );
    fabric.run();
    let results = handle.results.lock().unwrap();
    let frame = results
        .timeline
        .samples()
        .iter()
        .find(|s| s.start_ns >= MOVES_AT)
        .copied()
        .expect("the moves ran a frame");
    assert_eq!(frame.requests, 1 + both as u32, "every move executed");
    frame
}

/// Both threads have a move: the window closes the moment the second
/// one joins, and the world update starts then.
#[test]
fn the_batching_window_closes_when_the_last_thread_joins() {
    let frame = batched_frame(true);
    assert_eq!(frame.participants, 2);
    assert!(
        frame.duration_ns <= 1_000_000,
        "both threads joined at once, yet the master waited {} µs of its {} ms window",
        frame.duration_ns / 1_000,
        WINDOW_NS / 1_000_000
    );
}

/// Only thread 0 has a move: thread 1 never joins, so the window runs
/// to its deadline before the world update starts.
#[test]
fn the_batching_window_runs_to_its_deadline_while_a_thread_is_missing() {
    let frame = batched_frame(false);
    assert_eq!(frame.participants, 1);
    assert!(
        frame.duration_ns >= WINDOW_NS,
        "the frame began {} µs after the master woke, inside its window",
        frame.duration_ns / 1_000
    );
}
