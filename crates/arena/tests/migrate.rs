//! End-to-end live migration on the virtual fabric: a skewed fleet is
//! levelled by fenced handoffs (clients ride the re-ack to their new
//! arena, every capsule lands world-hash-identical, the population
//! identity stays closed), and with drain-before-reap on, an elastic
//! directory empties a spawned arena instead of waiting its clients
//! out.

use std::sync::{Arc, Mutex};

use parquake_arena::{spawn_directory, AdmissionPolicy, ArenaDirectoryConfig};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::{FabricKind, Nanos, PortId, TaskCtx};
use parquake_protocol::{ClientMessage, Decode, Encode, MoveCmd, ServerMessage};
use parquake_server::{ServerConfig, ServerKind};

const SEND_NS: u64 = 4_000_000_000;

/// Every bot requests arena 0 of 2: with the spread trigger armed the
/// director must level the pair live, and the bots must follow the
/// unsolicited re-acks into arena 1.
#[test]
fn skewed_load_is_levelled_by_live_handoffs() {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let mut server = ServerConfig::new(ServerKind::Sequential, SEND_NS + 500_000_000);
    server.checking = false;
    let cfg = ArenaDirectoryConfig {
        policy: AdmissionPolicy::Explicit,
        workers: 2,
        map: MapGenConfig::small_arena(11),
        maintenance_ns: 20_000_000,
        migrate_spread: 2,
        ..ArenaDirectoryConfig::new(2, 8, server)
    };
    let handle = spawn_directory(&fabric, cfg);
    let topology = SwarmTopology {
        arena_ports: handle.arena_ports.clone(),
        connect_port: Some(handle.front_port),
    };
    let mut swarm_cfg = BotSwarmConfig::new(8, SEND_NS);
    swarm_cfg.drivers = 2;
    let swarm = spawn_swarm_multi(&fabric, &swarm_cfg, &topology, move |_| (0, 0));
    fabric.run();

    let report = handle.report();
    let sup = &report.supervisor;
    let adm = &report.admission;
    let bots = swarm.report();
    assert!(sup.migrations >= 1, "no handoffs: {sup:?}");
    assert_eq!(
        sup.migrate_hash_mismatch, 0,
        "a capsule landed altered: {sup:?}"
    );
    // The clients followed the re-ack: bots observed cross-arena acks
    // and arena 1 actually served them afterwards.
    assert!(
        bots.rehomed >= 1,
        "no bot rode a re-ack to arena 1 (migrations {})",
        sup.migrations
    );
    let replies_a1 = report.results[1].merged().replies;
    assert!(replies_a1 > 0, "arena 1 never served a migrated client");
    // The books survived every rebooking.
    assert_eq!(bots.connected, 8);
    assert!(adm.population_closed(), "identity open: {adm:?}");
    assert_eq!(adm.placed, 8, "{adm:?}");
    assert!(bots.stats.received > 0);
}

/// Deterministic world-hash identity across one scripted handoff: two
/// identical directories run the same traffic, one with migration off;
/// the migrated run must report zero hash mismatches — the per-slot
/// oracle checked under the fence — while still moving slots.
#[test]
fn handoffs_are_deterministic_and_hash_identical() {
    let run = |spread: u32| {
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let mut server = ServerConfig::new(ServerKind::Sequential, SEND_NS + 500_000_000);
        server.checking = false;
        let cfg = ArenaDirectoryConfig {
            policy: AdmissionPolicy::Explicit,
            workers: 2,
            map: MapGenConfig::small_arena(11),
            maintenance_ns: 20_000_000,
            migrate_spread: spread,
            ..ArenaDirectoryConfig::new(2, 8, server)
        };
        let handle = spawn_directory(&fabric, cfg);
        let topology = SwarmTopology {
            arena_ports: handle.arena_ports.clone(),
            connect_port: Some(handle.front_port),
        };
        let mut swarm_cfg = BotSwarmConfig::new(6, SEND_NS);
        swarm_cfg.drivers = 2;
        let swarm = spawn_swarm_multi(&fabric, &swarm_cfg, &topology, move |_| (0, 0));
        fabric.run();
        let hashes: Vec<u64> = handle.worlds.iter().map(|w| w.world_hash()).collect();
        let sup = handle.report().supervisor;
        (sup, hashes, swarm.report().stats.received)
    };
    let (sup_a, hashes_a, recv_a) = run(2);
    let (sup_b, hashes_b, recv_b) = run(2);
    assert!(sup_a.migrations >= 1);
    assert_eq!(sup_a.migrate_hash_mismatch, 0, "{sup_a:?}");
    // Identical runs are bit-identical: same handoffs, same worlds.
    assert_eq!(sup_a.migrations, sup_b.migrations);
    assert_eq!(hashes_a, hashes_b);
    assert_eq!(recv_a, recv_b);
}

fn drain_acks_until(ctx: &TaskCtx, port: PortId, until: Nanos, out: &Mutex<Vec<u32>>) {
    loop {
        if ctx.now() >= until {
            break;
        }
        if !ctx.wait_readable(port, Some(until)) {
            break;
        }
        while let Some(raw) = ctx.try_recv(port) {
            if let Ok(ServerMessage::ConnectAck { client_id, .. }) =
                ServerMessage::from_bytes(&raw.payload)
            {
                out.lock().unwrap().push(client_id);
            }
        }
    }
}

/// Drain-before-reap: an elastic directory spawned a second arena for
/// one overflow client; when capacity frees up in the boot arena the
/// director must migrate that client home so the linger reclaim can
/// reap the empty arena — instead of holding it hostage to one
/// session.
#[test]
fn drain_before_reap_empties_the_spawned_arena() {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let mut server = ServerConfig::new(ServerKind::Sequential, SEND_NS + 500_000_000);
    server.checking = false;
    server.client_timeout_ns = 60_000_000_000; // nobody is reclaimed
    let cfg = ArenaDirectoryConfig {
        policy: AdmissionPolicy::FillFirst,
        workers: 1,
        map: MapGenConfig::small_arena(11),
        maintenance_ns: 20_000_000,
        max_arenas: 2,
        linger_ns: 200_000_000,
        migrate_drain: true,
        ..ArenaDirectoryConfig::new(1, 2, server)
    };
    let handle = spawn_directory(&fabric, cfg);
    let front = handle.front_port;
    let arena0 = handle.arena_ports[0][0];
    let port = fabric.alloc_port();
    let acked = Arc::new(Mutex::new(Vec::new()));
    let acked_task = acked.clone();
    fabric.spawn(
        "script",
        None,
        Box::new(move |ctx| {
            let connect = |ctx: &TaskCtx, id: u32| {
                let msg = ClientMessage::Connect {
                    client_id: id,
                    arena: 0,
                };
                ctx.send(port, front, msg.to_bytes());
            };
            // Fill the boot arena, then overflow into a spawned one.
            connect(ctx, 1);
            connect(ctx, 2);
            drain_acks_until(ctx, port, 600_000_000, &acked_task);
            connect(ctx, 3);
            drain_acks_until(ctx, port, 1_200_000_000, &acked_task);
            // Client 1 leaves at the arena: a slot frees in the boot
            // arena, so client 3's spawned arena is now drainable.
            let bye = ClientMessage::Disconnect { client_id: 1 };
            ctx.send(port, arena0, bye.to_bytes());
            drain_acks_until(ctx, port, SEND_NS - 200_000_000, &acked_task);
        }),
    );
    fabric.run();

    let acks = acked.lock().unwrap().clone();
    assert!(
        acks.contains(&1) && acks.contains(&2) && acks.contains(&3),
        "setup acks: {acks:?}"
    );
    let report = handle.report();
    let sup = &report.supervisor;
    let ela = &report.elastic;
    let adm = &report.admission;
    assert!(ela.spawned >= 1, "overflow never spawned an arena: {ela:?}");
    assert!(
        sup.drain_migrations >= 1,
        "the spawned arena was never drained: {sup:?}"
    );
    assert_eq!(sup.migrate_hash_mismatch, 0, "{sup:?}");
    assert!(
        ela.reaped >= 1,
        "the drained arena was never reaped: {ela:?}"
    );
    assert!(adm.population_closed(), "identity open: {adm:?}");
    assert_eq!(adm.resident, 2, "clients 2 and 3 remain: {adm:?}");
}

/// Two spawned arenas down to one client each, with the boot arena
/// full: the drain must consolidate them once and stop. (Landing a
/// drain on the coldest arena — the other emptied one — made the pair
/// trade their last clients every rebalance tick, so neither was ever
/// reaped.)
#[test]
fn two_emptied_spawned_arenas_consolidate_instead_of_trading_clients() {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let mut server = ServerConfig::new(ServerKind::Sequential, SEND_NS + 500_000_000);
    server.checking = false;
    server.client_timeout_ns = 60_000_000_000; // nobody is reclaimed
    let cfg = ArenaDirectoryConfig {
        policy: AdmissionPolicy::FillFirst,
        workers: 1,
        map: MapGenConfig::small_arena(11),
        maintenance_ns: 20_000_000,
        max_arenas: 3,
        linger_ns: 200_000_000,
        migrate_drain: true,
        ..ArenaDirectoryConfig::new(1, 2, server)
    };
    let handle = spawn_directory(&fabric, cfg);
    let front = handle.front_port;
    let arena_ports = handle.arena_ports.clone();
    let port = fabric.alloc_port();
    let acked = Arc::new(Mutex::new(Vec::new()));
    let acked_task = acked.clone();
    fabric.spawn(
        "script",
        None,
        Box::new(move |ctx| {
            let connect = |ctx: &TaskCtx, id: u32| {
                let msg = ClientMessage::Connect {
                    client_id: id,
                    arena: 0,
                };
                ctx.send(port, front, msg.to_bytes());
            };
            // Boot arena 0 takes clients 1 and 2, spawned arena 1
            // clients 3 and 4, spawned arena 2 client 5.
            for (id, until) in [(1, 300), (2, 600), (3, 900), (4, 1_200), (5, 1_500)] {
                connect(ctx, id);
                drain_acks_until(ctx, port, until * 1_000_000, &acked_task);
            }
            // Client 4 leaves: arenas 1 and 2 hold one client each.
            let bye = ClientMessage::Disconnect { client_id: 4 };
            ctx.send(port, arena_ports[1][0], bye.to_bytes());
            drain_acks_until(ctx, port, SEND_NS - 200_000_000, &acked_task);
        }),
    );
    fabric.run();

    let acks = acked.lock().unwrap().clone();
    assert!((1..=5).all(|id| acks.contains(&id)), "setup acks: {acks:?}");
    let report = handle.report();
    let sup = &report.supervisor;
    let ela = &report.elastic;
    let adm = &report.admission;
    assert_eq!(ela.spawned, 2, "{ela:?}");
    assert!(
        (1..=2).contains(&sup.drain_migrations),
        "one consolidating drain expected, got {}",
        sup.drain_migrations
    );
    assert!(
        ela.reaped >= 1,
        "the emptied arena was never reaped: {ela:?}"
    );
    assert!(adm.population_closed(), "identity open: {adm:?}");
    assert_eq!(adm.resident, 4, "{adm:?}");
}

/// What a scripted predicting client heard, in arrival order.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Heard {
    Ack {
        arena: u16,
    },
    Reply {
        seq: u32,
        input_ack: u32,
        perturb: u32,
    },
}

/// A predicting client keeps its prediction state across a handoff,
/// by the checkpoint-restore rule: the destination slot carries the
/// opt-in and the input ack (a duplicate of an input the source
/// already applied is dropped at the destination, not executed twice),
/// and its perturbation epoch moves past the source's (the client's
/// divergence oracle stands down in the new world).
#[test]
fn a_migrated_predicting_slot_keeps_its_input_ack_and_moves_its_epoch_on() {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let mut server = ServerConfig::new(ServerKind::Sequential, 2_000_000_000);
    server.checking = false;
    server.client_timeout_ns = 60_000_000_000;
    let cfg = ArenaDirectoryConfig {
        policy: AdmissionPolicy::Explicit,
        workers: 1,
        map: MapGenConfig::small_arena(11),
        maintenance_ns: 20_000_000,
        migrate_spread: 2,
        ..ArenaDirectoryConfig::new(2, 8, server)
    };
    let handle = spawn_directory(&fabric, cfg);
    let front = handle.front_port;
    let arena_ports: Vec<PortId> = handle.arena_ports.iter().map(|p| p[0]).collect();
    let ports = [fabric.alloc_port(), fabric.alloc_port()];
    let heard = Arc::new(Mutex::new(vec![Vec::new(), Vec::new()]));
    let heard_task = heard.clone();
    fabric.spawn(
        "script",
        None,
        Box::new(move |ctx| {
            let connect = |i: usize| {
                let msg = ClientMessage::Connect {
                    client_id: i as u32 + 1,
                    arena: 0,
                };
                ctx.send(ports[i], front, msg.to_bytes());
            };
            connect(0);
            let mut arena = [None::<u16>; 2];
            let mut seq = [0u32; 2];
            let mut ack = [0u32; 2];
            let mut resent = [false; 2];
            let mut tick = ctx.now();
            while tick < 1_500_000_000 {
                tick += 30_000_000;
                ctx.sleep_until(tick);
                // Client 2 asks for arena 0 too once client 1 has
                // predicted for a while: a spread of 2, so the director
                // hands client 1 (lowest id) over to arena 1.
                if arena[1].is_none() && tick >= 600_000_000 {
                    connect(1);
                }
                for (i, &port) in ports.iter().enumerate() {
                    while let Some(raw) = ctx.try_recv(port) {
                        let got = match ServerMessage::from_bytes(&raw.payload) {
                            Ok(ServerMessage::ConnectAck { arena: a, .. }) => {
                                arena[i] = Some(a);
                                Heard::Ack { arena: a }
                            }
                            Ok(ServerMessage::Reply {
                                seq,
                                predict: Some(p),
                                ..
                            }) => {
                                ack[i] = p.input_ack;
                                Heard::Reply {
                                    seq,
                                    input_ack: p.input_ack,
                                    perturb: p.perturb,
                                }
                            }
                            _ => continue,
                        };
                        heard_task.lock().unwrap()[i].push(got);
                    }
                    let Some(a) = arena[i] else { continue };
                    // Once rehomed, replay the client's very first
                    // input once — a network duplicate the source
                    // applied long ago.
                    let replay = a != 0 && !resent[i];
                    resent[i] |= replay;
                    if !replay {
                        seq[i] += 1;
                    }
                    let cmd = MoveCmd {
                        predict_ack: Some(ack[i]),
                        ..MoveCmd::idle(if replay { 1 } else { seq[i] }, 30)
                    };
                    let mv = ClientMessage::Move {
                        client_id: i as u32 + 1,
                        cmd,
                    };
                    ctx.send(port, arena_ports[a as usize], mv.to_bytes());
                }
            }
        }),
    );
    fabric.run();

    let report = handle.report();
    assert!(report.supervisor.migrations >= 1, "{:?}", report.supervisor);
    assert_eq!(report.supervisor.migrate_hash_mismatch, 0);
    let heard = heard.lock().unwrap()[0].clone();
    let rehome = heard
        .iter()
        .position(|h| *h == Heard::Ack { arena: 1 })
        .expect("client 1 was handed over to arena 1");
    let replies = |hs: &[Heard]| -> Vec<(u32, u32, u32)> {
        hs.iter()
            .filter_map(|h| match *h {
                Heard::Reply {
                    seq,
                    input_ack,
                    perturb,
                } => Some((seq, input_ack, perturb)),
                Heard::Ack { .. } => None,
            })
            .collect()
    };
    let (before, after) = (replies(&heard[..rehome]), replies(&heard[rehome..]));
    let &(_, src_ack, src_perturb) = before.last().expect("replies from arena 0");
    let &(seq, dst_ack, dst_perturb) = after.first().expect("replies from arena 1");
    assert!(
        dst_perturb > src_perturb,
        "the epoch must move past the source's: {src_perturb} → {dst_perturb}"
    );
    assert!(
        dst_ack > src_ack && seq > 1,
        "the input ack carries on (ack {src_ack} → {dst_ack}, first echo seq {seq})"
    );
    assert_eq!(
        report.results[1].merged().inputs_deduped,
        1,
        "arena 1 drops the replayed input as a duplicate"
    );
}

/// A slot whose `Disconnect` has been drained but not yet applied (the
/// world phase of the arena's next frame vacates it) is not a
/// migration victim. Client 1 leaves arena 0 while arena 0 sees no
/// further traffic, so its slot stays Active and `leaving` until a
/// maintenance frame; meanwhile client 3 leaves arena 1, which opens a
/// spread of 2. The handoff must move client 2, and client 1's own
/// `Disconnected` notice must end its booking: a handoff that moves
/// client 1 installs it Active at arena 1, which re-acks a client that
/// has left and keeps it booked as a ghost player.
#[test]
fn a_handoff_never_moves_a_slot_with_a_disconnect_pending() {
    // Slow maintenance: a drained Disconnect waits up to a second for
    // the frame that applies it.
    handoff_with_a_disconnect_pending(1_000_000_000);
}

/// The same script with maintenance frames off: only the frame a
/// handoff owes both arenas re-acks client 2 at arena 1 and applies
/// client 1's drained Disconnect at arena 0. Without it arena 1 never
/// frames again, and client 2 hears nothing until it reconnects.
#[test]
fn a_handoff_with_maintenance_off_still_re_acks_the_moved_client() {
    handoff_with_a_disconnect_pending(0);
}

fn handoff_with_a_disconnect_pending(maintenance_ns: u64) {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let mut server = ServerConfig::new(ServerKind::Sequential, 3_000_000_000);
    server.checking = false;
    let cfg = ArenaDirectoryConfig {
        policy: AdmissionPolicy::Explicit,
        workers: 1,
        map: MapGenConfig::small_arena(11),
        maintenance_ns,
        migrate_spread: 2,
        ..ArenaDirectoryConfig::new(2, 4, server)
    };
    let handle = spawn_directory(&fabric, cfg);
    let front = handle.front_port;
    let arena_ports: Vec<PortId> = handle.arena_ports.iter().map(|p| p[0]).collect();
    let ports = [
        fabric.alloc_port(),
        fabric.alloc_port(),
        fabric.alloc_port(),
    ];
    // (client, arena) of every ConnectAck heard after client 1 left.
    let late_acks = Arc::new(Mutex::new(Vec::new()));
    let late_task = late_acks.clone();
    fabric.spawn(
        "script",
        None,
        Box::new(move |ctx| {
            let send = |i: usize, to: PortId, msg: ClientMessage| {
                ctx.send(ports[i], to, msg.to_bytes());
            };
            // Clients 3, 1, 2 ask for arenas 1, 0, 0: the spread never
            // reaches 2 while they connect. Each retries until acked
            // (a Pending slot spawns on the arena's next frame).
            let wants = [0u16, 0, 1];
            let mut acked = [false; 3];
            let mut left = false;
            let mut tick = 0;
            while ctx.now() < 2_800_000_000 {
                tick += 1;
                for i in [2, 0, 1] {
                    if !acked[i] && tick < 20 {
                        let connect = ClientMessage::Connect {
                            client_id: i as u32 + 1,
                            arena: wants[i],
                        };
                        send(i, front, connect);
                    }
                }
                match tick {
                    // Client 1 leaves arena 0 and nothing else reaches it.
                    20 => {
                        assert!(acked.iter().all(|&a| a), "setup acks: {acked:?}");
                        send(
                            0,
                            arena_ports[0],
                            ClientMessage::Disconnect { client_id: 1 },
                        );
                        left = true;
                    }
                    // Client 3 leaves arena 1; the second datagram runs
                    // the frame that applies it and tells the director.
                    25 | 26 => {
                        send(
                            2,
                            arena_ports[1],
                            ClientMessage::Disconnect { client_id: 3 },
                        );
                    }
                    _ => {}
                }
                ctx.sleep_until(ctx.now() + 20_000_000);
                for (i, &port) in ports.iter().enumerate() {
                    while let Some(raw) = ctx.try_recv(port) {
                        if let Ok(ServerMessage::ConnectAck { arena, .. }) =
                            ServerMessage::from_bytes(&raw.payload)
                        {
                            acked[i] = true;
                            if left {
                                late_task.lock().unwrap().push((i as u32 + 1, arena));
                            }
                        }
                    }
                }
            }
        }),
    );
    fabric.run();

    let report = handle.report();
    let sup = &report.supervisor;
    let adm = &report.admission;
    assert!(sup.migrations >= 1, "the spread never opened: {sup:?}");
    let late = late_acks.lock().unwrap().clone();
    assert!(
        late.iter().all(|&(client, _)| client != 1),
        "client 1 was re-acked after it left: {late:?}"
    );
    assert!(
        late.contains(&(2, 1)),
        "client 2 moved to arena 1: {late:?}"
    );
    assert!(adm.population_closed(), "identity open: {adm:?}");
    assert_eq!(adm.resident, 1, "only client 2 stays: {adm:?}");
}
