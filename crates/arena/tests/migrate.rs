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
use parquake_protocol::{ClientMessage, Decode, Encode, ServerMessage};
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

    let sup = handle.supervisor.lock().unwrap().clone();
    let adm = handle.admission.lock().unwrap().clone();
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
    let replies_a1 = handle.results[1].lock().unwrap().merged().replies;
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
        let sup = handle.supervisor.lock().unwrap().clone();
        let hashes: Vec<u64> = handle.worlds.iter().map(|w| w.world_hash()).collect();
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
    let sup = handle.supervisor.lock().unwrap().clone();
    let ela = handle.elastic.lock().unwrap().clone();
    let adm = handle.admission.lock().unwrap().clone();
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
