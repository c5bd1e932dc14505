//! Elasticity end-to-end: a ramped bot swarm drives a pooled
//! directory past its boot capacity (arenas spawn under admission
//! pressure) and back down to zero (empty arenas linger, then reap),
//! with the population identity closing across the whole run.

use std::sync::Arc;

use parquake_arena::{spawn_directory, AdmissionPolicy, ArenaDirectoryConfig, CHECKPOINT_INTERVAL};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, SwarmRamp, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::FaultConfig;
use parquake_fabric::{FabricKind, LockWitness, Nanos, TaskCtx};
use parquake_metrics::ElasticEventKind;
use parquake_protocol::{ClientMessage, Encode};
use parquake_server::{ServerConfig, ServerKind};

#[test]
fn directory_spawns_under_pressure_and_reaps_after_drain() {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let witness = Arc::new(LockWitness::new());
    fabric.attach_witness(witness.clone());

    // Boot 1 arena of 8 slots with a ceiling of 3: 20 ramped bots must
    // overflow into spawned arenas on the way up, and the spawned
    // arenas must drain and reap on the way down.
    let mut server = ServerConfig::new(ServerKind::Sequential, 9_000_000_000);
    server.checking = true;
    let mut cfg = ArenaDirectoryConfig::new(1, 8, server);
    cfg.workers = 2;
    cfg.map = MapGenConfig::small_arena(11);
    cfg.policy = AdmissionPolicy::FillFirst;
    cfg.max_arenas = 3;
    cfg.linger_ns = 400_000_000;
    let handle = spawn_directory(&fabric, cfg);

    let topology = SwarmTopology {
        arena_ports: handle.arena_ports.clone(),
        connect_port: Some(handle.front_port),
    };
    let mut swarm_cfg = BotSwarmConfig::new(20, 8_000_000_000);
    swarm_cfg.drivers = 4;
    swarm_cfg.ramp = Some(SwarmRamp::UpDown {
        ramp_up_ns: 2_000_000_000,
        hold_ns: 2_000_000_000,
        ramp_down_ns: 1_000_000_000,
    });
    let swarm = spawn_swarm_multi(&fabric, &swarm_cfg, &topology, |_| (0, 0));
    fabric.run();

    let report = witness.report();
    assert!(
        report.violations.is_empty(),
        "lock witness flagged the elastic directory: {:?}",
        report.violations
    );
    assert_eq!(
        swarm.report().connected,
        20,
        "every bot should complete its handshake"
    );

    let report = handle.report();
    let elastic = &report.elastic;
    assert!(elastic.spawned >= 1, "no arena spawned: {elastic:?}");
    assert!(elastic.reaped >= 1, "no arena reaped: {elastic:?}");
    assert!(elastic.peak_live >= 2, "{elastic:?}");
    assert_eq!(
        elastic.live_at_end, 1,
        "only the boot arena should survive the drain: {elastic:?}"
    );

    // Every spawned arena actually ran frames, and reaped arenas
    // published their results.
    for e in &elastic.events {
        let r = &report.results[e.arena as usize];
        assert!(
            r.frame_count > 0,
            "arena {} {:?} but ran no frames",
            e.arena,
            e.kind
        );
    }
    assert!(elastic
        .events
        .iter()
        .any(|e| e.kind == ElasticEventKind::Spawned));

    // Truthful occupancy across the whole ramp: nobody was turned away
    // while the ceiling had headroom, and the books balance to an
    // empty directory after the drain.
    let adm = &report.admission;
    assert_eq!(adm.rejected_full, 0, "{adm:?}");
    assert!(adm.population_closed(), "identity open: {adm:?}");
    assert_eq!(adm.resident, 0, "residents after full drain: {adm:?}");
    assert_eq!(adm.placed, 20, "{adm:?}");
}

/// A reaped arena's next life starts with no restore point from the
/// old one, so its first claim checkpoints (DESIGN §9: "on an arena's
/// first claim"). Pre-fix the reap left the ring full: the reborn
/// arena took no checkpoint until its frame counter, carried over from
/// the old life, next reached a multiple of `CHECKPOINT_INTERVAL`, and
/// a crash in that window restored the old life's sessions.
#[test]
fn a_reborn_arena_checkpoints_on_its_first_claim() {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let server = ServerConfig::new(ServerKind::Sequential, 1_500_000_000);
    let mut cfg = ArenaDirectoryConfig::new(1, 1, server);
    cfg.workers = 1;
    cfg.map = MapGenConfig::small_arena(11);
    cfg.policy = AdmissionPolicy::FillFirst;
    cfg.max_arenas = 2;
    cfg.linger_ns = 100_000_000;
    cfg.supervision = Some(FaultConfig::none());
    let handle = spawn_directory(&fabric, cfg);
    let front = handle.front_port;
    let port = fabric.alloc_port();
    let send = move |ctx: &TaskCtx, msg: ClientMessage| ctx.send(port, front, msg.to_bytes());
    let drain_until = move |ctx: &TaskCtx, until: Nanos| {
        while ctx.now() < until && ctx.wait_readable(port, Some(until)) {
            while ctx.try_recv(port).is_some() {}
        }
    };
    fabric.spawn(
        "script",
        None,
        Box::new(move |ctx| {
            // Client 1 fills the boot arena; client 2 spawns arena 1.
            send(
                ctx,
                ClientMessage::Connect {
                    client_id: 1,
                    arena: 0,
                },
            );
            send(
                ctx,
                ClientMessage::Connect {
                    client_id: 2,
                    arena: 0,
                },
            );
            drain_until(ctx, 300_000_000);
            // Client 2 leaves: arena 1 lingers empty, then is reaped.
            send(ctx, ClientMessage::Disconnect { client_id: 2 });
            drain_until(ctx, 800_000_000);
            // Client 3 finds the boot arena full: arena 1 is reborn.
            send(
                ctx,
                ClientMessage::Connect {
                    client_id: 3,
                    arena: 0,
                },
            );
            drain_until(ctx, 1_400_000_000);
        }),
    );
    fabric.run();

    let report = handle.report();
    let elastic = &report.elastic;
    assert_eq!((elastic.spawned, elastic.reaped), (2, 1), "{elastic:?}");
    // No arena reaches a periodic checkpoint in this run, so every
    // checkpoint is a first claim's: one per life.
    for r in &report.results {
        assert!(
            r.frame_count < CHECKPOINT_INTERVAL as u64,
            "{}",
            r.frame_count
        );
    }
    assert_eq!(
        report.supervisor.checkpoints_taken, 3,
        "boot arena, arena 1, arena 1 reborn: {:?}",
        report.supervisor
    );
    assert!(report.admission.population_closed());
    assert_eq!(report.admission.resident, 2, "{:?}", report.admission);
}
