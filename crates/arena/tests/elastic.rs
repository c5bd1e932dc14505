//! Elasticity end-to-end: a ramped bot swarm drives a pooled
//! directory past its boot capacity (arenas spawn under admission
//! pressure) and back down to zero (empty arenas linger, then reap),
//! with the population identity closing across the whole run.

use std::sync::Arc;

use parquake_arena::{spawn_directory, AdmissionPolicy, ArenaDirectoryConfig};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, SwarmRamp, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::{FabricKind, LockWitness};
use parquake_metrics::ElasticEventKind;
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
