//! One report, three writers: a pooled directory that is both elastic
//! and supervised publishes the director's half (admission, elastic,
//! restores), the last pool worker's half (pool accounting, per-arena
//! results, checkpoints) and a reap's per-arena results, and one
//! `ArenaHandle::report()` call shows all of them.

use parquake_arena::{spawn_directory, AdmissionPolicy, ArenaDirectoryConfig};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, SwarmRamp, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::FaultConfig;
use parquake_fabric::FabricKind;
use parquake_metrics::ElasticEventKind;
use parquake_server::{ServerConfig, ServerKind};

#[test]
fn one_report_shows_every_writer() {
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let mut server = ServerConfig::new(ServerKind::Sequential, 9_000_000_000);
    server.checking = false;
    let cfg = ArenaDirectoryConfig {
        policy: AdmissionPolicy::FillFirst,
        workers: 2,
        map: MapGenConfig::small_arena(11),
        max_arenas: 3,
        linger_ns: 400_000_000,
        supervision: true,
        frame_faults: Some(FaultConfig {
            panic_per_frame: 0.01,
            seed: 0x5EED,
            ..FaultConfig::none()
        }),
        ..ArenaDirectoryConfig::new(1, 8, server)
    };
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
    assert_eq!(swarm.report().connected, 20);

    let report = handle.report();
    // The director's half, written at its exit.
    let (adm, ela, sup) = (&report.admission, &report.elastic, &report.supervisor);
    assert!(adm.population_closed(), "identity open: {adm:?}");
    assert!(ela.reaped >= 1, "no arena reaped: {ela:?}");
    assert!(sup.restarts >= 1, "no arena restored: {sup:?}");
    // The last pool worker's half, written under the same lock.
    assert!(sup.checkpoints_taken > 0, "{sup:?}");
    let pool = report.pool.as_ref().expect("a pooled directory");
    assert_eq!(report.results.len(), 3);
    // Frames the pool ran of each arena are the frames that arena's own
    // thread stats counted. (Not its `frame_count`: that is the world's
    // frame number, which every restore rewinds to its checkpoint's.)
    let frames: Vec<u64> = report.results.iter().map(|r| r.merged().frames).collect();
    assert_eq!(pool.frames_by_arena, frames);
    // A reap's half: the reaped arena's results.
    for e in ela
        .events
        .iter()
        .filter(|e| e.kind == ElasticEventKind::Reaped)
    {
        let k = e.arena as usize;
        assert!(report.results[k].frame_count > 0, "arena {k} reaped empty");
    }
}
