//! End-to-end supervision runs on the virtual fabric: seeded fault
//! lotteries crash and stall arena frames, the supervisor restores
//! from checkpoints, and the directory rides through — population
//! identity closed, clients still served, everything deterministic.

use parquake_arena::{spawn_directory, AdmissionPolicy, ArenaDirectoryConfig};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::FaultConfig;
use parquake_fabric::FabricKind;
use parquake_metrics::SupervisorStats;

const SEND_NS: u64 = 4_000_000_000;

fn supervised_cfg(arenas: u32, slots: u16, workers: u32) -> ArenaDirectoryConfig {
    let mut server = parquake_server::ServerConfig::new(
        parquake_server::ServerKind::Sequential,
        SEND_NS + 500_000_000,
    );
    server.checking = false;
    ArenaDirectoryConfig {
        policy: AdmissionPolicy::Explicit,
        workers,
        map: MapGenConfig::small_arena(11),
        supervision: true,
        ..ArenaDirectoryConfig::new(arenas, slots, server)
    }
}

struct Outcome {
    sup: SupervisorStats,
    adm: parquake_arena::AdmissionStats,
    received: u64,
    connected: u32,
    restarts_observed: u64,
    world_hashes: Vec<u64>,
}

fn run(cfg: ArenaDirectoryConfig, players: u32) -> Outcome {
    let arenas = cfg.arenas;
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let handle = spawn_directory(&fabric, cfg);
    let topology = SwarmTopology {
        arena_ports: handle.arena_ports.clone(),
        connect_port: Some(handle.front_port),
    };
    let mut swarm_cfg = BotSwarmConfig::new(players, SEND_NS);
    swarm_cfg.drivers = 2;
    let swarm = spawn_swarm_multi(&fabric, &swarm_cfg, &topology, move |c| {
        ((c % arenas) as u16, 0)
    });
    fabric.run();
    let bots = swarm.report();
    let out = Outcome {
        sup: handle.supervisor.lock().unwrap().clone(),
        adm: handle.admission.lock().unwrap().clone(),
        received: bots.stats.received,
        connected: bots.connected,
        restarts_observed: bots.restarts_observed,
        world_hashes: handle.worlds.iter().map(|w| w.world_hash()).collect(),
    };
    out
}

#[test]
fn injected_panics_are_caught_and_arenas_restored() {
    let mut cfg = supervised_cfg(2, 8, 2);
    cfg.frame_faults = Some(FaultConfig {
        panic_per_frame: 0.02,
        seed: 0xC0FFEE,
        ..FaultConfig::none()
    });
    let out = run(cfg, 12);

    // The lottery fired and every crash was fenced to its arena — the
    // run itself (the whole fabric) survived to publish results.
    assert!(out.sup.panics_caught >= 1, "lottery never fired");
    assert!(
        out.sup.restarts >= out.sup.panics_caught,
        "every crash must be restored (restarts {} < panics {})",
        out.sup.restarts,
        out.sup.panics_caught
    );
    assert!(out.sup.checkpoints_taken > 0);
    assert!(out.sup.recovery_latency_ns_max > 0);
    // Population identity closed across every restart.
    assert_eq!(
        out.adm.placed,
        out.adm.departed + out.adm.resident,
        "population identity must close across restarts"
    );
    // Clients rode through: the handshake completed everywhere and
    // replies kept flowing. The restored arenas re-announced their
    // slots, which the bots surface as observed restarts.
    assert_eq!(out.connected, 12);
    assert!(out.received > 0);
    assert!(
        out.restarts_observed >= 1,
        "bots never saw a restored arena's unsolicited re-ack"
    );
}

#[test]
fn stalls_past_the_watchdog_are_condemned_and_restored() {
    let mut cfg = supervised_cfg(2, 8, 2);
    cfg.frame_faults = Some(FaultConfig {
        stuck_per_frame: 0.01,
        stuck_ns: 400_000_000, // well past WATCHDOG_NS
        seed: 0xBAD_CAFE,
        ..FaultConfig::none()
    });
    let out = run(cfg, 12);

    assert!(out.sup.stuck_detected >= 1, "watchdog never fired");
    assert!(
        out.sup.restarts >= out.sup.stuck_detected,
        "every condemned arena must be restored"
    );
    assert_eq!(out.adm.placed, out.adm.departed + out.adm.resident);
    assert_eq!(out.connected, 12);
    assert!(out.received > 0);
}

#[test]
fn short_stalls_degrade_gracefully_with_move_coalescing() {
    // Stalls below the watchdog bound look like slow frames: the
    // overload detector stretches the arena's effective interval and
    // shed frames coalesce the queued moves per client instead of
    // dropping them.
    let mut cfg = supervised_cfg(1, 8, 1);
    cfg.frame_faults = Some(FaultConfig {
        stuck_per_frame: 0.5,
        // Past the 30 ms event-driven deadline, far below WATCHDOG_NS.
        stuck_ns: 45_000_000,
        seed: 7,
        ..FaultConfig::none()
    });
    let out = run(cfg, 8);

    assert_eq!(out.sup.stuck_detected, 0, "no stall crossed the watchdog");
    assert_eq!(out.sup.restarts, 0);
    assert!(
        out.sup.shed_frames > 0,
        "overload never stretched the arena"
    );
    assert!(
        out.sup.coalesced_moves > 0,
        "shed frames should have merged queued moves"
    );
    // Degraded, not broken: the session kept working.
    assert_eq!(out.connected, 8);
    assert!(out.received > 0);
    assert_eq!(out.adm.placed, out.adm.departed + out.adm.resident);
}

#[test]
fn supervised_crash_runs_replay_deterministically() {
    let mk = || {
        let mut cfg = supervised_cfg(2, 8, 2);
        cfg.frame_faults = Some(FaultConfig {
            panic_per_frame: 0.02,
            seed: 0xD1CE,
            ..FaultConfig::none()
        });
        cfg
    };
    let a = run(mk(), 12);
    let b = run(mk(), 12);
    assert!(a.sup.panics_caught > 0);
    assert_eq!(a.sup.panics_caught, b.sup.panics_caught);
    assert_eq!(a.sup.restarts, b.sup.restarts);
    assert_eq!(a.sup.checkpoints_taken, b.sup.checkpoints_taken);
    assert_eq!(a.received, b.received);
    assert_eq!(
        a.world_hashes, b.world_hashes,
        "same seed must replay the same crash/recovery history"
    );
}

#[test]
fn supervision_without_faults_only_checkpoints() {
    // Supervision on, lottery off: the machinery idles — checkpoints
    // accrue, nothing crashes, nothing is restored.
    let out = run(supervised_cfg(2, 8, 2), 12);
    assert_eq!(out.sup.panics_caught, 0);
    assert_eq!(out.sup.stuck_detected, 0);
    assert_eq!(out.sup.restarts, 0);
    assert!(out.sup.checkpoints_taken > 0);
    assert!(out.sup.checkpoint_bytes > 0);
    assert_eq!(out.connected, 12);
}

#[test]
fn unsupervised_directories_report_zero_supervision_activity() {
    let mut cfg = supervised_cfg(2, 8, 2);
    cfg.supervision = false;
    let out = run(cfg, 12);
    let s = &out.sup;
    assert_eq!(
        (
            s.panics_caught,
            s.checkpoints_taken,
            s.restarts,
            s.shed_frames
        ),
        (0, 0, 0, 0),
        "supervision off must leave the whole subsystem cold"
    );
    assert_eq!(out.connected, 12);
}
