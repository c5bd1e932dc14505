//! End-to-end directory runs on the virtual fabric: bots connect
//! through the front door, the admission policy spreads them, the pool
//! multiplexes arena frames, and every arena's books balance.

use std::sync::Arc;

use parquake_arena::{spawn_directory, AdmissionPolicy, ArenaDirectoryConfig};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::fault::FaultConfig;
use parquake_fabric::{FabricKind, LockWitness};
use parquake_server::{LockPolicy, ServerConfig, ServerKind};

const SEND_NS: u64 = 3_000_000_000;

fn directory_cfg(arenas: u32, slots: u16, workers: u32) -> ArenaDirectoryConfig {
    let mut server = ServerConfig::new(ServerKind::Sequential, SEND_NS + 500_000_000);
    server.checking = true;
    ArenaDirectoryConfig {
        policy: AdmissionPolicy::Explicit,
        workers,
        map: MapGenConfig::small_arena(11),
        ..ArenaDirectoryConfig::new(arenas, slots, server)
    }
}

/// Run `players` bots against the directory; bot `c` requests arena
/// `c % arenas`. Returns the handle and the swarm's per-arena stats.
fn run(
    cfg: ArenaDirectoryConfig,
    players: u32,
) -> (
    parquake_arena::ArenaHandle,
    Vec<parquake_metrics::ResponseStats>,
    u32,
) {
    let arenas = cfg.arenas;
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let witness = Arc::new(LockWitness::new());
    fabric.attach_witness(witness.clone());

    let handle = spawn_directory(&fabric, cfg);
    let topology = SwarmTopology {
        arena_ports: handle.arena_ports.clone(),
        connect_port: Some(handle.front_port),
    };
    let mut swarm_cfg = BotSwarmConfig::new(players, SEND_NS);
    swarm_cfg.drivers = 4;
    let swarm = spawn_swarm_multi(&fabric, &swarm_cfg, &topology, move |c| {
        ((c % arenas) as u16, 0)
    });
    fabric.run();

    let report = witness.report();
    assert!(
        report.violations.is_empty(),
        "lock witness flagged the directory: {:?}",
        report.violations
    );
    let bots = swarm.report();
    (handle, bots.per_arena, bots.connected)
}

#[test]
fn pooled_directory_serves_every_arena() {
    let cfg = directory_cfg(3, 8, 2);
    let (handle, per_arena, connected) = run(cfg, 24);

    assert_eq!(connected, 24, "every bot should complete its handshake");
    let report = handle.report();
    let adm = &report.admission;
    assert_eq!(adm.per_arena.iter().sum::<u64>(), adm.routed);
    assert_eq!(adm.rejected_full, 0);
    assert_eq!(adm.dropped_unknown, 0);
    // Bot c requested arena c%3, and Explicit had room everywhere.
    assert!(adm.explicit_requests > 0);
    for (k, swarm) in per_arena.iter().enumerate().take(3) {
        assert!(adm.per_arena[k] > 0, "arena {k} got no connects");
        let r = &report.results[k];
        assert!(r.frame_count > 0, "arena {k} ran no frames");
        assert!(swarm.received > 0, "arena {k} clients saw no replies");
        // Frames are the sequential body: exactly one participant.
        assert_eq!(r.threads.len(), 1);
    }
    // Pool accounting: frames per arena and per worker sum to the same
    // total, and both workers took part.
    let pool = report.pool.as_ref().unwrap();
    assert_eq!(
        pool.frames_by_arena.iter().sum::<u64>(),
        pool.frames_by_worker.iter().sum::<u64>()
    );
    let total: u64 = report.results.iter().map(|r| r.frame_count).sum();
    assert_eq!(pool.frames_by_arena.iter().sum::<u64>(), total);
    assert!(pool.frames_by_worker.iter().all(|&f| f > 0));
    // No clock wakes an idle worker: it sleeps until a delivery rings
    // the pool condvar, and then until the copy lands. With maintenance
    // off, a wait runs into its deadline only at a copy's delivery or
    // at the end of the run — at most once per delivery to an arena
    // port, plus one. A 1 ms poll would time each worker out about
    // once per idle millisecond, some 3 500 times here.
    let deliveries =
        per_arena.iter().map(|r| r.sent).sum::<u64>() + adm.forwarded_per_arena.iter().sum::<u64>();
    for (w, &timeouts) in pool.idle_timeouts_by_worker.iter().enumerate() {
        assert!(
            timeouts <= deliveries + 1,
            "worker {w} timed out {timeouts} times for {deliveries} deliveries"
        );
    }
}

#[test]
fn dedicated_directory_runs_parallel_runtimes_per_arena() {
    let mut cfg = directory_cfg(2, 8, 1);
    cfg.server.kind = ServerKind::Parallel {
        threads: 2,
        locking: LockPolicy::Optimized,
    };
    let (handle, per_arena, connected) = run(cfg, 16);
    assert_eq!(connected, 16);
    let report = handle.report();
    assert!(report.pool.is_none(), "a Parallel template spawns no pool");
    for (k, swarm) in per_arena.iter().enumerate().take(2) {
        let r = &report.results[k];
        assert_eq!(r.threads.len(), 2, "arena {k} should run 2 threads");
        assert!(r.frame_count > 0);
        assert!(swarm.received > 0);
    }
}

#[test]
fn parallel_template_refuses_what_only_the_pool_can_do() {
    let parallel = || {
        let mut cfg = directory_cfg(2, 8, 1);
        cfg.server.kind = ServerKind::Parallel {
            threads: 2,
            locking: LockPolicy::Optimized,
        };
        cfg
    };
    assert_eq!(parallel().validate(), Ok(()));
    // The participant mask is one u64: 64 threads fit, 65 do not.
    for (threads, ok) in [(0, false), (64, true), (65, false)] {
        let mut cfg = parallel();
        cfg.server.kind = ServerKind::Parallel {
            threads,
            locking: LockPolicy::Optimized,
        };
        assert_eq!(cfg.validate().is_ok(), ok, "threads {threads}");
    }
    type Ask = fn(&mut ArenaDirectoryConfig);
    let pool_only: [(&str, Ask); 4] = [
        ("max_arenas", |c| c.max_arenas = 4),
        ("supervision", |c| c.supervision = Some(FaultConfig::none())),
        ("migrate_spread", |c| c.migrate_spread = 4),
        ("migrate_drain", |c| c.migrate_drain = true),
    ];
    for (what, set) in pool_only {
        let mut cfg = parallel();
        set(&mut cfg);
        let refusal = cfg.validate().expect_err(what);
        assert!(refusal.contains("threads > 1"), "{what}: {refusal}");
        cfg.server.kind = ServerKind::Sequential;
        assert_eq!(cfg.validate(), Ok(()), "{what} on the pool");
    }
    // A ceiling at or below the boot fleet is a fixed fleet, not
    // elasticity.
    let mut fixed = parallel();
    fixed.max_arenas = 2;
    assert_eq!(fixed.validate(), Ok(()));
}

#[test]
fn frame_fault_rates_outside_a_probability_are_refused() {
    // Unvalidated, 7.0 panicked every frame and NaN never fired.
    type Set = fn(&mut FaultConfig);
    let bad: [(&str, Set); 3] = [
        ("panic_per_frame", |f| f.panic_per_frame = 7.0),
        ("panic_per_frame", |f| f.panic_per_frame = f32::NAN),
        ("stuck_per_frame", |f| f.stuck_per_frame = -0.5),
    ];
    for (field, set) in bad {
        let mut faults = FaultConfig::none();
        set(&mut faults);
        let mut cfg = directory_cfg(2, 8, 1);
        cfg.supervision = Some(faults);
        let refusal = cfg.validate().expect_err(field);
        assert!(refusal.contains(field), "{field}: {refusal}");
    }
}

#[test]
fn fill_first_packs_the_first_arena() {
    let mut cfg = directory_cfg(2, 32, 1);
    cfg.policy = AdmissionPolicy::FillFirst;
    let (handle, _, connected) = run(cfg, 8);
    assert_eq!(connected, 8);
    let report = handle.report();
    let adm = &report.admission;
    // All 8 fit in arena 0's 32 slots: arena 1 gets nothing.
    assert!(adm.per_arena[0] > 0);
    assert_eq!(adm.per_arena[1], 0);
}
