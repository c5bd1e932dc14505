//! End-to-end directory runs on the virtual fabric: bots connect
//! through the front door, the admission policy spreads them, the pool
//! multiplexes arena frames, and every arena's books balance.

use std::sync::Arc;

use parquake_arena::{spawn_directory, AdmissionPolicy, ArenaDirectoryConfig};
use parquake_bots::{spawn_swarm_multi, BotSwarmConfig, SwarmTopology};
use parquake_bsp::mapgen::MapGenConfig;
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
    let adm = handle.admission.lock().unwrap().clone();
    assert_eq!(adm.per_arena.iter().sum::<u64>(), adm.routed);
    assert_eq!(adm.rejected_full, 0);
    assert_eq!(adm.dropped_unknown, 0);
    // Bot c requested arena c%3, and Explicit had room everywhere.
    assert!(adm.explicit_requests > 0);
    for (k, swarm) in per_arena.iter().enumerate().take(3) {
        assert!(adm.per_arena[k] > 0, "arena {k} got no connects");
        let r = handle.results[k].lock().unwrap().clone();
        assert!(r.frame_count > 0, "arena {k} ran no frames");
        assert!(swarm.received > 0, "arena {k} clients saw no replies");
        // Frames are the sequential body: exactly one participant.
        assert_eq!(r.threads.len(), 1);
    }
    // Pool accounting: frames per arena and per worker sum to the same
    // total, and both workers took part.
    let pool = handle.pool.as_ref().unwrap().lock().unwrap().clone();
    assert_eq!(
        pool.frames_by_arena.iter().sum::<u64>(),
        pool.frames_by_worker.iter().sum::<u64>()
    );
    let total: u64 = (0..3)
        .map(|k| handle.results[k].lock().unwrap().frame_count)
        .sum();
    assert_eq!(pool.frames_by_arena.iter().sum::<u64>(), total);
    assert!(pool.frames_by_worker.iter().all(|&f| f > 0));
    // The virtual fabric rings no pool condvar on delivery: idle
    // workers still run into `POLL_NS`, the modelled select timeout
    // (the real fabric's side of this branch is `pool_wakeups.rs`).
    assert!(pool.idle_timeouts_by_worker.iter().sum::<u64>() > 0);
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
    assert!(handle.pool.is_none(), "a Parallel template spawns no pool");
    for (k, swarm) in per_arena.iter().enumerate().take(2) {
        let r = handle.results[k].lock().unwrap().clone();
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
        ("supervision", |c| c.supervision = true),
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
fn fill_first_packs_the_first_arena() {
    let mut cfg = directory_cfg(2, 32, 1);
    cfg.policy = AdmissionPolicy::FillFirst;
    let (handle, _, connected) = run(cfg, 8);
    assert_eq!(connected, 8);
    let adm = handle.admission.lock().unwrap().clone();
    // All 8 fit in arena 0's 32 slots: arena 1 gets nothing.
    assert!(adm.per_arena[0] > 0);
    assert_eq!(adm.per_arena[1], 0);
}

#[test]
fn single_pooled_arena_matches_the_sequential_server() {
    // The acceptance bar: a 1-arena pooled directory is the sequential
    // server — same frame body, same world, same results — so the
    // default configuration's behaviour is unchanged.
    use parquake_bots::spawn_swarm;
    use parquake_server::spawn_server;

    let seq_outcome = {
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let map = Arc::new(MapGenConfig::small_arena(11).generate());
        let world = Arc::new(parquake_sim::GameWorld::new(map, 4, 8));
        let mut scfg = ServerConfig::new(ServerKind::Sequential, SEND_NS + 500_000_000);
        scfg.checking = false;
        let server = spawn_server(&fabric, scfg, world.clone());
        let mut swarm_cfg = BotSwarmConfig::new(8, SEND_NS);
        swarm_cfg.drivers = 4;
        let swarm = spawn_swarm(&fabric, &swarm_cfg, &server.ports, |_| 0);
        fabric.run();
        (world.world_hash(), swarm.report().stats.received)
    };

    let pooled_outcome = {
        let fabric = FabricKind::VirtualSmp(Default::default()).build();
        let mut cfg = directory_cfg(1, 8, 1);
        cfg.server.checking = false;
        let handle = spawn_directory(&fabric, cfg);
        // Address the arena directly (no front door), exactly like the
        // classic swarm does.
        let topology = SwarmTopology::single(&handle.arena_ports[0]);
        let mut swarm_cfg = BotSwarmConfig::new(8, SEND_NS);
        swarm_cfg.drivers = 4;
        let swarm = spawn_swarm_multi(&fabric, &swarm_cfg, &topology, |_| (0, 0));
        fabric.run();
        (handle.worlds[0].world_hash(), swarm.report().stats.received)
    };

    assert_eq!(
        seq_outcome, pooled_outcome,
        "1-arena pooled directory must reproduce the sequential server exactly"
    );
}
