//! The same experiment must complete on both execution fabrics: the
//! deterministic virtual SMP and real OS threads. (Numbers differ —
//! one is modelled time, the other wall clock — but the protocol, the
//! connection flow and the game must work identically.)

use parquake::bsp::mapgen::MapGenConfig;
use parquake::fabric::FabricKind;
use parquake::harness::experiment::{Experiment, ExperimentConfig};
use parquake::server::{LockPolicy, ServerKind};

fn cfg(fabric: FabricKind, duration_ns: u64) -> ExperimentConfig {
    let kind = ServerKind::Parallel {
        threads: 2,
        locking: LockPolicy::Optimized,
    };
    let mut cfg = ExperimentConfig {
        map: MapGenConfig::small_arena(77),
        fabric,
        bot_drivers: 2,
        ..ExperimentConfig::new(8, kind, duration_ns)
    };
    cfg.server.checking = true;
    cfg
}

#[test]
fn virtual_fabric_session() {
    let out = Experiment::new(cfg(
        FabricKind::VirtualSmp(Default::default()),
        2_000_000_000,
    ))
    .run();
    assert_eq!(out.connected, 8);
    assert!(out.response.received > 300);
}

#[test]
fn real_fabric_session_with_checkers() {
    // Short wall-clock run under true preemption with the lock/claim
    // protocol checkers enabled: catches real data races.
    let out = Experiment::new(cfg(FabricKind::Real, 700_000_000)).run();
    assert_eq!(out.connected, 8);
    assert!(out.response.received > 50, "{}", out.response.received);
}
