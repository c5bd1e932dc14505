//! The four named workloads. Names are fixed; later issues cite them.

use parquake_bsp::mapgen::MapGenConfig;
use parquake_server::{LockPolicy, ServerKind};

use crate::spec;

/// Map seed shared by every in-process workload (the repo's default
/// evaluation map). The map is part of the workload, not of the
/// seeded input stream: `--seed` varies only the bots' commands.
const MAP_SEED: u64 = 0x6D_6D_31;

/// An in-process workload: a server on the real fabric, driven through
/// its fabric ports.
#[derive(Clone, Debug)]
pub struct InprocSpec {
    pub name: &'static str,
    pub players: u32,
    pub map: MapGenConfig,
    pub view_dist: Option<f32>,
    pub kind: ServerKind,
    pub delta_compression: bool,
    pub frame_batch_ns: u64,
    /// Players are sent in this many equal groups per tick…
    pub groups: u32,
    /// …one group every this many nanoseconds.
    pub group_gap_ns: u64,
}

impl InprocSpec {
    pub fn threads(&self) -> u32 {
        self.kind.threads()
    }
}

/// `dense_burst_384p`: one 384-move frame per tick.
pub fn dense() -> InprocSpec {
    InprocSpec {
        name: spec::DENSE,
        players: 384,
        map: MapGenConfig::large_arena(MAP_SEED),
        view_dist: None,
        kind: ServerKind::Sequential,
        delta_compression: false,
        frame_batch_ns: 0,
        groups: 1,
        group_gap_ns: 0,
    }
}

/// `sparse_stagger_160p`: the 18×18-room world of
/// `figures/interestsweep.rs`, 20 groups of 8 every 1.5 ms.
pub fn sparse() -> InprocSpec {
    InprocSpec {
        name: spec::SPARSE,
        players: 160,
        map: MapGenConfig {
            grid_w: 18,
            grid_h: 18,
            items_per_room: 3,
            teleporter_pairs: 8,
            ..MapGenConfig::large_arena(MAP_SEED)
        },
        view_dist: Some(800.0),
        kind: ServerKind::Sequential,
        delta_compression: true,
        frame_batch_ns: 0,
        groups: 20,
        group_gap_ns: 1_500_000,
    }
}

/// `locks_2t_256p`: two threads sharing every frame on a crowded map.
/// Without the §5.2 batching window the second thread misses every
/// frame (probe: 857 serialised frames instead of 428).
pub fn locks() -> InprocSpec {
    InprocSpec {
        name: spec::LOCKS,
        players: 256,
        map: MapGenConfig::small_arena(MAP_SEED),
        view_dist: None,
        kind: ServerKind::Parallel {
            threads: 2,
            locking: LockPolicy::Optimized,
        },
        delta_compression: false,
        frame_batch_ns: 300_000,
        groups: 1,
        group_gap_ns: 0,
    }
}

/// The in-process stand-in for one `udp_arena_64p` arena, used only to
/// sample kernel inputs (the gateway keeps its worlds to itself): the
/// gateway's default map, one arena's share of the players, the same
/// 8-group stagger.
pub fn udp_arena_standin() -> InprocSpec {
    InprocSpec {
        name: spec::UDP,
        players: crate::udp::PLAYERS / crate::udp::ARENAS,
        map: parquake_harness::udp_arena::UdpArenaOpts::default().map,
        view_dist: None,
        kind: ServerKind::Sequential,
        delta_compression: false,
        frame_batch_ns: 0,
        groups: crate::udp::STEADY_GROUPS,
        group_gap_ns: crate::udp::GROUP_GAP_NS,
    }
}

/// The in-process workload called `name`, if it is one.
pub fn inproc_by_name(name: &str) -> Option<InprocSpec> {
    [dense(), sparse(), locks()]
        .into_iter()
        .find(|s| s.name == name)
}
