//! The traced mirror must stay the sequential server: the same seeded
//! workload on the deterministic virtual fabric has to produce the
//! same replies and the same world, bit for bit. This is the only
//! guard against the benchmark's copy of the frame loop drifting from
//! `seq.rs` until tracing moves inside the program.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parquake_bots::{spawn_swarm, BotSwarmConfig};
use parquake_bsp::mapgen::MapGenConfig;
use parquake_fabric::FabricKind;
use parquake_server::{spawn_server, InterestMode, ServerConfig, ServerKind};
use parquake_sim::GameWorld;
use parquake_wallbench::mirror::{spawn_mirror, SpanSink};
use parquake_wallbench::trace::SpanKind;

const PLAYERS: u32 = 24;
const SEND_NS: u64 = 2_000_000_000;

struct Run {
    replies: u64,
    received: u64,
    frames: u64,
    world_hash: u64,
    connected: u32,
    frame_ns_sum: u64,
    spans: SpanSink,
}

fn run(mirror: bool, delta: bool) -> Run {
    let map = Arc::new(MapGenConfig::small_arena(7).generate());
    let world = Arc::new(GameWorld::new(map, 4, PLAYERS as u16));
    let fabric = FabricKind::VirtualSmp(Default::default()).build();
    let cfg = ServerConfig {
        checking: false,
        interest: InterestMode::Sweep,
        delta_compression: delta,
        ..ServerConfig::new(ServerKind::Sequential, SEND_NS + 500_000_000)
    };
    let spans = SpanSink::default();
    let server = if mirror {
        spawn_mirror(&fabric, cfg, world.clone(), spans.clone())
    } else {
        spawn_server(&fabric, cfg, world.clone())
    };
    let swarm = spawn_swarm(
        &fabric,
        &BotSwarmConfig::new(PLAYERS, SEND_NS),
        &server.ports,
        |_| 0,
    );
    fabric.run();
    let results = server.results.lock().unwrap().clone();
    let received = swarm.stats.lock().unwrap().received;
    Run {
        replies: results.merged().replies,
        received,
        frames: results.frame_count,
        world_hash: world.world_hash(),
        connected: swarm.connected.load(Ordering::Relaxed),
        frame_ns_sum: results.frames.frame_ns_sum,
        spans,
    }
}

#[test]
fn mirror_and_sequential_server_agree_on_replies_and_world() {
    for delta in [false, true] {
        let (program, mirror) = (run(false, delta), run(true, delta));
        assert_eq!(program.connected, PLAYERS);
        assert!(program.replies > 1_000, "only {} replies", program.replies);
        assert_eq!(mirror.replies, program.replies, "delta={delta}");
        assert_eq!(mirror.received, program.received, "delta={delta}");
        assert_eq!(mirror.frames, program.frames, "delta={delta}");
        assert_eq!(mirror.world_hash, program.world_hash, "delta={delta}");
        assert_eq!(mirror.frame_ns_sum, program.frame_ns_sum, "delta={delta}");
    }
}

#[test]
fn mirror_spans_cover_every_frame_once() {
    let r = run(true, false);
    let spans = r.spans.lock().unwrap();
    for kind in [
        SpanKind::SelectWait,
        SpanKind::Frame,
        SpanKind::WorldUpdate,
        SpanKind::DrainRequests,
        SpanKind::Reply,
        SpanKind::InterestIndex,
        SpanKind::InterestMatch,
    ] {
        let n = spans.iter().filter(|s| s.kind == kind).count() as u64;
        assert_eq!(n, r.frames, "{kind:?}");
    }
    // On the virtual fabric time only advances inside the phases, so
    // the phase spans tile the frame exactly.
    let phases: u64 = spans
        .iter()
        .filter(|s| s.kind.parent() == Some(SpanKind::Frame))
        .map(|s| s.dur_ns())
        .sum();
    assert_eq!(phases, r.frame_ns_sum);
}
