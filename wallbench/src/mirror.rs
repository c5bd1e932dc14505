//! The traced mirror of the sequential server's frame loop.
//!
//! Tracing inside the program is a later change; until then this file
//! repeats `parquake_server::seq`'s loop — the same public
//! `ServerShared` methods in the same order, with the same `charge`
//! and statistics — and records a span around each phase. Supervised
//! `catch_panics` frames are the one branch not mirrored (no benchmark
//! workload sets it). `tests/parity.rs` holds the two loops together.

use std::sync::{Arc, Mutex, PoisonError};

use parquake_fabric::{Fabric, TaskCtx};
use parquake_interest::InterestStats;
use parquake_metrics::{Bucket, FrameSample, FrameStats, ThreadStats, Timeline};
use parquake_server::runtime::ServerShared;
use parquake_server::{ServerConfig, ServerHandle, ServerResults};
use parquake_sim::GameWorld;

use crate::trace::{Span, SpanKind};

/// Where the mirror publishes its spans when the run ends.
pub type SpanSink = Arc<Mutex<Vec<Span>>>;

/// Spawn the mirrored sequential server onto `fabric`; the counterpart
/// of `spawn_server` with `ServerKind::Sequential`.
pub fn spawn_mirror(
    fabric: &Arc<dyn Fabric>,
    cfg: ServerConfig,
    world: Arc<GameWorld>,
    sink: SpanSink,
) -> ServerHandle {
    assert!(!cfg.catch_panics, "the mirror does not supervise frames");
    let shared = Arc::new(ServerShared::new(fabric, &cfg, world, 1, None));
    let results = Arc::new(Mutex::new(ServerResults::default()));
    let handle = ServerHandle {
        ports: shared.ports.clone(),
        results: results.clone(),
        slots_per_thread: shared.slots_per_thread,
    };
    fabric.spawn(
        "server-seq",
        Some(0),
        Box::new(move |ctx| run(ctx, &shared, &results, &sink)),
    );
    handle
}

fn run(ctx: &TaskCtx, shared: &ServerShared, results: &Mutex<ServerResults>, sink: &SpanSink) {
    shared.world.links.set_checking(false);
    shared.world.store.set_checking(false);

    let port = shared.ports[0];
    let mut stats = ThreadStats::new();
    let mut frames = FrameStats::new();
    let mut timeline = Timeline::default();
    let mut istats = InterestStats::default();
    let mut frame_no: u32 = 0;
    let mut spans: Vec<Span> = Vec::new();
    let mut span = |kind: SpanKind, id: u32, start_ns: u64, end_ns: u64| {
        spans.push(Span {
            kind,
            id,
            start_ns,
            end_ns,
        })
    };

    loop {
        let t0 = ctx.now();
        if !ctx.wait_readable(port, Some(shared.end_time)) {
            break;
        }
        let woke = ctx.now();
        stats.breakdown.add(Bucket::Idle, woke - t0);
        ctx.charge(shared.cost.select_op);
        frame_no += 1;
        span(SpanKind::SelectWait, frame_no, t0, woke);
        let frame_start = ctx.now();

        // P: world physics.
        let t0 = ctx.now();
        shared.run_world_update(ctx, port, &mut stats, frame_no);
        let t1 = ctx.now();
        stats.breakdown.add(Bucket::World, t1 - t0);
        stats.mastered += 1;
        span(SpanKind::WorldUpdate, frame_no, t0, t1);

        // Rx/E: drain the request queue.
        let mut unused_mask = 0u64;
        let moves = shared.drain_requests(ctx, 0, port, &mut stats, &mut unused_mask);
        let t2 = ctx.now();
        span(SpanKind::DrainRequests, frame_no, t1, t2);

        // T/Tx: replies for everyone who sent a request.
        let t0 = ctx.now();
        let global = shared.read_global_events(ctx, &mut stats);
        let all_slots: Vec<usize> = (0..shared.clients.capacity()).collect();
        let i0 = ctx.now();
        let index = shared.build_interest_index(ctx, &mut istats);
        let i1 = ctx.now();
        let iframe = index
            .as_ref()
            .map(|ix| shared.match_interest(ctx, &all_slots, ix, &mut istats));
        let i2 = ctx.now();
        shared.reply_for_slots(
            ctx,
            port,
            &all_slots,
            &global,
            frame_no,
            &mut stats,
            true,
            iframe.as_ref(),
            &mut istats,
        );
        shared.clear_global_events(ctx, &mut stats);
        let t3 = ctx.now();
        stats.breakdown.add(Bucket::Reply, t3 - t0);
        span(SpanKind::Reply, frame_no, t0, t3);
        span(SpanKind::InterestIndex, frame_no, i0, i1);
        span(SpanKind::InterestMatch, frame_no, i1, i2);

        stats.frames += 1;
        frames.frames += 1;
        frames.frame_ns_sum += ctx.now() - frame_start;
        frames.note_frame_requests(&[moves]);
        frames.leaf_count = shared.world.tree.leaf_count() as u64;
        timeline.push(FrameSample {
            start_ns: frame_start,
            duration_ns: ctx.now() - frame_start,
            participants: 1,
            requests: moves,
            requests_max: moves,
            requests_min: moves,
            master: 0,
        });
        span(SpanKind::Frame, frame_no, frame_start, ctx.now());
    }

    stats.queue_dropped = ctx.fabric().port_dropped(port);
    {
        let mut r = results.lock().unwrap_or_else(PoisonError::into_inner);
        r.threads = vec![stats];
        r.frames = frames;
        r.timeline = timeline;
        r.frame_count = frame_no as u64;
        r.leaf_count = shared.world.tree.leaf_count() as u64;
        r.interest = istats;
    }
    *sink.lock().unwrap_or_else(PoisonError::into_inner) = spans;
}
