//! The sequential server (paper §2.1): one thread, no locks.
//!
//! The frame loop is the original's: block in `select` until a request
//! arrives, update world physics, receive and process requests until
//! the queue is empty, then form and send replies to every client that
//! sent a request this frame.

use std::sync::{Arc, Mutex};

use parquake_fabric::{Fabric, TaskCtx};
use parquake_metrics::Bucket;
use parquake_sim::GameWorld;

use crate::runtime::{FrameState, ServerShared};
use crate::{ServerConfig, ServerHandle, ServerResults};

/// Spawn the sequential server task onto `fabric`.
pub fn spawn_sequential(
    fabric: &Arc<dyn Fabric>,
    cfg: ServerConfig,
    world: Arc<GameWorld>,
) -> ServerHandle {
    let shared = Arc::new(ServerShared::new(fabric, &cfg, world, 1, None));
    let results = Arc::new(Mutex::new(ServerResults::default()));
    let handle = ServerHandle {
        ports: shared.ports.clone(),
        results: results.clone(),
        slots_per_thread: shared.slots_per_thread,
    };
    let res = results.clone();
    let sh = shared.clone();
    fabric.spawn(
        "server-seq",
        Some(0),
        Box::new(move |ctx| run(ctx, &sh, &res)),
    );
    handle
}

fn run(ctx: &TaskCtx, shared: &ServerShared, results: &Mutex<ServerResults>) {
    // The sequential server never enables the parallel protocol
    // checkers: there is no locking protocol to check.
    shared.world.links.set_checking(false);
    shared.world.store.set_checking(false);

    let port = shared.ports[0];
    let mut f = FrameState::default();

    loop {
        // S: block until a request arrives (or the run ends).
        let t0 = ctx.now();
        let readable = ctx.wait_readable(port, Some(shared.end_time));
        if !readable {
            // End-of-run drain tail: not part of the measured window.
            break;
        }
        f.stats.breakdown.add(Bucket::Idle, ctx.now() - t0);

        let mut frame = || {
            shared.run_single_frame(ctx, &mut f, |stats, mask| {
                shared.drain_requests(ctx, 0, port, stats, mask)
            })
        };
        if !shared.catch_panics {
            frame();
        } else if std::panic::catch_unwind(std::panic::AssertUnwindSafe(frame)).is_err() {
            // Supervised dedicated arena: a panicking frame must fate
            // only this runtime, not the whole fabric. World state may
            // be mid-mutation, so stop serving cleanly rather than
            // continue on a possibly-inconsistent world; results are
            // still published below.
            f.stats.panics_caught += 1;
            // A fabric lock leaked by the unwound frame would wedge
            // its peers; make the witness report it.
            if let Some(w) = ctx.fabric().witness() {
                w.on_unwind(ctx.id(), ctx.now());
            }
            break;
        }
    }

    shared.publish_single(ctx, &mut f, results);
}
