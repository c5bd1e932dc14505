//! The sequential server (paper §2.1): one thread, no locks.
//!
//! The frame loop is the original's: block in `select` until a request
//! arrives, update world physics, receive and process requests until
//! the queue is empty, then form and send replies to every client that
//! sent a request this frame.

use std::sync::{Arc, Mutex};

use parquake_fabric::{Fabric, TaskCtx};
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

    let mut f = FrameState::default();
    shared.run_single_loop(ctx, &mut f);
    shared.publish_single(ctx, &mut f, results);
}
