//! The director-side arena supervisor: watchdog + checkpoint restore.
//!
//! A failed arena runs through the crashed and condemned rows of the
//! pool's lifecycle table (`crate::pool`, DESIGN.md §8): a caught panic
//! crashes it, the watchdog condemns a frame that overruns
//! `WATCHDOG_NS`, and the supervisor fences the fated cell, restores
//! it and marks the restore done.
//!
//! The supervisor runs inside the director's loop, between front-door
//! batches. It never races a worker: crashed arenas already released
//! their claim, condemned arenas are fenced only after the stuck frame
//! returns its claim, and the restore itself runs *with the director
//! holding the claim* — the same claim workers take — so no worker can
//! touch the cell mid-restore. Restoration rewinds the arena's world
//! and slot table to the newest checkpoint, then replays the ledger:
//! placements the checkpoint never saw depart (a synthetic notice),
//! checkpointed clients the book lost are re-booked, and everyone else
//! keeps their sticky placement — so `placed == departed + resident`
//! survives the restart and clients ride through on the connect-retry
//! rebind grace (their slot is reinstated with `needs_ack`, so the
//! arena re-acks them unprompted).

use std::collections::HashSet;

use parquake_fabric::{Nanos, TaskCtx};
use parquake_metrics::{SupervisorEvent, SupervisorEventKind};
use parquake_server::runtime::SlotSnapshot;

use crate::directory::{Director, DirectorEnv};
use crate::ledger::Departure;
use crate::pool::{Fate, Pool};

/// The watchdog condemns an arena whose claimed frame has been running
/// longer than this. A stuck frame cannot be preempted — the watchdog
/// condemns the arena (no longer schedulable) and the restore happens
/// once the frame returns its claim.
const WATCHDOG_NS: Nanos = 250_000_000;

/// One supervision pass: watchdog sweep, then restore every restorable
/// fated arena. Called from the director loop; no-op unless the
/// directory is pooled and supervised.
pub(crate) fn supervise(ctx: &TaskCtx, env: &DirectorEnv, d: &mut Director) {
    if env.cfg.supervision.is_none() {
        return;
    }
    let Some(pool) = env.pool.as_ref() else {
        return;
    };
    let now = ctx.now();
    let mut to_restore: Vec<(usize, Nanos)> = Vec::new();
    pool.with(ctx, |t| {
        for k in 0..pool.cells.len() {
            // Watchdog: a claimed frame running past the bound cannot
            // be preempted — condemn the arena so the releasing worker
            // leaves it fated; it is fenced and restored on a later
            // pass, once the claim clears.
            if t.condemn(k, now, WATCHDOG_NS) {
                d.sup.stuck_detected += 1;
                d.sup.events.push(SupervisorEvent {
                    at: now,
                    arena: k as u16,
                    kind: SupervisorEventKind::Stuck,
                });
                continue;
            }
            // A fated arena whose claim is free is fenced now, so the
            // restore can run outside the pool lock.
            match t.fence_fated(k) {
                Some(Fate::Crashed { at }) => {
                    d.sup.events.push(SupervisorEvent {
                        at,
                        arena: k as u16,
                        kind: SupervisorEventKind::Panicked,
                    });
                    to_restore.push((k, at));
                }
                Some(Fate::Condemned { at }) => to_restore.push((k, at)),
                None => {}
            }
        }
    });

    for (k, failed_at) in to_restore {
        restore_arena(ctx, d, pool, k, failed_at);
    }
}

/// Rewind arena `k` to its newest checkpoint and bring it back live.
/// The caller has fenced the cell (the director holds its claim), so
/// the cell is exclusively the director's until the restore is done.
fn restore_arena(ctx: &TaskCtx, d: &mut Director, pool: &Pool, k: usize, failed_at: Nanos) {
    let cell = &pool.cells[k];
    let g = cell.guard();
    let now0 = ctx.now();
    // Every checkpointed session, in slot order — deterministic replay.
    let resident: Vec<SlotSnapshot> = if let Some(cp) = g.ring.latest() {
        // The codec validates the whole image before mutating, so a
        // failed restore (impossible unless the ring is corrupt)
        // leaves the crash state in place; the slot wipe below still
        // quiesces the arena either way.
        let _ = cell.shared.world.restore_bytes(&cp.world);
        cell.shared.restore_slots(&cp.slots, now0);
        cell.frame().frame_no = cp.frame_no;
        // Modelled cost: the deserializing memcpy, mirroring
        // checkpoint capture.
        ctx.charge((cp.world.len() as u64 >> 6).max(1_000));
        cp.slots.clone()
    } else {
        // Crashed before any checkpoint — unreachable from the pooled
        // path (the first claim checkpoints before the lottery), but
        // quiesce to an empty slot table on the pristine world anyway.
        cell.shared.restore_slots(&[], now0);
        Vec::new()
    };

    // Ledger replay: the book must agree with the restored slot table.
    let arena = k as u16;
    let checkpointed: HashSet<u32> = resident.iter().map(|s| s.client_id).collect();
    for (cid, _) in d.ledger.booked_in(arena) {
        if !checkpointed.contains(&cid) {
            // Placed after the checkpoint: that session no longer
            // exists server-side. Depart it like an arena notice; the
            // client's retry re-places it (stickiness was lost with
            // the slot).
            d.ledger.remove(cid, Departure::Notice);
        }
    }
    let booked: HashSet<u32> = d
        .ledger
        .booked_in(arena)
        .iter()
        .map(|&(id, _)| id)
        .collect();
    for s in &resident {
        let cid = s.client_id;
        if booked.contains(&cid) {
            continue;
        }
        match d.ledger.lookup(cid) {
            // Booked at ANOTHER arena: the client migrated away after
            // this checkpoint was taken. The checkpoint is older than
            // the handoff, so the book wins — wipe the resurrected
            // slot instead of re-booking it, or the session would
            // exist in two worlds at once.
            Some(p) if p.arena != arena => {
                if let Some(idx) = cell.shared.clients.find(cid) {
                    cell.shared.evict(idx);
                }
                d.sup.stale_restored_slots += 1;
            }
            // Checkpointed with its Disconnect drained: the first frame
            // after the restore vacates the slot and sends the notice,
            // so a client the book already let go stays gone.
            _ if s.leaving => {}
            // Checkpointed but lost from the book (LRU eviction, or an
            // interleaved departure notice): the restored slot is the
            // authority — re-book it.
            _ => {
                d.ledger.place(cid, arena, s.owner as u16);
                d.sup.replayed_placements += 1;
            }
        }
    }

    // Back live: drop the fence, reset pacing so queued traffic (which
    // kept accumulating on the arena's bounded port throughout) drains
    // immediately, and wake the workers.
    let sessions = cell.shared.clients.occupied();
    pool.with(ctx, |t| t.restored(k, ctx.now(), sessions));

    let now = ctx.now();
    d.sup
        .note_restore(now, arena, now.saturating_sub(failed_at));
}
