//! The director-side arena supervisor: watchdog + checkpoint restore.
//!
//! Fate machine per pooled arena (see DESIGN.md §9):
//!
//! ```text
//!            frame panics (caught)          claim released
//! healthy ──────────────────────► crashed ───────────────┐
//!    │                                                    │
//!    │ claimed frame overruns WATCHDOG_NS                 ▼
//!    └──────────────────────────► condemned ────► restoring ──► live
//!                                  (stuck)     (claim fenced by
//!                                                the director)
//! ```
//!
//! The supervisor runs inside the director's loop, between front-door
//! batches. It never races a worker: crashed arenas already released
//! their claim, condemned arenas are restored only after the stuck
//! frame returns its claim, and the restore itself happens *with the
//! claim flag set* — the same fence workers use — so no worker can
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
use parquake_server::clients::SlotState;

use crate::directory::{ArenaFate, Director, DirectorEnv, PoolParts};
use crate::ledger::Departure;

/// The watchdog condemns an arena whose claimed frame has been running
/// longer than this. A stuck frame cannot be preempted — the watchdog
/// fences the arena (liveness masked, fate condemned) and the restore
/// happens once the frame returns its claim.
const WATCHDOG_NS: Nanos = 250_000_000;

/// One supervision pass: watchdog sweep, then restore every restorable
/// fated arena. Called from the director loop; no-op unless the
/// directory is pooled and supervised.
pub(crate) fn supervise(ctx: &TaskCtx, env: &DirectorEnv, d: &mut Director) {
    if !env.supervised {
        return;
    }
    let Some(parts) = env.pool.as_ref() else {
        return;
    };
    let now = ctx.now();
    let n = parts.cells.len();
    let mut to_restore: Vec<(usize, Nanos)> = Vec::new();
    parts.pool.enter(ctx);
    {
        let st = parts.pool.state();
        for k in 0..n {
            match st.fate[k] {
                // Watchdog: a claimed frame running past the bound
                // cannot be preempted — condemn the arena (mask
                // liveness, mark stuck) so the releasing worker leaves
                // it dead and restore happens below, on a later pass,
                // once the claim clears.
                ArenaFate::Healthy
                    if st.claimed[k] && now.saturating_sub(st.claim_started[k]) > WATCHDOG_NS =>
                {
                    st.fate[k] = ArenaFate::Condemned { at: now };
                    st.live[k] = false;
                    d.sup.stuck_detected += 1;
                    d.sup.events.push(SupervisorEvent {
                        at: now,
                        arena: k as u16,
                        kind: SupervisorEventKind::Stuck,
                    });
                }
                ArenaFate::Crashed { at } if !st.claimed[k] => {
                    // Fence the cell with the claim flag so the
                    // restore can run outside the pool lock.
                    st.claimed[k] = true;
                    d.sup.events.push(SupervisorEvent {
                        at,
                        arena: k as u16,
                        kind: SupervisorEventKind::Panicked,
                    });
                    to_restore.push((k, at));
                }
                ArenaFate::Condemned { at } if !st.claimed[k] => {
                    st.claimed[k] = true;
                    to_restore.push((k, at));
                }
                _ => {}
            }
        }
    }
    parts.pool.exit(ctx);

    for (k, failed_at) in to_restore {
        restore_arena(ctx, d, parts, k, failed_at);
    }
}

/// Rewind arena `k` to its newest checkpoint and bring it back live.
/// The caller has fenced the cell (claim flag set), so the cell is
/// exclusively the director's until the flag clears.
fn restore_arena(ctx: &TaskCtx, d: &mut Director, parts: &PoolParts, k: usize, failed_at: Nanos) {
    let cell = &parts.cells[k];
    let g = cell.guard();
    let now0 = ctx.now();
    // (client_id, connect-time thread) of every checkpointed session,
    // in slot order — deterministic replay.
    let mut resident: Vec<(u32, u16)> = Vec::new();
    if let Some(cp) = g.ring.latest() {
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
        for s in &cp.slots {
            resident.push((s.client_id, s.owner as u16));
        }
    } else {
        // Crashed before any checkpoint — unreachable from the pooled
        // path (the first claim checkpoints before the lottery), but
        // quiesce to an empty slot table on the pristine world anyway.
        cell.shared.restore_slots(&[], now0);
    }

    // Ledger replay: the book must agree with the restored slot table.
    let arena = k as u16;
    let checkpointed: HashSet<u32> = resident.iter().map(|&(id, _)| id).collect();
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
    let mut wiped = 0usize;
    for &(cid, thread) in &resident {
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
                wipe_resurrected_slot(cell, cid);
                d.sup.stale_restored_slots += 1;
                wiped += 1;
            }
            // Checkpointed but lost from the book (LRU eviction, or an
            // interleaved departure notice): the restored slot is the
            // authority — re-book it.
            _ => {
                d.ledger.place(cid, arena, thread);
                d.sup.replayed_placements += 1;
            }
        }
    }

    // Back live: drop the fence, reset pacing so queued traffic (which
    // kept accumulating on the arena's bounded port throughout) drains
    // immediately, and wake the workers.
    parts.pool.enter(ctx);
    {
        let st = parts.pool.state();
        st.fate[k] = ArenaFate::Healthy;
        st.claimed[k] = false;
        st.live[k] = true;
        st.next_due[k] = 0;
        st.last_frame[k] = ctx.now();
        st.sessions[k] = resident.len() > wiped;
        ctx.cond_broadcast(parts.pool.cond);
    }
    parts.pool.exit(ctx);

    let now = ctx.now();
    d.sup
        .note_restore(now, arena, now.saturating_sub(failed_at));
}

/// A restored slot whose client the ledger shows booked at another
/// arena is stale — despawn its entity and clear the slot so the
/// session lives only where the book says it does.
fn wipe_resurrected_slot(cell: &crate::directory::ArenaCell, cid: u32) {
    let clients = &cell.shared.clients;
    for idx in 0..clients.capacity() {
        let slot = clients.slot(idx);
        if slot.state != SlotState::Empty && slot.client_id == cid {
            cell.shared.world.despawn_player(idx as u16);
            slot.state = SlotState::Empty;
            slot.leaving = false;
            slot.needs_ack = false;
            slot.requests_this_frame = 0;
            slot.events.clear();
            slot.baseline.clear();
            return;
        }
    }
}
