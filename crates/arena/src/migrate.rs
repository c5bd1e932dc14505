//! Cross-arena live migration: the director moves resident slots from
//! a hot (or draining) arena to a cold one without dropping the
//! sessions.
//!
//! Handoff state machine (see DESIGN.md §11):
//!
//! ```text
//!            pick (spread | drain)
//! idle ──────────────────────────► fenced (claims captured at the
//!                                     │     frame boundary)
//!                                     │ coalesce + drain src moves
//!                                     ▼
//!                                  transfer (capsules → target world,
//!                                     │        validate-before-mutate,
//!                                     │        up to a batch per fence)
//!                                     ▼
//!                                  rebook (ledger migrate in place,
//!                                     │     Migrated notices to tap)
//!                                     ▼
//! idle ◄──────────────────────────  re-ack (claims dropped, target
//!            any failure aborts       slots need_ack, clients ride
//!            before any mutation      rebind grace)
//! ```
//!
//! The fence is two-phase, because the arena most worth migrating off
//! is precisely the one that is claimed essentially all the time: a
//! single try-claim against a saturated arena loses the race on every
//! tick. Instead the director marks both cells *fence-pending* under
//! the pool lock — workers refuse new claims on pending cells — and
//! waits on the pool condvar until the in-flight frames (if any)
//! release their claims at the frame boundary. Capture is therefore
//! bounded by one frame duration, not by luck. The handoff itself runs
//! outside the pool lock, exactly like a worker's frame. Everything
//! after the fence is ordered *target first*: each capsule is
//! validated and installed into the destination world before the
//! source entity is despawned, so any failure aborts that slot with
//! both worlds untouched.
//!
//! One fence per tick ([`MIGRATE_INTERVAL_NS`]), up to [`MIGRATE_BATCH`]
//! slots per fence: the fence wait is the expensive part (a frame
//! boundary on a hot arena can be tens of milliseconds away), so a
//! captured fence is amortised over a small batch while keeping the
//! director's front-door latency bounded.
//!
//! Two triggers, drain first:
//!
//! * **Drain-before-reap** (`migrate_drain`): a non-boot live arena
//!   whose whole population fits in the other live arenas' free
//!   capacity is emptied batch by batch, so the linger reclaim reaps
//!   it instead of waiting its clients out. Checked first — while a
//!   drain candidate exists the fleet is in the consolidation regime
//!   and spread rebalance must not refill the arena being emptied.
//! * **Spread rebalance** (`migrate_spread`): when the hottest live
//!   arena's occupancy exceeds the coldest open arena's by at least
//!   the configured spread, slots migrate off the hottest until the
//!   pair is level.
//!
//! Interaction with checkpoint rings: a migration does not touch
//! either arena's ring, so a later crash of the *source* can restore
//! an image that still contains the migrated player. The supervisor's
//! ledger replay detects this — the client is booked at another arena
//! — evicts the resurrected slot instead of re-booking it, and counts
//! it as `stale_restored_slots` (see [`crate::supervisor`]).

use parquake_fabric::TaskCtx;
use parquake_metrics::{SupervisorEvent, SupervisorEventKind};
use parquake_protocol::Encode;
use parquake_server::runtime::SlotSnapshot;
use parquake_server::LifecycleEvent;

use crate::directory::{drain_requests_coalesced, Director, DirectorEnv};
use crate::pool::{ArenaCell, Pool};

/// Most slots one captured fence may hand off. Small enough that a
/// batch is a blip next to a frame, large enough that leveling a badly
/// skewed fleet takes tens of fences, not hundreds.
pub const MIGRATE_BATCH: usize = 8;

/// Minimum gap between two migration handoffs (spread or drain).
const MIGRATE_INTERVAL_NS: u64 = 25_000_000;

/// How long the director will hold a pending fence waiting for the
/// in-flight frames to reach their boundary before giving up. Matches
/// the default watchdog bound: a frame that overruns this is condemned
/// anyway.
const FENCE_WAIT_NS: u64 = 250_000_000;

/// One rebalance tick: at most one fenced handoff (up to
/// [`MIGRATE_BATCH`] slots), drain candidates first. Called from the
/// director loop; no-op unless the directory is pooled and migration
/// is configured.
pub(crate) fn rebalance(ctx: &TaskCtx, env: &DirectorEnv, d: &mut Director) {
    if env.cfg.migrate_spread == 0 && !env.cfg.migrate_drain {
        return;
    }
    let Some(pool) = env.pool.as_ref() else {
        return;
    };
    let now = ctx.now();
    if now < d.next_migrate_at {
        return;
    }
    d.next_migrate_at = now + MIGRATE_INTERVAL_NS;
    if let Some((src, dst)) = pick_drain(env, d) {
        handoff(ctx, env, d, pool, src, dst, true);
    } else if let Some((src, dst)) = pick_spread(env, d) {
        handoff(ctx, env, d, pool, src, dst, false);
    }
}

/// The arena the next rebalance tick would drain, if any: the same
/// pick as [`rebalance`], without touching anything. Admission keeps it
/// closed (see [`crate::admission::AdmissionPolicy::place`]).
pub(crate) fn planned(env: &DirectorEnv, d: &Director) -> Option<usize> {
    env.pool.as_ref()?;
    pick_drain(env, d).map(|(src, _)| src)
}

/// The drain trigger: smallest-population non-boot live arena whose
/// residents all fit elsewhere.
fn pick_drain(env: &DirectorEnv, d: &Director) -> Option<(usize, usize)> {
    if !env.cfg.migrate_drain {
        return None;
    }
    let capacity = env.cfg.slots_per_arena as u32;
    let occ = d.ledger.occupancy();
    let src = (env.cfg.arenas as usize..occ.len())
        .filter(|&k| d.live[k] && occ[k] > 0)
        .min_by_key(|&k| (occ[k], k))?;
    let free_elsewhere: u64 = occ
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != src && d.live[k])
        .map(|(_, &o)| capacity.saturating_sub(o) as u64)
        .sum();
    if free_elsewhere < occ[src] as u64 {
        return None;
    }
    let dst = drain_target(src, occ, capacity, &d.live, env.cfg.arenas as usize)?;
    Some((src, dst))
}

/// Choose where a drain of `src` lands: the fullest open live arena
/// among the `boot` arenas and the arenas that still hold clients
/// (lowest index on ties). An emptied non-boot arena is never a
/// landing spot: filling it would make it the next drain's source, and
/// two such arenas would trade their last clients every tick. Each
/// drain therefore moves clients home or onto an arena at least as full
/// as `src`, so drains stop once the spawned arenas are consolidated.
fn drain_target(
    src: usize,
    occupancy: &[u32],
    capacity: u32,
    live: &[bool],
    boot: usize,
) -> Option<usize> {
    occupancy
        .iter()
        .enumerate()
        .filter(|&(k, &o)| {
            k != src && live.get(k).copied().unwrap_or(false) && o < capacity && (k < boot || o > 0)
        })
        .max_by_key(|&(k, &o)| (o, std::cmp::Reverse(k)))
        .map(|(k, _)| k)
}

/// The spread trigger: hottest live arena vs the coldest open landing
/// spot, when the gap has reached the configured spread.
fn pick_spread(env: &DirectorEnv, d: &Director) -> Option<(usize, usize)> {
    if env.cfg.migrate_spread == 0 {
        return None;
    }
    let occ = d.ledger.occupancy();
    let src = occ
        .iter()
        .enumerate()
        .filter(|&(k, &o)| d.live[k] && o > 0)
        .max_by_key(|&(k, &o)| (o, std::cmp::Reverse(k)))
        .map(|(k, _)| k)?;
    let dst = rebalance_target(src, occ, env.cfg.slots_per_arena as u32, &d.live)?;
    if occ[src].saturating_sub(occ[dst]) >= env.cfg.migrate_spread {
        Some((src, dst))
    } else {
        None
    }
}

/// Choose a landing arena for a *live* slot being migrated off `src`:
/// the least-occupied live arena with room, excluding the source —
/// whatever policy admitted the population, moving a resident only
/// helps if it lands on the coldest open world. `None` means nowhere to
/// go (every other live arena is full or dead) and the handoff is
/// abandoned.
fn rebalance_target(src: usize, occupancy: &[u32], capacity: u32, live: &[bool]) -> Option<usize> {
    occupancy
        .iter()
        .enumerate()
        .filter(|&(k, &o)| k != src && live.get(k).copied().unwrap_or(false) && o < capacity)
        .min_by_key(|&(_, &o)| o)
        .map(|(k, _)| k)
}

/// Execute one fenced handoff of up to [`MIGRATE_BATCH`] residents of
/// `src` into `dst`. A failed capture or a fence that finds nothing
/// migratable counts one `migrate_aborted`; per-slot transfer failures
/// abort that slot with nothing mutated.
fn handoff(
    ctx: &TaskCtx,
    env: &DirectorEnv,
    d: &mut Director,
    pool: &Pool,
    src: usize,
    dst: usize,
    drain: bool,
) {
    // Victim candidates come from the book (deterministic: sorted by
    // client id); which of them is actually Active server-side can
    // only be read under the fence.
    let candidates = d.ledger.booked_in(src as u16);
    if candidates.is_empty() {
        return;
    }
    let occ = d.ledger.occupancy();
    // How many to move this fence: a drain keeps going until the
    // source is empty (or the target is full); a rebalance stops once
    // the pair is level, so the next tick's pick sees fresh occupancy.
    let want = if drain {
        occ[src] as usize
    } else {
        (occ[src].saturating_sub(occ[dst]) as usize) / 2
    };
    let want = want.min(MIGRATE_BATCH);
    if want == 0 {
        return;
    }

    // The fence is two-phase: no new claims on either cell, then a wait
    // for the in-flight frames to release theirs.
    if !pool.capture(ctx, [src, dst], ctx.now() + FENCE_WAIT_NS) {
        d.sup.migrate_aborted += 1;
        return;
    }

    let cell_s = &pool.cells[src];
    let cell_d = &pool.cells[dst];

    // Quiesce the source's inbound queue before reading the victims:
    // queued moves are coalesced per client then drained, so each
    // capsule reflects every command its client has already sent.
    {
        let mut coalesced = 0u64;
        let mut unused_mask = 0u64;
        drain_requests_coalesced(
            ctx,
            cell_s,
            &mut cell_s.frame().stats,
            &mut unused_mask,
            &mut coalesced,
        );
        cell_s.guard().coalesced_moves += coalesced;
    }

    // Booked candidates with movable slots are the victims; free slots
    // in the destination table are their landing spots.
    let s_clients = &cell_s.shared.clients;
    let d_clients = &cell_d.shared.clients;
    let mut moved: Vec<u32> = Vec::new();
    let mut next_landing = 0usize;
    for &(cid, _) in candidates.iter() {
        if moved.len() >= want {
            break;
        }
        let Some(capsule) = s_clients
            .find(cid)
            .map(|idx| SlotSnapshot::of(idx, s_clients.slot(idx)))
            .filter(SlotSnapshot::movable)
        else {
            continue;
        };
        let Some(t_idx) = d_clients.first_empty(next_landing..d_clients.capacity()) else {
            break;
        };
        next_landing = t_idx + 1;
        if transfer(ctx, cell_s, cell_d, d, &capsule, t_idx).is_some() {
            moved.push(cid);
        }
    }

    // Unfence both cells; on success reset pacing so the destination
    // frames (and re-acks) promptly even with no input queued.
    let src_sessions = s_clients.occupied();
    pool.with(ctx, |t| {
        t.end_migration([src, dst], !moved.is_empty(), src_sessions)
    });

    if moved.is_empty() {
        d.sup.migrate_aborted += 1;
        return;
    }

    let at = ctx.now();
    for &cid in &moved {
        // Rebook in place: same ledger entry, new arena — `placed` and
        // `departed` untouched, so the population identity never opens.
        d.ledger.migrate(cid, dst as u16, 0);
        d.stats.notice_migrated += 1;
        d.sup.migrations += 1;
        if drain {
            d.sup.drain_migrations += 1;
        }
        d.sup.events.push(SupervisorEvent {
            at,
            arena: dst as u16,
            kind: SupervisorEventKind::Migrated,
        });
        if let Some(tap) = env.cfg.lifecycle_tap {
            let ev = LifecycleEvent::Migrated {
                from_arena: src as u16,
                to_arena: dst as u16,
                client_id: cid,
                thread: 0,
            };
            ctx.send(env.front, tap, ev.to_bytes());
        }
    }
    d.empty_since[dst] = None;
}

/// The fenced transfer proper: the player out of the source world,
/// validate-before-mutate into the destination world, then (only
/// then) reinstate the session `capsule` at the destination slot and
/// evict it from the source — the destination's next reply phase
/// re-acks the client unprompted with the new arena id, exactly the
/// crash-recovery rebind path. Prediction continuity follows the same
/// rule as a restore: the opt-in and the input ack travel, and the
/// perturbation epoch moves on.
fn transfer(
    ctx: &TaskCtx,
    cell_s: &ArenaCell,
    cell_d: &ArenaCell,
    d: &mut Director,
    capsule: &SlotSnapshot,
    t_idx: usize,
) -> Option<()> {
    let s_idx = capsule.idx as usize;
    let pre_hash = cell_s.shared.world.player_hash(s_idx as u16);
    let player = cell_s
        .shared
        .world
        .snapshot_player_bytes(s_idx as u16)
        .ok()?;
    cell_d
        .shared
        .world
        .restore_player_bytes(t_idx as u16, &player)
        .ok()?;
    // Landed. The hash check is the world-hash-identity oracle: the
    // player's bytes, rehashed at the destination slot, must equal
    // the source's pre-fence state.
    if cell_d.shared.world.player_hash(t_idx as u16) != pre_hash {
        d.sup.migrate_hash_mismatch += 1;
    }
    // Modelled cost: the serialize + deserialize memcpy, mirroring
    // checkpoint capture/restore.
    ctx.charge(((player.len() as u64) >> 6).max(1_000));

    cell_d.shared.reinstate(t_idx, capsule, ctx.now());
    cell_s.shared.evict(s_idx);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIVE3: &[bool] = &[true, true, true];

    #[test]
    fn rebalance_target_lands_on_the_coldest_open_world() {
        // Hottest arena 0 sheds to the emptiest other live arena.
        assert_eq!(rebalance_target(0, &[6, 2, 4], 8, LIVE3), Some(1));
        // The source itself is never a target, even when coldest.
        assert_eq!(rebalance_target(1, &[6, 0, 4], 8, LIVE3), Some(2));
        // Dead and full arenas are skipped.
        let live = &[true, false, true];
        assert_eq!(rebalance_target(0, &[6, 0, 4], 8, live), Some(2));
        assert_eq!(rebalance_target(0, &[6, 0, 8], 8, live), None);
    }

    #[test]
    fn a_drain_lands_home_or_on_the_fullest_occupied_arena() {
        const LIVE4: &[bool] = &[true, true, true, true];
        // Boot arena 0 has room: the drain of arena 2 goes home even
        // though arena 3 is emptier.
        assert_eq!(drain_target(2, &[5, 0, 1, 0], 8, LIVE4, 1), Some(0));
        // Boot arena full: the fullest occupied spawned arena takes it.
        assert_eq!(drain_target(2, &[8, 3, 1, 6], 8, LIVE4, 1), Some(3));
        // Boot arena full and the only other spawned arena emptied:
        // nowhere to go — landing there would start a ping-pong.
        assert_eq!(drain_target(2, &[8, 0, 1], 8, LIVE3, 1), None);
        // Full and dead arenas are skipped; ties go to the lowest index.
        assert_eq!(drain_target(3, &[8, 4, 4, 1], 8, LIVE4, 1), Some(1));
        let live = &[true, false, true, true];
        assert_eq!(drain_target(3, &[8, 4, 8, 1], 8, live, 1), None);
    }
}
