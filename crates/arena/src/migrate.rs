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
//! — wipes the resurrected slot instead of re-booking it, and counts
//! it as `stale_restored_slots` (see [`crate::supervisor`]).

use parquake_fabric::TaskCtx;
use parquake_metrics::{SupervisorEvent, SupervisorEventKind};
use parquake_protocol::Encode;
use parquake_server::clients::SlotState;
use parquake_server::LifecycleEvent;

use crate::directory::{drain_requests_coalesced, ArenaFate, Director, DirectorEnv, PoolParts};

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
    if env.migrate_spread == 0 && !env.migrate_drain {
        return;
    }
    let Some(parts) = env.pool.as_ref() else {
        return;
    };
    let now = ctx.now();
    if now < d.next_migrate_at {
        return;
    }
    d.next_migrate_at = now + MIGRATE_INTERVAL_NS;
    if let Some((src, dst)) = pick_drain(env, d) {
        handoff(ctx, env, d, parts, src, dst, true);
    } else if let Some((src, dst)) = pick_spread(env, d) {
        handoff(ctx, env, d, parts, src, dst, false);
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
    if !env.migrate_drain {
        return None;
    }
    let occ = d.ledger.occupancy();
    let src = (env.boot..occ.len())
        .filter(|&k| d.live[k] && occ[k] > 0)
        .min_by_key(|&k| (occ[k], k))?;
    let free_elsewhere: u64 = occ
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != src && d.live[k])
        .map(|(_, &o)| env.capacity.saturating_sub(o) as u64)
        .sum();
    if free_elsewhere < occ[src] as u64 {
        return None;
    }
    let dst = rebalance_target(src, occ, env.capacity, &d.live)?;
    Some((src, dst))
}

/// The spread trigger: hottest live arena vs the coldest open landing
/// spot, when the gap has reached the configured spread.
fn pick_spread(env: &DirectorEnv, d: &Director) -> Option<(usize, usize)> {
    if env.migrate_spread == 0 {
        return None;
    }
    let occ = d.ledger.occupancy();
    let src = occ
        .iter()
        .enumerate()
        .filter(|&(k, &o)| d.live[k] && o > 0)
        .max_by_key(|&(k, &o)| (o, std::cmp::Reverse(k)))
        .map(|(k, _)| k)?;
    let dst = rebalance_target(src, occ, env.capacity, &d.live)?;
    if occ[src].saturating_sub(occ[dst]) >= env.migrate_spread {
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

/// Capture both cells at their frame boundaries: mark them
/// fence-pending so no worker takes a new claim, then wait on the pool
/// condvar until the in-flight frames release. Returns `false` (with
/// the fence cleared and nothing mutated) if either cell dies or the
/// wait times out.
fn capture_fence(ctx: &TaskCtx, parts: &PoolParts, src: usize, dst: usize) -> bool {
    let deadline = ctx.now() + FENCE_WAIT_NS;
    parts.pool.enter(ctx);
    let healthy = |st: &crate::directory::PoolState, k: usize| {
        st.live[k] && st.fate[k] == ArenaFate::Healthy && !st.fenced[k]
    };
    {
        let st = parts.pool.state();
        if !healthy(st, src) || !healthy(st, dst) {
            parts.pool.exit(ctx);
            return false;
        }
        st.fenced[src] = true;
        st.fenced[dst] = true;
    }
    loop {
        let st = parts.pool.state();
        // A cell can be condemned or crash while we wait (its claim is
        // cleared as it dies) — re-check fate, not just the claims.
        let alive = |k: usize| st.live[k] && st.fate[k] == ArenaFate::Healthy;
        if !alive(src) || !alive(dst) || ctx.now() >= deadline {
            st.fenced[src] = false;
            st.fenced[dst] = false;
            ctx.cond_broadcast(parts.pool.cond);
            parts.pool.exit(ctx);
            return false;
        }
        if !st.claimed[src] && !st.claimed[dst] {
            break;
        }
        ctx.cond_wait_until(parts.pool.cond, parts.pool.lock, deadline);
    }
    {
        let now = ctx.now();
        let st = parts.pool.state();
        st.claimed[src] = true;
        st.claimed[dst] = true;
        st.claim_started[src] = now;
        st.claim_started[dst] = now;
        st.fenced[src] = false;
        st.fenced[dst] = false;
    }
    parts.pool.exit(ctx);
    true
}

/// Execute one fenced handoff of up to [`MIGRATE_BATCH`] residents of
/// `src` into `dst`. A failed capture or a fence that finds nothing
/// migratable counts one `migrate_aborted`; per-slot transfer failures
/// abort that slot with nothing mutated.
fn handoff(
    ctx: &TaskCtx,
    env: &DirectorEnv,
    d: &mut Director,
    parts: &PoolParts,
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

    if !capture_fence(ctx, parts, src, dst) {
        d.sup.migrate_aborted += 1;
        return;
    }

    let cell_s = &parts.cells[src];
    let cell_d = &parts.cells[dst];

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

    // Booked candidates with Active slots are the victims; free slots
    // in the destination table are their landing spots.
    let s_clients = &cell_s.shared.clients;
    let d_clients = &cell_d.shared.clients;
    let mut moved: Vec<u32> = Vec::new();
    let mut next_landing = 0usize;
    for &(cid, _) in candidates.iter() {
        if moved.len() >= want {
            break;
        }
        let Some(s_idx) = (0..s_clients.capacity()).find(|&idx| {
            let slot = s_clients.slot(idx);
            slot.state == SlotState::Active && slot.client_id == cid
        }) else {
            continue;
        };
        let Some(t_idx) = (next_landing..d_clients.capacity())
            .find(|&idx| d_clients.slot(idx).state == SlotState::Empty)
        else {
            break;
        };
        next_landing = t_idx + 1;
        if transfer(ctx, cell_s, cell_d, d, cid, s_idx, t_idx).is_some() {
            moved.push(cid);
        }
    }

    // Unfence both cells; on success reset pacing so the destination
    // frames (and re-acks) promptly even with no input queued.
    parts.pool.enter(ctx);
    {
        let st = parts.pool.state();
        st.claimed[src] = false;
        st.claimed[dst] = false;
        if !moved.is_empty() {
            st.next_due[src] = 0;
            st.next_due[dst] = 0;
            st.sessions[dst] = true;
            st.sessions[src] =
                (0..s_clients.capacity()).any(|i| s_clients.slot(i).state != SlotState::Empty);
        }
        ctx.cond_broadcast(parts.pool.cond);
    }
    parts.pool.exit(ctx);

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
        if let Some(tap) = env.tap {
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

/// The fenced transfer proper: capsule out of the source world,
/// validate-before-mutate into the destination world, then (only
/// then) clear the source entity and slot and install the
/// destination slot with `needs_ack` set — the destination's next
/// reply phase re-acks the client unprompted with the new arena id,
/// exactly the crash-recovery rebind path.
fn transfer(
    ctx: &TaskCtx,
    cell_s: &crate::directory::ArenaCell,
    cell_d: &crate::directory::ArenaCell,
    d: &mut Director,
    cid: u32,
    s_idx: usize,
    t_idx: usize,
) -> Option<()> {
    let pre_hash = cell_s.shared.world.player_hash(s_idx as u16);
    let capsule = cell_s
        .shared
        .world
        .snapshot_player_bytes(s_idx as u16)
        .ok()?;
    cell_d
        .shared
        .world
        .restore_player_bytes(t_idx as u16, &capsule)
        .ok()?;
    // Landed. The hash check is the world-hash-identity oracle: the
    // capsule's bytes, rehashed at the destination slot, must equal
    // the source's pre-fence state.
    if cell_d.shared.world.player_hash(t_idx as u16) != pre_hash {
        d.sup.migrate_hash_mismatch += 1;
    }
    // Modelled cost: the serialize + deserialize memcpy, mirroring
    // checkpoint capture/restore.
    ctx.charge(((capsule.len() as u64) >> 6).max(1_000));

    let s_slot = cell_s.shared.clients.slot(s_idx);
    let reply_port = s_slot.reply_port;
    let last_seq = s_slot.last_seq;
    let last_sent_at = s_slot.last_sent_at;
    cell_s.shared.world.despawn_player(s_idx as u16);
    s_slot.state = SlotState::Empty;
    s_slot.leaving = false;
    s_slot.needs_ack = false;
    s_slot.requests_this_frame = 0;
    s_slot.events.clear();
    s_slot.baseline.clear();

    let t_slot = cell_d.shared.clients.slot(t_idx);
    t_slot.state = SlotState::Active;
    t_slot.client_id = cid;
    t_slot.reply_port = reply_port;
    t_slot.owner = 0;
    t_slot.desired_thread = 0;
    t_slot.needs_ack = true;
    t_slot.leaving = false;
    t_slot.requests_this_frame = 0;
    t_slot.last_seq = last_seq;
    t_slot.last_sent_at = last_sent_at;
    t_slot.last_active = ctx.now();
    t_slot.events.clear();
    t_slot.baseline.clear();
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
}
