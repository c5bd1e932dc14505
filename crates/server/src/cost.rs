//! The modelled CPU cost of server work.
//!
//! The virtual-time fabric advances a thread's clock only through
//! `charge()`; this module converts the raw work counters reported by
//! the simulation into nanoseconds of modelled Pentium-4-Xeon-1.4GHz
//! time. The constants were calibrated once against the paper's
//! sequential measurements (§4.1: reply processing ≈ 2× request
//! processing at 64–128 players, world update < 5%, sequential
//! saturation between 128 and 144 players); everything else — lock
//! contention, waits, saturation knees for other configurations —
//! emerges from running the actual algorithm.
//!
//! The real-thread fabric ignores the charges: there the code that ran
//! is the cost and `ctx.now()` deltas measure it. The model is a
//! virtual-fabric concept.

use parquake_fabric::Nanos;
use parquake_sim::WorkCounters;

/// Per-operation modelled costs, in nanoseconds.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Per BSP node visited during a collision trace.
    pub trace_step: Nanos,
    /// Per swept/overlap test against a candidate object.
    pub object_test: Nanos,
    /// Per slide-move integration substep.
    pub substep: Nanos,
    /// Per candidate gathered from areanode object lists.
    pub candidate: Nanos,
    /// Per areanode tree node visited.
    pub areanode_visit: Nanos,
    /// Per entity encoded into a reply.
    pub encoded_entity: Nanos,
    /// Per entity examined for visibility.
    pub visibility_check: Nanos,
    /// Per batch interest-matching step (endpoint sort comparison,
    /// merge advance, broad-phase range visit). Cheap relative to a
    /// full visibility check: the sweep touches sorted floats, not
    /// entity snapshots.
    pub interest_step: Nanos,
    /// Per interaction applied (pickup, hit, teleport…).
    pub interaction: Nanos,
    /// Fixed cost of executing one move command (parse, setup).
    pub move_base: Nanos,
    /// Receiving + parsing one datagram (recvfrom syscall).
    pub recv: Nanos,
    /// Forming + sending one reply (sendto syscall).
    pub reply_base: Nanos,
    /// Per byte of reply payload.
    pub reply_byte: Nanos,
    /// Determining the region to lock + the lock library call
    /// (charged under the Lock bucket; the paper attributes region
    /// determination to locking overhead, §4.1).
    pub lock_op: Nanos,
    /// Unlock library call.
    pub unlock_op: Nanos,
    /// Fixed world-update cost per frame.
    pub world_base: Nanos,
    /// Select/wakeup syscall overhead per frame participation.
    pub select_op: Nanos,
    /// Appending one broadcast event to a client's message buffer, as
    /// the paper's server does for every Active client each frame. The
    /// server's event log makes no such copy; the charge models it.
    pub event_append: Nanos,
    /// Per-object synchronization bookkeeping while holding region
    /// locks (claim/ownership tracking; parallel builds only). Grows
    /// with player density, which is what drives the paper's rising
    /// single-thread parallelization overhead (§4.1).
    pub claim_op: Nanos,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            trace_step: 310,
            object_test: 250,
            substep: 1_100,
            candidate: 170,
            areanode_visit: 290,
            encoded_entity: 1_600,
            visibility_check: 200,
            interest_step: 25,
            interaction: 1_500,
            move_base: 11_000,
            recv: 6_000,
            reply_base: 23_000,
            reply_byte: 12,
            lock_op: 1_500,
            unlock_op: 700,
            world_base: 25_000,
            select_op: 3_000,
            event_append: 300,
            claim_op: 700,
        }
    }
}

impl CostModel {
    /// Total modelled time for a batch of simulation work.
    pub fn work_ns(&self, w: &WorkCounters) -> Nanos {
        w.trace_steps * self.trace_step
            + w.object_tests * self.object_test
            + w.substeps * self.substep
            + w.candidates * self.candidate
            + w.areanode_visits * self.areanode_visit
            + w.encoded_entities * self.encoded_entity
            + w.visibility_checks * self.visibility_check
            + w.interest_steps * self.interest_step
            + w.interactions * self.interaction
    }

    /// Scale every constant by `f` (sensitivity studies).
    pub fn scaled(&self, f: f64) -> CostModel {
        let s = |v: Nanos| ((v as f64) * f).round() as Nanos;
        CostModel {
            trace_step: s(self.trace_step),
            object_test: s(self.object_test),
            substep: s(self.substep),
            candidate: s(self.candidate),
            areanode_visit: s(self.areanode_visit),
            encoded_entity: s(self.encoded_entity),
            visibility_check: s(self.visibility_check),
            interest_step: s(self.interest_step),
            interaction: s(self.interaction),
            move_base: s(self.move_base),
            recv: s(self.recv),
            reply_base: s(self.reply_base),
            reply_byte: s(self.reply_byte),
            lock_op: s(self.lock_op),
            unlock_op: s(self.unlock_op),
            world_base: s(self.world_base),
            select_op: s(self.select_op),
            event_append: s(self.event_append),
            claim_op: s(self.claim_op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_ns_sums_components() {
        let cm = CostModel::default();
        let w = WorkCounters {
            trace_steps: 10,
            object_tests: 5,
            ..WorkCounters::new()
        };
        assert_eq!(cm.work_ns(&w), 10 * cm.trace_step + 5 * cm.object_test);
        assert_eq!(cm.work_ns(&WorkCounters::new()), 0);
    }

    #[test]
    fn scaling_is_uniform() {
        let cm = CostModel::default();
        let double = cm.scaled(2.0);
        assert_eq!(double.trace_step, cm.trace_step * 2);
        assert_eq!(double.reply_base, cm.reply_base * 2);
        let w = WorkCounters {
            candidates: 7,
            interactions: 2,
            ..WorkCounters::new()
        };
        assert_eq!(double.work_ns(&w), cm.work_ns(&w) * 2);
    }
}
