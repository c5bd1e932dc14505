//! Batch interest matching for `parquake`.
//!
//! The original server scopes each reply with a per-client scan over
//! every entity (`parquake_sim::visibility`) — O(players × entities)
//! per frame, the measured saturation driver. This crate replaces the
//! scan with region-to-region matching in the sense of the DDM
//! literature (Marzolla et al.): a viewer's subscription region is the
//! set of rooms its room sees (the map's PVS), an entity's update
//! region is the room it stands in. Once per frame the server refreshes
//! one shared [`EntityIndex`] (active entities in id order, bucketed
//! by room; only the entities written since the last frame are
//! re-snapshotted); [`match_viewers`] then groups the
//! viewers by room, gathers one candidate list per *occupied* room
//! from the buckets its PVS row names, and runs the scan's own
//! self-skip, distance cut and nearest-first truncation over that
//! list for each viewer standing there. The room gate is the scan's,
//! applied to whole rooms instead of pairs, so the output is
//! byte-identical to the scan — provable on demand via
//! [`InterestMode::SweepOracle`], which shadows every reply with an
//! uncharged brute-force scan and every index refresh with an uncharged
//! from-scratch build, and counts mismatches of each (zero expected,
//! asserted in tests and the `interestsweep` figure).
//!
//! "Sweep" names this batch matcher throughout (mode, flag value,
//! figure); the flag value is what command lines and CI already pass.
//!
//! The matcher parallelizes trivially: the index is refreshed once (by
//! the thread releasing the intra-frame barrier, in the parallel server)
//! and each worker matches only the viewers it owns.

pub mod index;
pub mod oracle;
pub mod sweep;

pub use index::EntityIndex;
pub use sweep::{match_viewers, InterestFrame};

/// How reply scoping is computed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum InterestMode {
    /// The original per-client O(entities) scan (`visibility.rs`).
    #[default]
    Scan,
    /// Batch room-to-room matching: one shared index per frame, one
    /// candidate list per occupied room, a short walk per client.
    Sweep,
    /// Sweep, plus an uncharged brute-force scan shadowing every reply
    /// and an uncharged from-scratch index build shadowing every
    /// refresh, counting mismatches (zero expected). Charges exactly
    /// what `Sweep` charges, so runs are schedule-identical to `Sweep`.
    SweepOracle,
}

impl InterestMode {
    /// Does this mode build and consume the shared index?
    #[inline]
    pub fn uses_sweep(&self) -> bool {
        !matches!(self, InterestMode::Scan)
    }

    /// Does this mode shadow replies with the brute-force oracle?
    #[inline]
    pub fn oracle(&self) -> bool {
        matches!(self, InterestMode::SweepOracle)
    }

    /// Parse a command-line flag value.
    pub fn from_flag(s: &str) -> Option<InterestMode> {
        match s {
            "scan" => Some(InterestMode::Scan),
            "sweep" => Some(InterestMode::Sweep),
            "sweep-oracle" => Some(InterestMode::SweepOracle),
            _ => None,
        }
    }

    /// Human-readable label (figure tables, udpd banner).
    pub fn label(&self) -> &'static str {
        match self {
            InterestMode::Scan => "scan",
            InterestMode::Sweep => "sweep",
            InterestMode::SweepOracle => "sweep-oracle",
        }
    }
}

/// Matching counters published when a run ends.
///
/// `pairs_tested` and `pairs_skipped` are accumulated per viewer from
/// the size of its room's candidate list — the entities the matcher
/// walked for that viewer (its own included) and the indexed entities
/// it never touched because their room is outside the viewer's PVS —
/// while `pairs_total` is counted up front as viewers × indexed
/// entities. The identity below therefore cross-checks that the
/// matcher accounted for every (viewer, entity) pair exactly once; a
/// viewer dropped from its room group, or a candidate list that is not
/// a subset of the index, cannot close it.
// lockcheck: identity(pairs_tested + pairs_skipped == pairs_total)
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InterestStats {
    /// Entity index refreshes: frames in which at least one client is
    /// owed a reply (connect-only, ack-only and maintenance frames
    /// refresh none).
    pub frames: u64,
    /// Viewers matched (Σ per match pass).
    pub viewers: u64,
    /// Active entities indexed (Σ per match pass).
    pub entities: u64,
    /// Candidate pairs in play: Σ viewers × indexed entities.
    pub pairs_total: u64,
    /// Pairs examined entity-to-entity: Σ over viewers of the
    /// candidate list of the viewer's room (the viewer's own entity
    /// included).
    pub pairs_tested: u64,
    /// Pairs disposed of room-to-room: indexed entities standing in
    /// rooms the viewer's room does not see.
    pub pairs_skipped: u64,
    /// Replies shadowed by the brute-force oracle.
    pub oracle_checked: u64,
    /// Oracle comparisons where sweep and scan disagreed (zero
    /// expected).
    pub oracle_mismatches: u64,
    /// Refreshed indexes the oracle found different from an index built
    /// from scratch off the same world (zero expected).
    pub index_mismatches: u64,
}

impl InterestStats {
    pub fn merge(&mut self, o: &InterestStats) {
        self.frames += o.frames;
        self.viewers += o.viewers;
        self.entities += o.entities;
        self.pairs_total += o.pairs_total;
        self.pairs_tested += o.pairs_tested;
        self.pairs_skipped += o.pairs_skipped;
        self.oracle_checked += o.oracle_checked;
        self.oracle_mismatches += o.oracle_mismatches;
        self.index_mismatches += o.index_mismatches;
    }

    /// The pair-accounting identity: every candidate pair was either
    /// examined entity-to-entity or skipped room-to-room.
    pub fn pairs_closed(&self) -> bool {
        self.pairs_tested + self.pairs_skipped == self.pairs_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_flags_round_trip() {
        for mode in [
            InterestMode::Scan,
            InterestMode::Sweep,
            InterestMode::SweepOracle,
        ] {
            assert_eq!(InterestMode::from_flag(mode.label()), Some(mode));
        }
        assert_eq!(InterestMode::from_flag("bogus"), None);
        assert!(!InterestMode::Scan.uses_sweep());
        assert!(InterestMode::Sweep.uses_sweep());
        assert!(InterestMode::SweepOracle.oracle());
        assert!(!InterestMode::Sweep.oracle());
    }

    #[test]
    fn pair_identity_closes_only_when_books_balance() {
        let closed = InterestStats {
            pairs_total: 100,
            pairs_tested: 30,
            pairs_skipped: 70,
            ..InterestStats::default()
        };
        assert!(closed.pairs_closed());
        let drifted = InterestStats {
            pairs_total: 100,
            pairs_tested: 30,
            pairs_skipped: 60,
            ..InterestStats::default()
        };
        assert!(!drifted.pairs_closed());
    }

    #[test]
    fn merge_sums_every_counter() {
        let mut a = InterestStats {
            frames: 1,
            viewers: 2,
            entities: 3,
            pairs_total: 6,
            pairs_tested: 2,
            pairs_skipped: 4,
            oracle_checked: 1,
            oracle_mismatches: 0,
            index_mismatches: 1,
        };
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.frames, 2);
        assert_eq!(a.index_mismatches, 2);
        assert_eq!(a.pairs_total, 12);
        assert!(a.pairs_closed());
    }
}
