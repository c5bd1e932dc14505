//! Per-arena checkpoint ring: periodic world + slot-table snapshots.
//!
//! Supervision's recovery path restores a crashed or condemned arena
//! from its most recent checkpoint ([`CheckpointRing::latest`]). The
//! ring keeps the last `depth` checkpoints so a corrupt newest entry
//! (in principle — the codec validates fully before mutating) still
//! leaves older restore points; depth 1 is a plain double-buffer.
//!
//! A checkpoint is taken by whichever pool worker owns the arena's
//! claim, between frames — never mid-frame — so the world and the slot
//! table are mutually consistent by construction: `world` is the exact
//! byte image [`parquake_sim::GameWorld::snapshot_bytes`] produced at
//! `frame_no`, and `slots` holds the session capsule
//! ([`parquake_server::runtime::SlotSnapshot`]) of every occupied slot
//! at the same instant.

use std::collections::VecDeque;

use parquake_fabric::Nanos;
use parquake_server::runtime::SlotSnapshot;

/// One consistent restore point for one arena.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// The arena frame counter at snapshot time (restored so frame
    /// cadence — checkpoint intervals, region-affine periods — resumes
    /// where the checkpoint left off).
    pub frame_no: u32,
    /// Fabric time the checkpoint was taken.
    pub taken_at: Nanos,
    /// `GameWorld::snapshot_bytes` image.
    pub world: Vec<u8>,
    /// Session capsules (occupied slots only).
    pub slots: Vec<SlotSnapshot>,
}

/// A bounded ring of [`Checkpoint`]s, newest last.
#[derive(Debug)]
pub struct CheckpointRing {
    ring: VecDeque<Checkpoint>,
    depth: usize,
    /// Checkpoints ever taken (not just retained).
    pub taken: u64,
    /// Total serialized world bytes ever written (cost accounting).
    pub bytes: u64,
}

impl CheckpointRing {
    /// A ring retaining the last `depth` checkpoints (min 1).
    pub fn new(depth: usize) -> CheckpointRing {
        CheckpointRing {
            ring: VecDeque::new(),
            depth: depth.max(1),
            taken: 0,
            bytes: 0,
        }
    }

    /// Record a checkpoint, evicting the oldest past `depth`.
    pub fn push(&mut self, cp: Checkpoint) {
        self.taken += 1;
        self.bytes += cp.world.len() as u64;
        if self.ring.len() == self.depth {
            self.ring.pop_front();
        }
        self.ring.push_back(cp);
    }

    /// Drop every retained checkpoint; `taken` and `bytes` stay
    /// cumulative.
    pub fn clear(&mut self) {
        self.ring.clear();
    }

    /// The newest checkpoint — the restore point.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.ring.back()
    }

    /// Checkpoints currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True before the first checkpoint lands.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cp(frame_no: u32, bytes: usize) -> Checkpoint {
        Checkpoint {
            frame_no,
            taken_at: frame_no as Nanos * 1_000,
            world: vec![0u8; bytes],
            slots: Vec::new(),
        }
    }

    #[test]
    fn ring_retains_depth_newest_wins() {
        let mut r = CheckpointRing::new(2);
        assert!(r.is_empty());
        assert!(r.latest().is_none());
        r.push(cp(1, 10));
        r.push(cp(2, 20));
        r.push(cp(3, 30));
        assert_eq!(r.len(), 2);
        assert_eq!(r.latest().unwrap().frame_no, 3);
        assert_eq!(r.taken, 3);
        assert_eq!(r.bytes, 60);
        // A reap drops the restore points, not the cumulative counts.
        r.clear();
        assert!(r.is_empty());
        assert_eq!((r.taken, r.bytes), (3, 60));
    }

    #[test]
    fn depth_zero_clamps_to_one() {
        let mut r = CheckpointRing::new(0);
        r.push(cp(1, 1));
        r.push(cp(2, 1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.latest().unwrap().frame_no, 2);
    }
}
