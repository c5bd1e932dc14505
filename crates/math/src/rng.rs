//! A tiny deterministic RNG (PCG-XSH-RR 32).
//!
//! Substrate crates need reproducible pseudo-randomness (map generation,
//! bot behaviour, failure injection) without threading a `rand`
//! dependency everywhere. PCG32 is small, fast, statistically solid for
//! workload generation, and — crucially for the reproduction — the same
//! seed always produces the same world and the same bot trajectories on
//! every platform.

/// PCG-XSH-RR 32-bit generator with 64-bit state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// Create from a seed and stream id. Different streams with the same
    /// seed are independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Single-argument constructor on stream 0.
    pub fn seeded(seed: u64) -> Self {
        Pcg32::new(seed, 0)
    }

    /// Next 32 uniformly random bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 uniformly random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform integer in `[0, bound)` via Lemire's multiply-shift with
    /// rejection (unbiased). `bound` must be non-zero.
    pub fn below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u32();
            let m = (x as u64) * (bound as u64);
            let lo = m as u32;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 32) as u32;
            }
        }
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u32() >> 8) as f32 * (1.0 / (1 << 24) as f32)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn range_f32(&mut self, lo: f32, hi: f32) -> f32 {
        lo + self.unit_f32() * (hi - lo)
    }

    /// Bernoulli trial.
    #[inline]
    pub fn chance(&mut self, p: f32) -> bool {
        self.unit_f32() < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u32) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = Pcg32::seeded(42);
        let mut b = Pcg32::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::seeded(1);
        let mut b = Pcg32::seeded(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn different_streams_diverge() {
        let mut a = Pcg32::new(7, 1);
        let mut b = Pcg32::new(7, 2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = Pcg32::seeded(9);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
        }
        // bound 1 is always 0
        assert_eq!(rng.below(1), 0);
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Pcg32::seeded(1234);
        let mut counts = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.below(8) as usize] += 1;
        }
        let expected = n / 8;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as i64 - expected as i64).abs();
            assert!(dev < expected as i64 / 10, "bucket {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn unit_f32_in_range() {
        let mut rng = Pcg32::seeded(5);
        for _ in 0..10_000 {
            let v = rng.unit_f32();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn pick_selects_all_eventually() {
        let mut rng = Pcg32::seeded(8);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[*rng.pick(&items) as usize - 1] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
