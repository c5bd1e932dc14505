//! Robust estimators: nearest-rank percentiles, the quiet level across
//! slices used for every timing and cost metric, and median + MAD for
//! the kernel timings.

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=1).
pub fn percentile_sorted<T: Copy>(sorted: &[T], p: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Percentile of unsorted samples (sorts a copy).
pub fn percentile(samples: &[u32], p: f64) -> Option<u32> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile_sorted(&v, p)
}

/// Median of floats (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median and median absolute deviation.
pub fn median_mad(values: &[f64]) -> Option<(f64, f64)> {
    let med = median(values)?;
    let dev: Vec<f64> = values.iter().map(|v| (v - med).abs()).collect();
    Some((med, median(&dev)?))
}

/// Quantile `q` (0..=1) of floats, linearly interpolated between the
/// two nearest ranks.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Where across the slices of a window a "lower is better" timing or
/// cost is read: its 5th percentile.
///
/// What a shared host does to a slice is one-sided: a preempted frame,
/// a stalled vCPU or a neighbour thrashing the memory system only ever
/// make it slower, by a factor that drifts between 1 and 1.5 over
/// minutes. The median across slices follows that drift; the 5th
/// percentile is set by the slices the host disturbed least (42 of a
/// run's 833), which is the nearest a run gets to what the code costs.
/// A change to the program moves every slice, so it moves the 5th
/// percentile as it moves the median. (Ten differently seeded runs in
/// a noisy hour, spread of the value read at the lower quartile /
/// decile / 5th percentile across one-tick slices: `locks_2t_256p` RTT
/// p50 13 % / 9 % / 4 %, `dense_burst_384p` CPU per move 8 % / 4 % / 3 %.)
pub const QUIET_QUANTILE: f64 = 0.05;

/// The quiet level of per-slice values (see [`QUIET_QUANTILE`]). One
/// slice hit by a scheduler hiccup moves one value, not the metric.
pub fn quiet_level(per_slice: &[f64]) -> Option<f64> {
    quantile(per_slice, QUIET_QUANTILE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_exact_on_a_known_sample() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), Some(50));
        assert_eq!(percentile_sorted(&v, 0.99), Some(99));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100));
        assert_eq!(percentile_sorted(&v, 0.0), Some(1));
        assert_eq!(percentile_sorted::<u32>(&[], 0.5), None);
        // Unsorted input goes through `percentile`.
        assert_eq!(percentile(&[9, 1, 5], 0.5), Some(5));
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.25), Some(25.0));
        assert_eq!(quantile(&v, 0.0), Some(0.0));
        assert_eq!(quantile(&v, 1.0), Some(100.0));
        assert_eq!(quantile(&[1.0, 2.0], 0.25), Some(1.25));
        assert_eq!(quantile(&[7.0], 0.25), Some(7.0));
        assert_eq!(quantile(&[], 0.25), None);
    }

    #[test]
    fn poisoned_slices_do_not_move_the_quiet_level() {
        // 100 slices at 100..200; a noisy host slows a third of them
        // tenfold. The quiet level stays among the untouched slices.
        let clean: Vec<f64> = (0..100).map(|i| 100.0 + i as f64).collect();
        let base = quiet_level(&clean).unwrap();
        let mut noisy = clean.clone();
        for v in noisy.iter_mut().skip(60).take(33) {
            *v *= 10.0;
        }
        let level = quiet_level(&noisy).unwrap();
        assert!((level - base).abs() <= 5.0, "{base} -> {level}");
        // A change to the program moves every slice, and the level.
        let slower: Vec<f64> = clean.iter().map(|v| v * 1.2).collect();
        assert!((quiet_level(&slower).unwrap() / base - 1.2).abs() < 1e-9);
    }

    #[test]
    fn median_and_mad() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let (med, mad) = median_mad(&[1.0, 2.0, 3.0, 4.0, 100.0]).unwrap();
        assert_eq!((med, mad), (3.0, 1.0));
    }
}
