//! Summary statistics for the benchmark's samples.
//!
//! Every gated number is a robust summary of many short samples: a
//! median, a quantile, a tail percentile chosen so it always has at
//! least [`TAIL_BEYOND`] samples beyond it, a geometric mean of per-key
//! summaries, or a quantile of per-window rates. None of them pools
//! samples of different programs into one distribution.

/// The tail percentile keeps at least this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// Samples per window of [`windowed_tail`]: each window's tail sits at
/// p95.
pub const TAIL_WINDOW: usize = 200;

/// The quantile every "typical" figure is taken at: latency at p75,
/// and the request rate three windows in four sustain. Interpreter
/// speed on a shared host jumps between two levels (see `README.md`);
/// the median sits wherever the two happen to split a run, while p75
/// stays within the slower, prevailing one.
pub const TYPICAL_Q: f64 = 0.75;

/// Nearest-rank quantile: the smallest value with at least a share `q`
/// of `values` at or below it. `None` for no values or `q` outside
/// (0, 1].
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median of `values` (mean of the two middle values for an even
/// count). `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The tail of `values`: the value at the highest percentile that
/// still has [`TAIL_BEYOND`] samples above it, i.e. the
/// `TAIL_BEYOND + 1`-th largest sample. Returns that value and the
/// percentile it sits at. `None` when there are not enough samples for
/// any tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND - 1;
    Some((v[rank], 100.0 * (n - TAIL_BEYOND) as f64 / n as f64))
}

/// Tail of a time-ordered series, window by window: the series is cut
/// into consecutive windows of `per_window` samples (a trailing partial
/// window is dropped), each window's [`tail`] is taken, and the result
/// is their median. A host burst then raises only the tails of the
/// windows it overlaps, where a whole-run tail would be the burst
/// itself. A series shorter than one window gives its own [`tail`].
pub fn windowed_tail(series: &[f64], per_window: usize) -> Option<f64> {
    let tails: Vec<f64> = series
        .chunks_exact(per_window.max(TAIL_BEYOND + 1))
        .filter_map(|w| tail(w).map(|t| t.0))
        .collect();
    if tails.is_empty() {
        tail(series).map(|t| t.0)
    } else {
        median(&tails)
    }
}

/// Geometric mean of positive `values`. `None` for no values or any
/// value that is not strictly positive.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|x| x.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

/// Completion rates of a closed-loop stream, one per window.
///
/// `marks` holds `(seconds since start, requests completed so far)`
/// after each unit of work (a round or a batch), in order. The stream
/// is cut into consecutive windows of `per_window` units (a trailing
/// partial window is dropped); each window's rate is its requests over
/// its wall time. A host burst then spoils only the windows it
/// overlaps, instead of the whole run's total-over-total rate.
pub fn window_rates(marks: &[(f64, u64)], per_window: usize) -> Vec<f64> {
    let per_window = per_window.max(1);
    let mut rates = Vec::new();
    let mut start = (0.0, 0u64);
    for chunk in marks.chunks_exact(per_window) {
        let end = chunk[per_window - 1];
        let secs = end.0 - start.0;
        if secs > 0.0 {
            rates.push((end.1 - start.1) as f64 / secs);
        }
        start = end;
    }
    rates
}

/// Deterministic 64-bit generator (SplitMix64) for seeded inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator whose whole sequence is a function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // 100 samples: the 11th largest (90) has exactly 10 above it.
        let (value, pct) = tail(&v).expect("enough samples");
        assert_eq!(value, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        assert!((pct - 90.0).abs() < 1e-9);
        // 1000 samples: the tail sits at p99.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let (value, pct) = tail(&v).expect("enough samples");
        assert_eq!(value, 990.0);
        assert!((pct - 99.0).abs() < 1e-9);
        // Too few samples for any tail.
        assert_eq!(tail(&[1.0; 10]), None);
        assert!(tail(&[1.0; 11]).is_some());
    }

    #[test]
    fn windowed_tail_ignores_one_burst() {
        // Four windows of 20 samples; one window holds a burst of 15
        // slow samples, which owns the whole-series tail.
        let mut series: Vec<f64> = (0..80).map(|i| f64::from(i % 20)).collect();
        for x in &mut series[20..35] {
            *x = 1000.0;
        }
        assert_eq!(tail(&series).map(|t| t.0), Some(1000.0));
        // Per window the 11th largest: 9, 1000, 9, 9 → median 9.
        assert_eq!(windowed_tail(&series, 20), Some(9.0));
        // Shorter than one window: the plain tail.
        assert_eq!(
            windowed_tail(&series[..15], 20),
            tail(&series[..15]).map(|t| t.0)
        );
        assert_eq!(windowed_tail(&series[..5], 20), None);
    }

    #[test]
    fn geomean_of_ratios_and_rejects_non_positive() {
        let g = geomean(&[1.0, 4.0, 16.0]).expect("positive");
        assert!((g - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(geomean(&[1.0, -2.0]), None);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=8).rev().map(f64::from).collect();
        assert_eq!(quantile(&v, 0.75), Some(6.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&v, 1.0), Some(8.0));
        assert_eq!(quantile(&v, 0.01), Some(1.0));
        assert_eq!(quantile(&v, 0.0), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn window_rates_split_a_stall_from_the_rest() {
        // Ten requests per unit; units take 1 s except one 10 s stall.
        let mut marks = Vec::new();
        let (mut t, mut done) = (0.0, 0u64);
        for unit in 0..9 {
            t += if unit == 4 { 10.0 } else { 1.0 };
            done += 10;
            marks.push((t, done));
        }
        // Windows of one unit: only the stalled window is slow.
        let rates = window_rates(&marks, 1);
        assert_eq!(rates.len(), 9);
        assert_eq!(rates.iter().filter(|&&r| r == 10.0).count(), 8);
        assert_eq!(quantile(&rates, 0.25), Some(10.0));
        // Windows of four units: the trailing ninth unit is dropped.
        assert_eq!(window_rates(&marks, 4), vec![10.0, 40.0 / 13.0]);
        assert!(window_rates(&marks[..2], 3).is_empty());
        // The total-over-total rate the stall would have produced.
        assert!(90.0 / t < 6.0);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let (mut a, mut b, mut c) = (Rng::new(7), Rng::new(7), Rng::new(8));
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..4).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..4).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        let mut v: Vec<u32> = (0..20).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
