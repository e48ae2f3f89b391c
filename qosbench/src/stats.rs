//! Sample summaries and the wall clock.
//!
//! Every wall-clock read of the benchmark goes through [`Stopwatch`], so
//! the one sanctioned clock is in this file.

// qoslint::allow-file(wall-clock, the benchmark measures host time by design; simulated time never reads this clock)
use std::time::Instant;

/// A running wall-clock timer.
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }

    /// Nanoseconds since [`Stopwatch::start`].
    pub fn nanos(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Time one call, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.secs())
}

/// Time one call, returning its result and the elapsed nanoseconds.
pub fn timed_ns<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.nanos())
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation between
/// closest ranks; 0 for an empty slice.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The smallest of `xs`; 0 for an empty slice.
pub fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Element-wise [`fastest`] over repetitions of the same timed units:
/// unit `i` gets the smallest time any repetition measured for it.
pub fn fastest_units(reps: &[Vec<f64>]) -> Vec<f64> {
    let mut out = reps.first().cloned().unwrap_or_default();
    for rep in &reps[1.min(reps.len())..] {
        for (best, &t) in out.iter_mut().zip(rep) {
            *best = best.min(t);
        }
    }
    out
}

/// The highest percentile of `n` samples that still has at least ten
/// samples above it (as a fraction, e.g. 0.99 for n = 1000), or `None`
/// when there are too few samples for any tail percentile.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    // Whole tenths of a percent, rounded down.
    let p = ((1.0 - 10.0 / n as f64) * 1000.0).floor() / 1000.0;
    Some(p)
}

/// A one-line summary: median, the tail percentile the sample count
/// supports, and the count.
pub fn describe(xs: &[f64], unit: &str) -> String {
    let n = xs.len();
    let mut s = format!("median {:.4} {unit}", median(xs));
    if let Some(p) = tail_percentile(n) {
        s.push_str(&format!(", p{} {:.4} {unit}", p * 100.0, quantile(xs, p)));
    }
    s.push_str(&format!(" (n={n})"));
    s
}

/// FNV-1a 64-bit digest, folded over successive byte strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold `bytes` into the digest.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(2000), Some(0.995));
        for n in [20, 37, 100, 999, 1000, 4321] {
            let p = tail_percentile(n).expect("enough samples");
            assert!((1.0 - p) * n as f64 >= 10.0 - 1e-9, "n={n} p={p}");
        }
    }

    #[test]
    fn fastest_units_takes_each_units_minimum() {
        let reps = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 5.5],
            vec![2.5, 1.5, 4.0],
        ];
        assert_eq!(fastest_units(&reps), vec![2.0, 1.0, 4.0]);
        assert_eq!(fastest(&[3.0, 2.0, 9.0]), 2.0);
        assert!(fastest_units(&[]).is_empty());
    }

    #[test]
    fn digest_depends_on_every_byte() {
        let mut a = Digest::default();
        a.update(b"ledger");
        let mut b = Digest::default();
        b.update(b"ledgeR");
        assert_ne!(a, b);
    }
}
