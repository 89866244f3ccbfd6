//! Order statistics over measured samples.

/// The median of `values` (the mean of the middle pair for an even
/// count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// A tail percentile: the highest percentile of the ladder with at least
/// ten samples beyond it, or the maximum when there are too few samples
/// for any.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Which percentile (100 = the maximum).
    pub percentile: f64,
    /// How many samples it was taken from.
    pub samples: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.percentile >= 100.0 {
            write!(f, "max of n={}", self.samples)
        } else {
            write!(f, "p{} of n={}", self.percentile, self.samples)
        }
    }
}

/// See [`Tail`].
pub fn tail(values: &[f64]) -> Tail {
    const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];
    let n = values.len();
    let percentile =
        LADDER.iter().rev().copied().find(|&p| n.saturating_sub(rank(p, n)) >= 10).unwrap_or(100.0);
    Tail { value: nearest_rank(values, percentile), percentile, samples: n }
}

/// The 1-based nearest rank of `percentile` among `n` samples.
fn rank(percentile: f64, n: usize) -> usize {
    ((percentile * n as f64 / 100.0).ceil() as usize).clamp(1, n.max(1))
}

/// The sample at `percentile` by nearest rank (a sample, never an
/// interpolation); NaN when empty.
pub fn nearest_rank(values: &[f64], percentile: f64) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => f64::NAN,
        n => sorted[rank(percentile, n) - 1],
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// 64-bit FNV-1a, the digest of a run's output files.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred);
        assert_eq!((t.percentile, t.value), (90.0, 90.0));
        let t = tail(&hundred[..15]);
        assert_eq!((t.percentile, t.value), (100.0, 15.0));
    }
}
