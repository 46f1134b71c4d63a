//! Order statistics over host-time samples and the digest of simulated
//! statistics.

/// Median of `xs` (0.0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile that still has at least ten samples beyond
/// it, capped at p90: `(percentile, value, samples beyond)`. With fewer
/// than 11 samples no such percentile exists; the maximum is returned
/// with the true count beyond it (zero) so the caller can say so.
pub fn tail(xs: &[f64]) -> (u32, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0, 0.0, 0);
    }
    for p in (50..=90).rev() {
        // Nearest-rank percentile: the sample at rank ceil(p/100 * n).
        let rank = (p * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            return (p as u32, v[rank - 1], n - rank);
        }
    }
    (100, v[n - 1], 0)
}

/// FNV-1a over the bytes of every simulated statistic a round produces.
/// Floats enter by their bit patterns, so a digest match means every
/// statistic is bit-identical.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), (90, 180.0, 20));
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (p, v, beyond) = tail(&xs);
        assert_eq!((p, beyond), (75, 10));
        assert_eq!(v, 30.0);
        assert_eq!(tail(&[1.0, 2.0]).2, 0);
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::new();
        a.f64(1.0);
        let mut b = Digest::new();
        b.f64(f64::from_bits(1.0f64.to_bits() + 1));
        assert_ne!(a.finish(), b.finish());
    }
}
