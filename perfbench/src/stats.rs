//! Order statistics with sample-count guards, and the output digest.

/// Fewest samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// Samples needed before percentile `p` (0..1) may be reported.
pub fn samples_needed(p: f64) -> usize {
    // The epsilon keeps 10 / (1 - 0.9) at 100 despite rounding.
    (MIN_BEYOND as f64 / (1.0 - p) - 1e-9).ceil() as usize
}

/// Percentile `p` (0..1) of `samples`, interpolated linearly between the
/// two order statistics around rank `p·(n-1)`. Refuses when fewer than
/// [`MIN_BEYOND`] samples lie beyond the percentile.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    let n = samples.len();
    if n < samples_needed(p) {
        return Err(format!(
            "p{:.0} needs {} samples ({} beyond it), got {n}",
            p * 100.0,
            samples_needed(p),
            MIN_BEYOND
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p * (n - 1) as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    let hi = (lo + 1).min(n - 1);
    Ok(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of a sample (mean of the middle pair when even; NaN if empty).
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// FNV-1a over the canonical text of simulated outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `text` (and a separator) into the digest.
    pub fn text(mut self, text: &str) -> Self {
        for b in text.bytes().chain(std::iter::once(0x1f)) {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds an integer into the digest.
    pub fn num(self, n: u64) -> Self {
        self.text(&n.to_string())
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&xs, 0.9).is_err());
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&xs, 0.9).unwrap() - 90.1).abs() < 1e-9);
        assert!((percentile(&xs, 0.5).unwrap() - 50.5).abs() < 1e-9);
        assert!(percentile(&xs[..19], 0.5).is_err());
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_separates_fields() {
        let a = Digest::default().text("ab").text("c").hex();
        let b = Digest::default().text("a").text("bc").hex();
        assert_ne!(a, b);
    }
}
