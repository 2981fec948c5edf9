//! Order statistics and the binomial acceptance bands the output checks use.

/// Sorted copy of `values` (NaN-free input; NaNs sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median, averaging the two middle values of an even-length sample.
/// Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank quantile `q` in `[0, 1]`. Returns 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Number of samples strictly above the nearest-rank quantile `q`: the
/// evidence a tail percentile rests on (choosing-metrics asks for ≥ 10).
pub fn beyond(n: usize, q: f64) -> usize {
    let rank = (q * n as f64).ceil() as usize;
    n.saturating_sub(rank.clamp(1, n.max(1)))
}

/// z-score of the two-sided acceptance band: a correct program fails one
/// check with probability ~6e-7, so thousands of checks over a benchmark
/// campaign stay quiet while a shifted detector does not.
pub const BAND_Z: f64 = 5.0;

/// Whether `k` successes in `n` trials are consistent with the reference
/// estimate `k_ref / n_ref`.
///
/// The band is `BAND_Z` standard errors of the difference of two binomial
/// proportions, `sqrt(p(1-p)(1/n + 1/n_ref))`, plus a half-count
/// continuity term for the discrete run estimate. `p` is the reference
/// proportion clamped away from 0 and 1 by the rule-of-three bound
/// `3 / n_ref`, so a reference of zero observed events still admits a
/// few. The width follows from the two trial counts alone.
pub fn within_band(k: u64, n: u64, k_ref: u64, n_ref: u64) -> bool {
    if n == 0 || n_ref == 0 {
        return false;
    }
    let p_ref = k_ref as f64 / n_ref as f64;
    let floor = (3.0 / n_ref as f64).min(0.5);
    let p = p_ref.clamp(floor, 1.0 - floor);
    let se = (p * (1.0 - p) * (1.0 / n as f64 + 1.0 / n_ref as f64)).sqrt();
    let p_run = k as f64 / n as f64;
    (p_run - p_ref).abs() <= BAND_Z * se + 0.5 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.9), 90.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(beyond(100, 0.9), 10);
        assert_eq!(beyond(99, 0.9), 9);
    }

    #[test]
    fn band_accepts_the_reference_and_rejects_a_shift() {
        assert!(within_band(500, 1000, 5000, 10_000));
        assert!(!within_band(600, 1000, 5000, 10_000));
        // Zero observed in the reference admits a handful, not hundreds.
        assert!(within_band(1, 1_000_000, 0, 10_000_000));
        assert!(!within_band(200, 1_000_000, 0, 10_000_000));
        // Certain detection in the reference still tolerates one miss.
        assert!(within_band(63, 64, 4096, 4096));
    }
}
