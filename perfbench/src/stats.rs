//! Order statistics over measured samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation
/// between closest ranks; `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Empirical scaling exponent between two sizes: `t ∝ size^exp`.
pub fn scaling_exponent(small_s: f64, large_s: f64, size_ratio: f64) -> f64 {
    if small_s <= 0.0 || large_s <= 0.0 || size_ratio <= 1.0 {
        return 0.0;
    }
    (large_s / small_s).ln() / size_ratio.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn linear_work_has_exponent_one() {
        assert!((scaling_exponent(1.0, 4.0, 4.0) - 1.0).abs() < 1e-12);
        assert!((scaling_exponent(1.0, 16.0, 4.0) - 2.0).abs() < 1e-12);
    }
}
