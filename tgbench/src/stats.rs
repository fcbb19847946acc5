//! Summary statistics over per-sample measurements.

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between the
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples strictly above the p90 — the percentile is reported as a tail
/// only when at least ten samples lie beyond it.
pub fn beyond_p90(values: &[f64]) -> usize {
    let p = quantile(values, 0.9);
    values.iter().filter(|&&v| v > p).count()
}

/// The geometric mean (of ratios or of per-job times, so every job
/// weighs the same whatever its scale); `NaN` for an empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Element-wise `num[i] / den[i]` of paired measurements.
pub fn paired_ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    assert_eq!(num.len(), den.len(), "paired samples must have equal counts");
    num.iter().zip(den).map(|(n, d)| n / d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!((quantile(&v, 0.25), quantile(&v, 0.75)), (1.75, 3.25));
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn p90_tail_needs_about_a_hundred_samples() {
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(beyond_p90(&v), 10);
        let v: Vec<f64> = (0..91).map(f64::from).collect();
        assert_eq!(beyond_p90(&v), 9);
        // ties at the percentile are not beyond it
        assert_eq!(beyond_p90(&[1.0; 200]), 0);
    }

    #[test]
    fn geomean_weighs_scales_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn paired_ratios_divide_element_wise() {
        assert_eq!(paired_ratios(&[2.0, 9.0], &[1.0, 3.0]), vec![2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "equal counts")]
    fn unpaired_samples_are_a_bug() {
        paired_ratios(&[1.0], &[]);
    }
}
