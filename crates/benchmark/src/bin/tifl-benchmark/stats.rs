//! Order statistics for timing samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of `samples` (any
/// order). Returns 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest percentile of [`REPORTABLE`] that still has at least
/// ten samples beyond it in a sample of size `n` — the tail a timing
/// may honestly be reported at. `None` below twenty samples (not even
/// the median has ten beyond it).
pub fn highest_percentile(n: usize) -> Option<u32> {
    REPORTABLE
        .iter()
        .rev()
        .copied()
        .find(|&p| n as f64 * f64::from(100 - p) / 100.0 >= 10.0)
}

/// Percentiles a report may name, ascending.
pub const REPORTABLE: [u32; 5] = [50, 75, 90, 95, 99];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quantile_interpolates_and_clamps() {
        let xs: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.9), 90.0);
        assert_eq!(quantile(&xs, 0.0), 0.0);
        assert_eq!(quantile(&xs, 2.0), 100.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50));
        assert_eq!(highest_percentile(40), Some(75));
        assert_eq!(highest_percentile(99), Some(75));
        assert_eq!(highest_percentile(100), Some(90));
        assert_eq!(highest_percentile(200), Some(95));
        assert_eq!(highest_percentile(999), Some(95));
        assert_eq!(highest_percentile(1000), Some(99));
    }
}
