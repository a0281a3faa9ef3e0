//! Order statistics over timing samples.

/// Nearest-rank quantile of `xs` (`q` in 0..=1); 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median (nearest-rank).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive values; 0 for none.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A timing summary: median, p99, the quartile spread as a share of
/// the median, and the sample count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub median: f64,
    pub p99: f64,
    pub iqr_frac: f64,
    pub samples: usize,
}

impl Summary {
    /// Summarises `xs`.
    pub fn of(xs: &[f64]) -> Self {
        let median = median(xs);
        let iqr = quantile(xs, 0.75) - quantile(xs, 0.25);
        Summary {
            median,
            p99: quantile(xs, 0.99),
            iqr_frac: if median > 0.0 { iqr / median } else { 0.0 },
            samples: xs.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
