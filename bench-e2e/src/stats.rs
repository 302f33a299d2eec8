//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending slice; `q` in `[0, 1]`.
/// Returns `NaN` for an empty slice so a missing sample cannot pass for 0.
pub fn pct(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending.
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut out: Vec<f64> = values.into_iter().collect();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of unsorted values.
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    pct(&sorted(values), 0.5)
}

/// Arithmetic mean (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v = sorted((1..=100).map(f64::from));
        assert_eq!(pct(&v, 0.5), 50.0);
        assert_eq!(pct(&v, 0.99), 99.0);
        assert_eq!(pct(&v, 1.0), 100.0);
        assert_eq!(pct(&v, 0.0), 1.0);
        assert!(pct(&[], 0.5).is_nan());
    }
}
