//! Order statistics for the report: percentiles by the nearest-rank
//! method, quartiles as Python's `statistics.quantiles(v, n=4)` computes
//! them (the rule the acceptance check uses), and the median absolute
//! deviation.

/// Sorted copy of `values` with NaNs dropped.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("NaNs were filtered out"));
    v
}

/// Nearest-rank percentile, `p` in `[0, 100]`: the smallest sample with at
/// least `p` % of the samples at or below it. `None` for an empty input.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> Option<f64> {
    let m = median(values)?;
    let dev: Vec<f64> = values.iter().map(|x| (x - m).abs()).collect();
    median(&dev)
}

/// Median, quartiles, MAD and count of one set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
}

/// Summarise `values`; a single sample is its own quartiles.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let median = median(values)?;
    let (q1, q3) = quartiles(values).unwrap_or((median, median));
    Some(Summary {
        n: sorted(values).len(),
        median,
        q1,
        q3,
        mad: mad(values)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 95.0), Some(10.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        // 200 samples leave exactly ten beyond the p95 sample.
        let w: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), Some(190.0));
    }

    #[test]
    fn percentile_ignores_order_and_nans() {
        assert_eq!(percentile(&[3.0, f64::NAN, 1.0, 2.0], 50.0), Some(2.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn mad_ignores_an_outlier() {
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), Some(1.0));
        assert_eq!(mad(&[]), None);
    }

    #[test]
    fn summary_of_one_sample() {
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3, s.mad), (1, 7.0, 7.0, 7.0, 0.0));
    }
}
