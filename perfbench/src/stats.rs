//! Order statistics over repeats.

/// Median, quartiles and extremes of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarise `xs` (not empty). Quartiles follow Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so the spread
/// printed here is the one a reader recomputes from the printed values.
pub fn spread(xs: &[f64]) -> Spread {
    assert!(!xs.is_empty(), "spread of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let (q1, q3) = if v.len() < 2 {
        (v[0], v[0])
    } else {
        (quantile4(&v, 1), quantile4(&v, 3))
    };
    Spread {
        median: median_sorted(&v),
        q1,
        q3,
        min: v[0],
        max: v[v.len() - 1],
        n: v.len(),
    }
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The `i`-th of the three cut points of `statistics.quantiles(v, n=4)`
/// over sorted `v` with at least two values.
fn quantile4(v: &[f64], i: usize) -> f64 {
    let (n, m) = (4, v.len() + 1);
    let j = (i * m / n).clamp(1, v.len() - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
}

/// The value at rank `q` (0..=1) of `xs` by nearest rank, for the per-sim
/// host-time percentiles.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&xs);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (s.q1, s.median, s.q3, s.min, s.max),
            (1.0, 2.0, 3.0, 1.0, 3.0)
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = spread(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.95), 95.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }
}
