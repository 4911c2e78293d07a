//! Order statistics for the reported metrics.
//!
//! [`quartiles`] follows Python's `statistics.quantiles(values, n=4)` (the
//! default exclusive method), because that is what the driver uses to judge
//! run-to-run spread; using the same rule here keeps `--selfcheck` and the
//! driver in agreement.

/// Sorts ascending; NaNs (never produced by the harness) would sort last.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// `(q1, median, q3)` by the exclusive method: the `i`-th cut point of `n`
/// sorted values sits at position `i·(n+1)/4` (1-based), interpolated
/// linearly between its neighbours (extrapolated past the ends of a tiny
/// sample, as Python does). A single value is its own quartiles; `None`
/// for an empty sample.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    if n == 1 {
        return Some((v[0], v[0], v[0]));
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(2), cut(3)))
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) by linear interpolation between
/// the closest ranks; `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, med, q3) = quartiles(&ten).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (med - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        // The middle cut is the plain median, for even samples too.
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]).unwrap().1, 2.5);
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), Some(10.0));
        assert_eq!(percentile(&v, 50.0), Some(30.0));
        assert_eq!(percentile(&v, 100.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(46.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
