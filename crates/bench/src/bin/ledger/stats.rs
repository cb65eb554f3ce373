//! Order statistics for the ledger: medians over segments, latency
//! percentiles over samples, and the quartile spread the acceptance rule
//! is written in (`statistics.quantiles(values, n=4)` of Python, so the
//! ledger's `--repeat` verdict and an outside driver's agree).

/// Sorts a sample in place (NaN-free by construction: every sample is a
/// measured duration or a count).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Median of an unsorted sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    percentile_sorted(&sorted, 0.5)
}

/// The `q`-quantile (0..=1) of a **sorted** sample by linear
/// interpolation between closest ranks; 0 for an empty sample.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them. Needs at least two values; with fewer, all three are
/// the single value (or 0).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    sort(&mut data);
    let m = data.len();
    if m < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let n = 4usize;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    out
}

/// Inter-quartile distance as a share of the median (0 when the median
/// is 0): the run-to-run spread a bound is compared against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        // The segment median ignores one outlying segment entirely.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 5.0]), 100.0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let sorted: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile_sorted(&sorted, 0.0), 1.0);
        assert_eq!(percentile_sorted(&sorted, 0.5), 51.0);
        assert_eq!(percentile_sorted(&sorted, 0.95), 96.0);
        assert_eq!(percentile_sorted(&sorted, 1.0), 101.0);
        assert_eq!(percentile_sorted(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(percentile_sorted(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), [15.0, 30.0, 45.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(spread(&v), 1.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
