//! Order statistics for the benchmark's timings.

/// How many samples must lie beyond a reported percentile (choosing-metrics
/// §1: "the highest percentile that has at least ten samples beyond it").
pub const MIN_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); 0 when
/// `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-th percentile (nearest rank), lowered as far as needed — but not
/// below the median — for [`MIN_BEYOND`] samples to lie beyond it.  Returns
/// the value and the percentile actually reported.
pub fn tail_percentile(values: &[f64], p: f64) -> (f64, f64) {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return (0.0, p);
    }
    let wanted = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let highest_allowed = n.saturating_sub(MIN_BEYOND + 1);
    let rank = wanted.min(highest_allowed).max((n - 1) / 2);
    let reported = if rank == wanted {
        p
    } else {
        100.0 * (rank + 1) as f64 / n as f64
    };
    (v[rank], reported)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 950 has 50 beyond it, so p95 is reported as is.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&many, 95.0), (950.0, 95.0));
        // 100 samples: p95 would leave only 5 beyond; rank 89 leaves 10.
        let some: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&some, 95.0), (90.0, 90.0));
        // 12 samples: never below the median.
        let few: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail_percentile(&few, 95.0).0, 6.0);
    }
}
