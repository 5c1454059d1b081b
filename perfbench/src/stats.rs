//! Order statistics and the paired speedup aggregation the benchmark
//! reports. Pure functions over plain numbers, so the rules the metrics
//! rely on (which percentile counts as the tail, how speedups pair)
//! are unit-tested without running a simulation.

/// Number of samples that must lie strictly beyond a reported tail
/// percentile.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle two for even lengths); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v: Vec<f64> = xs.to_vec();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// A tail latency: the sample value at the highest percentile that
/// still has [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Total samples.
    pub n: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it, or `None` when there are too few samples for any such rank.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: v[rank],
        percentile: 100.0 * (rank + 1) as f64 / n as f64,
        n,
    })
}

/// Geometric mean of per-workload ratios `num / den` over the pairs
/// where both sides exist and are positive; `None` when no pair does.
pub fn paired_geomean(pairs: &[(Option<f64>, Option<f64>)]) -> Option<f64> {
    let logs: Vec<f64> = pairs
        .iter()
        .filter_map(|&(num, den)| match (num, den) {
            (Some(a), Some(b)) if a > 0.0 && b > 0.0 => Some((a / b).ln()),
            _ => None,
        })
        .collect();
    if logs.is_empty() {
        return None;
    }
    Some((logs.iter().sum::<f64>() / logs.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "no rank has ten samples beyond it");
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0, "only the minimum has ten samples beyond");
        assert_eq!(t.n, 11);
        // 100 samples: the 90th value has exactly ten beyond it.
        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).unwrap();
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        let beyond = hundred.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn paired_geomean_pairs_by_workload_and_skips_gaps() {
        // Speedups 2.0 and 0.5 → geomean 1.0; the unpaired and the
        // zero-IPC rows are ignored rather than poisoning the mean.
        let pairs = [
            (Some(2.0), Some(1.0)),
            (Some(1.0), Some(2.0)),
            (Some(3.0), None),
            (Some(0.0), Some(1.0)),
        ];
        assert!((paired_geomean(&pairs).unwrap() - 1.0).abs() < 1e-12);
        let one = [(Some(1.5), Some(1.0))];
        assert!((paired_geomean(&one).unwrap() - 1.5).abs() < 1e-12);
        assert_eq!(paired_geomean(&[(None, Some(1.0))]), None);
    }
}
