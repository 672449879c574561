//! Order statistics the benchmark reports: nearest-rank quantiles, the
//! highest standard percentile a sample can support, and medians.

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it. `q` is clamped to
/// `[0, 1]`; an empty sample has no quantile.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// The percentiles a tail latency is reported at, highest first.
const TAIL_CANDIDATES: [f64; 3] = [0.99, 0.9, 0.5];

/// The highest of p99, p90 and p50 whose nearest-rank position leaves at
/// least ten samples strictly above it, so the figure rests on more than
/// a handful of outliers. `None` below twenty samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_CANDIDATES.into_iter().find(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        rank >= 1 && n - rank.min(n) >= 10
    })
}

/// Summary of one latency sample: median, tail (see [`supported_tail`];
/// the maximum when fewer than twenty samples support no percentile),
/// the percentile the tail was taken at (1.0 for the maximum), and the
/// sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub tail: f64,
    pub tail_q: f64,
    pub n: usize,
}

/// Summarises an unsorted sample; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let median = nearest_rank(&sorted, 0.5)?;
    let (tail, tail_q) = match supported_tail(sorted.len()) {
        Some(q) => (nearest_rank(&sorted, q)?, q),
        None => (*sorted.last()?, 1.0),
    };
    Some(Summary {
        median,
        tail,
        tail_q,
        n: sorted.len(),
    })
}

/// Nearest-rank quantile of an unsorted sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, q)
}

/// Median by nearest rank; `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_sample_values() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&xs, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&xs, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&xs, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&xs, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&xs, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&hundred, 0.99), Some(99.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 at n = 1000 sits at rank 990 with exactly ten above it.
        assert_eq!(supported_tail(1000), Some(0.99));
        assert_eq!(supported_tail(999), Some(0.9));
        // p90 at n = 100 sits at rank 90 with ten above it.
        assert_eq!(supported_tail(100), Some(0.9));
        assert_eq!(supported_tail(99), Some(0.5));
        assert_eq!(supported_tail(20), Some(0.5));
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(0), None);
    }

    #[test]
    fn summary_falls_back_to_the_maximum() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.median, s.tail, s.tail_q, s.n), (2.0, 3.0, 1.0, 3));
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&xs).unwrap();
        assert_eq!((s.median, s.tail, s.tail_q), (500.0, 990.0, 0.99));
        assert!(summarize(&[]).is_none());
    }
}
