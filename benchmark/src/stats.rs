//! Order statistics and the quiet-segment estimator.
//!
//! A timed phase is cut into many short consecutive segments, the statistic
//! is computed inside each, and the **median of the quietest tenth** of the
//! segments is reported. The reason is the machine, not the program: on the
//! 2-vCPU virtual machines this benchmark runs on, a neighbour on the host
//! slows memory-bound code by up to 1.7x for tens of seconds at a time (a
//! single-threaded loop over `service::execute` swings between 420 and
//! 650 us per request with nothing else running). Interference only ever
//! adds time, so the best segments estimate the undisturbed system; over
//! eight runs of `paper_mix` the median over all segments of throughput
//! spread 25 %, the quietest fifth 7 %; and on per-segment values of ten
//! runs of each workload the quietest tenth spread less than the quietest
//! fifth on 16 of 20 metrics (IQR) and on all 20 (range). Within a segment
//! the statistic is still a median or a tail mean over its requests.

/// A phase with fewer valid segments than this resolves nothing.
pub const MIN_VALID_SEGMENTS: usize = 3;

/// Nearest-rank percentile (`q` in `0..=100`) of an unsorted sample;
/// `None` for an empty one. Infinite values sort last, which is how a
/// failed response counts against a latency percentile.
pub fn percentile(sample: &[f64], q: f64) -> Option<f64> {
    if sample.is_empty() {
        return None;
    }
    let mut xs = sample.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q / 100.0) * xs.len() as f64).ceil() as usize;
    Some(xs[rank.clamp(1, xs.len()) - 1])
}

/// Mean of the slowest `share` of the sample (at least one value): the
/// tail statistic of the `paced` phase. Latencies there are quantised to
/// multiples of the inter-arrival gap (the server's Nagle-delayed response
/// leaves with the ACK that the next request carries), so an order
/// statistic in the tail flips between steps from run to run — over
/// twelve runs of `paper_mix` the pooled p95 spread 21 %, the quiet estimate
/// of the mean of a segment's slowest tenth 11 %, of its slowest quarter
/// 5 %, of its slower half 3 %. One failed response (`+inf`) in the tail
/// makes it infinite.
pub fn tail_mean(sample: &[f64], share: f64) -> Option<f64> {
    if sample.is_empty() {
        return None;
    }
    let mut xs = sample.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    let k = ((xs.len() as f64 * share).ceil() as usize).clamp(1, xs.len());
    Some(mean(&xs[xs.len() - k..]))
}

/// Median with the midpoint convention for even counts (so a median of
/// segment values does not depend on which middle segment is picked).
pub fn median(sample: &[f64]) -> Option<f64> {
    if sample.is_empty() {
        return None;
    }
    let mut xs = sample.to_vec();
    xs.sort_by(|a, b| a.total_cmp(b));
    let mid = xs.len() / 2;
    Some(if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    })
}

pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Geometric mean of positive values; 0 for an empty sample.
pub fn geomean(sample: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0f64, 0usize);
    for x in sample {
        sum += x.ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Which end of a metric is the undisturbed one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Best {
    Lowest,
    Highest,
}

/// The median of the best tenth (rounded up) of the segments marked valid.
/// `Err` carries the count of valid segments when there are fewer than
/// [`MIN_VALID_SEGMENTS`].
pub fn quiet_estimate(values: &[f64], valid: &[bool], best: Best) -> Result<f64, usize> {
    let mut kept: Vec<f64> = values
        .iter()
        .zip(valid)
        .filter_map(|(&v, &ok)| ok.then_some(v))
        .collect();
    if kept.len() < MIN_VALID_SEGMENTS {
        return Err(kept.len());
    }
    kept.sort_by(|a, b| match best {
        Best::Lowest => a.total_cmp(b),
        Best::Highest => b.total_cmp(a),
    });
    kept.truncate(kept.len().div_ceil(10));
    Ok(median(&kept).expect("at least one value"))
}

/// Cut `0..n` into `parts` consecutive ranges whose lengths differ by at
/// most one.
pub fn split_even(n: usize, parts: usize) -> Vec<std::ops::Range<usize>> {
    (0..parts)
        .map(|i| (i * n / parts)..((i + 1) * n / parts))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 95.0), Some(95.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // order of the input does not matter
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 50.0), Some(5.0));
    }

    #[test]
    fn a_failed_response_counts_against_the_percentile() {
        // 200 samples, 11 of them failed: p95 must be infinite, p50 not.
        let mut xs = vec![100.0; 189];
        xs.extend(std::iter::repeat_n(f64::INFINITY, 11));
        assert_eq!(percentile(&xs, 50.0), Some(100.0));
        assert_eq!(percentile(&xs, 95.0), Some(f64::INFINITY));
        // 10 failures of 200 sit exactly at the edge: p95 still finite.
        let mut ys = vec![100.0; 190];
        ys.extend(std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(percentile(&ys, 95.0), Some(100.0));
    }

    #[test]
    fn tail_mean_averages_the_slowest_share() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_mean(&xs, 0.10), Some(95.5)); // mean of 91..=100
        assert_eq!(tail_mean(&[4.0, 9.0], 0.10), Some(9.0)); // never empty
        assert_eq!(tail_mean(&[], 0.10), None);
        let mut failed = xs.clone();
        failed[0] = f64::INFINITY;
        assert_eq!(tail_mean(&failed, 0.10), Some(f64::INFINITY));
    }

    #[test]
    fn median_uses_the_midpoint_for_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quiet_estimate_is_the_median_of_the_best_tenth() {
        // 50 segments: the best tenth is 5 values, their median the third.
        let values: Vec<f64> = (1..=50).map(f64::from).collect();
        let all = [true; 50];
        assert_eq!(quiet_estimate(&values, &all, Best::Lowest), Ok(3.0));
        assert_eq!(quiet_estimate(&values, &all, Best::Highest), Ok(48.0));
        // A disturbed stretch (two thirds of the run 1.7x slower) does not
        // move it; the plain median would have jumped to 17.
        let mut noisy = vec![10.0, 10.2, 10.1, 10.3, 9.9, 10.0, 10.4, 10.2];
        noisy.extend(std::iter::repeat_n(17.0, 17));
        assert_eq!(quiet_estimate(&noisy, &all[..25], Best::Lowest), Ok(10.0));
        assert_eq!(median(&noisy), Some(17.0));
    }

    #[test]
    fn quiet_estimate_skips_invalid_segments_and_needs_three_valid_ones() {
        let values = [5.0, 1.0, 4.0, 3.0, 2.0, 6.0];
        let valid = [true, false, true, true, true, true];
        // best tenth of 5 valid values = 1 value: the lowest valid one
        assert_eq!(quiet_estimate(&values, &valid, Best::Lowest), Ok(2.0));
        let valid = [true, false, false, false, false, true];
        assert_eq!(quiet_estimate(&values, &valid, Best::Lowest), Err(2));
    }

    #[test]
    fn split_even_covers_everything_once() {
        let parts = split_even(1003, 5);
        assert_eq!(parts.len(), 5);
        assert_eq!(parts[0].start, 0);
        assert_eq!(parts[4].end, 1003);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(parts.iter().all(|r| r.len() == 200 || r.len() == 201));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), 0.0);
    }
}
