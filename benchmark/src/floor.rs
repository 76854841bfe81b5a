//! The floor estimator and the few order statistics the reports print.
//!
//! Interference on a shared host is additive and one-sided: a neighbour
//! can only make a call slower. The minimum of a kind's samples is then
//! the sample with the least interference, and it converges on the
//! program's own cost as soon as one quiet instant falls in the window —
//! which a median or a p90 of mixed-size ops never did (README.md).

/// Minimum of the samples; `None` when there are none.
pub fn floor_ns(samples: &[u64]) -> Option<u64> {
    samples.iter().copied().min()
}

/// Sum of per-kind floors, in seconds.
pub fn round_floor_s(kinds: &[Vec<u64>]) -> f64 {
    kinds.iter().filter_map(|k| floor_ns(k)).sum::<u64>() as f64 / 1e9
}

/// Nearest-rank quantile `q` in (0, 1] of unsorted samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// Median as the mean of the two middle values (used across runs, where
/// the sample is small and even).
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// p90 needs ten samples beyond it, i.e. at least 100 in all.
pub fn p90_if_supported(samples: &[f64]) -> Option<f64> {
    (samples.len() >= 100)
        .then(|| quantile(samples, 0.9))
        .flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift64*, so the tests need no crate.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state >> 12;
        *state ^= *state << 25;
        *state ^= *state >> 27;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    #[test]
    fn floor_recovers_the_true_cost_under_one_sided_noise() {
        // Three kinds of very different size; every sample carries
        // non-negative noise, heavy on most samples, zero on a few.
        let truth = [300_000u64, 5_000_000, 120_000_000];
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let kinds: Vec<Vec<u64>> = truth
            .iter()
            .map(|&t| {
                (0..60)
                    .map(|i| {
                        let noise = if i % 20 == 7 {
                            0
                        } else {
                            next(&mut rng) % (t / 2)
                        };
                        t + noise
                    })
                    .collect()
            })
            .collect();
        for (k, &t) in kinds.iter().zip(&truth) {
            assert_eq!(floor_ns(k), Some(t));
        }
        assert_eq!(
            round_floor_s(&kinds),
            truth.iter().sum::<u64>() as f64 / 1e9
        );

        // The median of the same samples sits far above the truth.
        let as_f: Vec<f64> = kinds[2].iter().map(|&v| v as f64).collect();
        assert!(median(&as_f).unwrap() > truth[2] as f64 * 1.1);
    }

    #[test]
    fn floor_of_nothing_is_none_and_skipped_in_the_sum() {
        assert_eq!(floor_ns(&[]), None);
        assert_eq!(round_floor_s(&[vec![], vec![2_000_000_000]]), 2.0);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(p90_if_supported(&v), Some(90.0));
        assert_eq!(p90_if_supported(&v[..99]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(quantile(&[], 0.5), None);
    }
}
