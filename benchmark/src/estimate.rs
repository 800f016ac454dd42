//! Estimators: percentiles within a lap, the best of several values, and the
//! relative worsening a bound is held against.

/// The `p`-quantile (nearest rank on `p · (n − 1)`) of unsorted samples.
/// `0.0` for an empty slice, so an unexercised layer prints as zero.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// The median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, CPU, memory.
    Lower,
    /// Throughput, useful counts.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// The best of several values of a metric — the minimum of a cost, the
/// maximum of a rate; `0.0` for none.
pub fn best_lap(per_lap: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Lower => per_lap.iter().copied().min_by(f64::total_cmp),
        Better::Higher => per_lap.iter().copied().max_by(f64::total_cmp),
    };
    pick.unwrap_or(0.0)
}

/// How much worse the worst of `values` is than the best, as a share of the
/// best — the relative worsening a bound is defined as, had the best value
/// been the parent's and the worst the change's.
pub fn worsening(values: &[f64], better: Better) -> f64 {
    let worse = match better {
        Better::Lower => Better::Higher,
        Better::Higher => Better::Lower,
    };
    let (best, worst) = (best_lap(values, better), best_lap(values, worse));
    (worst - best).abs() / best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_picks_nearest_rank() {
        let samples: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.5), 51.0);
        assert_eq!(percentile(&samples, 0.9), 91.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 101.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[], 0.9), 0.0);
    }

    #[test]
    fn p90_of_a_hundred_ops_leaves_ten_beyond() {
        let samples: Vec<f64> = (0..100).map(f64::from).collect();
        let p90 = percentile(&samples, 0.9);
        assert_eq!(samples.iter().filter(|&&s| s > p90).count(), 10);
    }

    #[test]
    fn worsening_is_measured_from_the_better_value() {
        // A time that went from 0.5435 to 0.7049 got 29.7 % worse, whichever
        // run came first; a rate that fell from 500 to 400 got 20 % worse.
        assert!((worsening(&[0.7049, 0.5435], Better::Lower) - 0.29696).abs() < 1e-4);
        assert!((worsening(&[0.5435, 0.7049], Better::Lower) - 0.29696).abs() < 1e-4);
        assert!((worsening(&[400.0, 500.0], Better::Higher) - 0.2).abs() < 1e-12);
        assert_eq!(worsening(&[3.0, 3.0, 3.0], Better::Lower), 0.0);
    }

    #[test]
    fn best_lap_follows_the_direction() {
        let laps = [4.0, 3.5, 3.9, 5.2];
        assert_eq!(best_lap(&laps, Better::Lower), 3.5);
        assert_eq!(best_lap(&laps, Better::Higher), 5.2);
        assert_eq!(best_lap(&[], Better::Lower), 0.0);
    }
}
