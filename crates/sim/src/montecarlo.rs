//! Monte-Carlo replication: run a seeded experiment many times and
//! summarize the spread.
//!
//! Several toolkit simulations are stochastic in a single seed (actual
//! task demands, random topologies). Confidence in a reported number
//! means replicating across seeds; this module provides the harness and
//! the summary statistics, keeping determinism: replication `k` of a
//! study with base seed `s` always uses seed `s + k`
//! ([`replication_seeds`]), whichever worker runs it, and [`replicate`]
//! merges observables back in seed order, so its summary is
//! bit-identical at any worker count.

/// Summary statistics of a replicated scalar observable.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct Summary {
    /// Number of replications.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for n = 1).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Half-width of the ~95 % normal-approximation confidence interval
    /// on the mean (`1.96·σ/√n`).
    pub fn ci95_half_width(&self) -> f64 {
        if self.n <= 1 {
            0.0
        } else {
            1.96 * self.std_dev / (self.n as f64).sqrt()
        }
    }

    /// Coefficient of variation (σ/μ); 0 when the mean is 0.
    pub fn cv(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            self.std_dev / self.mean.abs()
        }
    }
}

/// The seed schedule of a study: replication `k` of `replications`
/// uses seed `base_seed + k` (wrapping), whichever worker runs it.
///
/// # Panics
///
/// Panics if `replications` is zero.
pub fn replication_seeds(replications: usize, base_seed: u64) -> Vec<u64> {
    assert!(replications > 0, "at least one replication");
    (0..replications)
        .map(|k| base_seed.wrapping_add(k as u64))
        .collect()
}

/// Runs `experiment` once per seed of
/// [`replication_seeds(replications, base_seed)`](replication_seeds) on
/// `threads` workers and summarizes the returned observable. Callers
/// without a reason to pin the worker count pass
/// [`runner::thread_count`](crate::runner::thread_count).
///
/// One worker runs the plain serial loop on the calling thread; more
/// spread the seeds across workers and merge the observables back in
/// seed order, so [`summarize`] folds the identical ordered sample and
/// the summary — even its floating-point rounding — is the same at any
/// worker count. `tests/determinism.rs` asserts it at 1, 2 and 8
/// threads.
///
/// The experiment closure takes `Fn` (not `FnMut`) plus `Sync` because
/// workers share it; any per-replication state belongs inside the
/// closure, keyed on the seed.
///
/// # Example
///
/// ```
/// use ami_sim::{replicate, sim_rng};
/// use rand::RngExt;
///
/// // The mean of a uniform [0,1) draw concentrates near 0.5.
/// let summary = replicate(ami_sim::runner::thread_count(), 100, 7, |seed| {
///     let mut rng = sim_rng(seed);
///     rng.random::<f64>()
/// });
/// assert!((summary.mean - 0.5).abs() < 0.1);
/// assert_eq!(summary.n, 100);
/// ```
///
/// # Panics
///
/// Panics if `threads` or `replications` is zero, or the experiment
/// returns a non-finite observable.
pub fn replicate(
    threads: usize,
    replications: usize,
    base_seed: u64,
    experiment: impl Fn(u64) -> f64 + Sync,
) -> Summary {
    let seeds = replication_seeds(replications, base_seed);
    let values = crate::runner::par_map_indexed_threads(threads, &seeds, |_, &seed| {
        let v = experiment(seed);
        assert!(v.is_finite(), "observable must be finite, got {v}");
        v
    });
    summarize(&values)
}

/// Summarizes an existing sample.
///
/// # Panics
///
/// Panics if `values` is empty or contains non-finite entries.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "cannot summarize an empty sample");
    let n = values.len();
    let mut sum = 0.0;
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        assert!(v.is_finite(), "sample must be finite");
        sum += v;
        min = min.min(v);
        max = max.max(v);
    }
    let mean = sum / n as f64;
    let var = if n > 1 {
        values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    Summary {
        n,
        mean,
        std_dev: var.sqrt(),
        min,
        max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim_rng;
    use rand::RngExt;

    #[test]
    fn constant_experiment_has_zero_spread() {
        let s = replicate(1, 10, 0, |_| 42.0);
        assert_eq!(s.mean, 42.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95_half_width(), 0.0);
        assert_eq!((s.min, s.max), (42.0, 42.0));
    }

    #[test]
    fn replications_use_distinct_seeds() {
        assert_eq!(replication_seeds(5, 100), vec![100, 101, 102, 103, 104]);
        assert_eq!(replication_seeds(2, u64::MAX), vec![u64::MAX, 0]);
        let s = replicate(2, 5, 100, |seed| seed as f64);
        assert_eq!((s.min, s.max, s.mean), (100.0, 104.0, 102.0));
    }

    #[test]
    fn uniform_sample_statistics() {
        let s = replicate(2, 2000, 1, |seed| sim_rng(seed).random::<f64>());
        assert!((s.mean - 0.5).abs() < 0.02);
        // Uniform [0,1): σ = 1/√12 ≈ 0.2887.
        assert!((s.std_dev - 0.2887).abs() < 0.02);
        assert!(s.min >= 0.0 && s.max < 1.0);
        assert!(s.ci95_half_width() < 0.02);
    }

    #[test]
    fn summarize_matches_hand_computation() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.mean, 2.5);
        assert!((s.std_dev - 1.290_994).abs() < 1e-6);
        assert_eq!((s.min, s.max), (1.0, 4.0));
        assert!((s.cv() - 0.516_398).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one replication")]
    fn zero_replications_rejected() {
        let _ = replicate(1, 0, 0, |_| 0.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_observable_rejected() {
        let _ = replicate(1, 1, 0, |_| f64::NAN);
    }
}
