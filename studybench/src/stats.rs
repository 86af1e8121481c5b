//! Order statistics and the front-quality indicator.
//!
//! Percentiles are given in per mille (`950` = p95) so ranks are exact
//! integer arithmetic.

use mgopt_core::wire::PlanPoint;
use mgopt_optimizer::pareto::hypervolume_2d;

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of unsorted samples (`permille` in 1..=1000).
pub fn percentile(samples: &[f64], permille: usize) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() * permille).div_ceil(1000);
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted samples (the nearest-rank 50th percentile); 0 for
/// none, so an idle layer reads as zero.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        percentile(samples, 500)
    }
}

/// Whether `n` samples leave at least [`MIN_TAIL_SAMPLES`] beyond the
/// nearest-rank percentile `permille`.
pub fn tail_supported(n: usize, permille: usize) -> bool {
    n - (n * permille).div_ceil(1000) >= MIN_TAIL_SAMPLES
}

/// The highest of the usual tail percentiles `n` samples support.
pub fn highest_supported_percentile(n: usize) -> Option<usize> {
    [999, 990, 950, 900]
        .into_iter()
        .find(|&p| tail_supported(n, p))
}

/// Tail percentile robust to a slow stretch of the run: split the samples,
/// in the order they were taken, into consecutive windows of at least
/// `window` samples, take each window's percentile, and return the median.
/// With `window` chosen so each window supports the percentile, every
/// reported value still leaves [`MIN_TAIL_SAMPLES`] beyond it.
pub fn windowed_percentile(samples: &[f64], permille: usize, window: usize) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let windows = (n / window.max(1)).max(1);
    let tails: Vec<f64> = (0..windows)
        .map(|i| percentile(&samples[i * n / windows..(i + 1) * n / windows], permille))
        .collect();
    median(&tails)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

/// 2-D hypervolume of a front's feasible points against a fixed
/// reference; infeasible points (violation > 0) contribute nothing.
pub fn feasible_hypervolume(front: &[PlanPoint], reference: &[f64; 2]) -> f64 {
    let points: Vec<Vec<f64>> = front
        .iter()
        .filter(|p| p.violation <= 0.0)
        .map(|p| p.objectives.clone())
        .collect();
    if points.is_empty() {
        return 0.0;
    }
    hypervolume_2d(&points, reference)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgopt_microgrid::Composition;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 500), 50.0);
        assert_eq!(percentile(&xs, 950), 95.0);
        assert_eq!(percentile(&xs, 1000), 100.0);
        assert_eq!(percentile(&[3.0], 950), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[2.0, 1.0, 3.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!tail_supported(199, 950), "199 leave only 9 beyond p95");
        assert!(tail_supported(200, 950));
        assert!(!tail_supported(999, 990));
        assert!(tail_supported(1_000, 990));
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(100), Some(900));
        assert_eq!(highest_supported_percentile(450), Some(950));
        assert_eq!(highest_supported_percentile(1_000), Some(990));
        assert_eq!(highest_supported_percentile(10_000), Some(999));
    }

    #[test]
    fn windowed_tail_ignores_one_slow_window() {
        // 1,000 samples of 1..=100 repeated, then one window's worth of
        // slow samples: the plain p95 moves, the windowed one does not.
        let mut xs: Vec<f64> = (0..1_000).map(|i| f64::from(i % 100 + 1)).collect();
        assert_eq!(windowed_percentile(&xs, 950, 200), 95.0);
        xs.splice(0..200, std::iter::repeat_n(500.0, 200));
        assert_eq!(percentile(&xs, 950), 500.0);
        assert_eq!(windowed_percentile(&xs, 950, 200), 95.0);
        // Fewer samples than a window: the plain percentile.
        assert_eq!(
            windowed_percentile(&xs[..50], 950, 200),
            percentile(&xs[..50], 950)
        );
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    fn point(op: f64, embodied: f64, violation: f64) -> PlanPoint {
        PlanPoint {
            genome: vec![0, 0],
            plan: vec![Composition::BASELINE; 2],
            objectives: vec![op, embodied],
            violation,
        }
    }

    #[test]
    fn hypervolume_counts_feasible_points_only() {
        let reference = [10.0, 10.0];
        let feasible = [point(2.0, 8.0, 0.0), point(6.0, 4.0, 0.0)];
        // (10-2)*(10-8) + (10-6)*(8-4) = 16 + 16.
        assert_eq!(feasible_hypervolume(&feasible, &reference), 32.0);

        // A dominating but infeasible point changes nothing.
        let mut mixed = feasible.to_vec();
        mixed.push(point(1.0, 1.0, 250.0));
        assert_eq!(feasible_hypervolume(&mixed, &reference), 32.0);

        assert_eq!(
            feasible_hypervolume(&[point(1.0, 1.0, 5.0)], &reference),
            0.0
        );
        // Points beyond the fixed reference are clipped out.
        assert_eq!(
            feasible_hypervolume(&[point(11.0, 1.0, 0.0)], &reference),
            0.0
        );
    }
}
