//! Pareto-dominance tooling: non-dominated sorting (plain and
//! constraint-aware), crowding distance, quality indicators (hypervolume,
//! IGD), and recovery metrics.

use std::cmp::Ordering;

use crate::problem::Trial;

/// `true` when `a` Pareto-dominates `b` (minimization): no worse in every
/// objective and strictly better in at least one.
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let mut strictly_better = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly_better = true;
        }
    }
    strictly_better
}

/// Deb's constraint-dominance (NSGA-II, 2002): `a` constraint-dominates
/// `b` when `a` is feasible and `b` is not, when both are infeasible and
/// `a` violates less, or when both are feasible and `a` Pareto-dominates
/// `b`. Violations are total magnitudes (`0.0` = feasible).
pub fn constrained_dominates(a: &[f64], a_violation: f64, b: &[f64], b_violation: f64) -> bool {
    match (a_violation > 0.0, b_violation > 0.0) {
        (false, true) => true,
        (true, false) => false,
        (true, true) => a_violation < b_violation,
        (false, false) => dominates(a, b),
    }
}

/// [`fast_non_dominated_sort`] under constraint-dominance: all feasible
/// fronts precede every infeasible point, and infeasible points layer by
/// total violation. `violations[i]` is point `i`'s total magnitude.
pub fn constrained_non_dominated_sort(points: &[Vec<f64>], violations: &[f64]) -> Vec<Vec<usize>> {
    assert_eq!(points.len(), violations.len());
    sort_by_dominance(points.len(), |i, j| {
        constrained_dominates(&points[i], violations[i], &points[j], violations[j])
    })
}

/// Indices of the non-dominated points (the Pareto front).
pub fn non_dominated_indices(points: &[Vec<f64>]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && dominates(other, &points[i]))
        })
        .collect()
}

/// NSGA-II fast non-dominated sort: partitions indices into fronts
/// (front 0 = Pareto-optimal, front 1 = optimal after removing front 0, …).
pub fn fast_non_dominated_sort(points: &[Vec<f64>]) -> Vec<Vec<usize>> {
    sort_by_dominance(points.len(), |i, j| dominates(&points[i], &points[j]))
}

/// The fast non-dominated sort skeleton over an arbitrary (strict, acyclic)
/// dominance relation.
fn sort_by_dominance(n: usize, dom: impl Fn(usize, usize) -> bool) -> Vec<Vec<usize>> {
    let mut domination_count = vec![0usize; n];
    let mut dominated_by: Vec<Vec<usize>> = vec![Vec::new(); n];

    for i in 0..n {
        for j in (i + 1)..n {
            if dom(i, j) {
                dominated_by[i].push(j);
                domination_count[j] += 1;
            } else if dom(j, i) {
                dominated_by[j].push(i);
                domination_count[i] += 1;
            }
        }
    }

    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| domination_count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated_by[i] {
                domination_count[j] -= 1;
                if domination_count[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::take(&mut current));
        current = next;
    }
    fronts
}

/// NSGA-II crowding distance for the members of one front.
///
/// Returns one distance per front member (same order as `front`); boundary
/// points get `f64::INFINITY`. An objective whose span over the front is
/// infinite gives the interior members `inf / inf`, a NaN distance, which
/// selection ranks after every number.
pub fn crowding_distance(points: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
    let m = front.len();
    if m == 0 {
        return Vec::new();
    }
    if m <= 2 {
        return vec![f64::INFINITY; m];
    }
    let n_obj = points[front[0]].len();
    let mut distance = vec![0.0f64; m];

    // Indexing is clearer than an iterator here: `obj` selects a column
    // across `points` through two levels of indirection.
    #[allow(clippy::needless_range_loop)]
    for obj in 0..n_obj {
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| {
            points[front[a]][obj]
                .partial_cmp(&points[front[b]][obj])
                .expect("NaN objective")
        });
        let lo = points[front[order[0]]][obj];
        let hi = points[front[order[m - 1]]][obj];
        distance[order[0]] = f64::INFINITY;
        distance[order[m - 1]] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for k in 1..(m - 1) {
            let prev = points[front[order[k - 1]]][obj];
            let next = points[front[order[k + 1]]][obj];
            distance[order[k]] += (next - prev) / span;
        }
    }
    distance
}

/// The order that ranks crowding distances, most isolated first:
/// descending by [`f64::total_cmp`], with a NaN distance after every
/// number, whatever its sign bit.
///
/// A NaN distance comes from an infinite objective span and says nothing
/// about isolation, so it never outranks a number. Distances that are
/// numbers are sums of non-negative terms starting at `+0.0`, never
/// `-0.0`, so among them this is the plain `>` order.
pub(crate) fn crowding_order(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => b.total_cmp(&a),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

/// Exact hypervolume of a 2-objective front w.r.t. a reference point
/// (minimization; points beyond the reference are clipped out).
pub fn hypervolume_2d(points: &[Vec<f64>], reference: &[f64; 2]) -> f64 {
    let front = non_dominated_indices(points);
    let mut pts: Vec<(f64, f64)> = front
        .iter()
        .map(|&i| (points[i][0], points[i][1]))
        .filter(|&(x, y)| x < reference[0] && y < reference[1])
        .collect();
    pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN objective"));

    let mut hv = 0.0;
    let mut prev_y = reference[1];
    for &(x, y) in &pts {
        // On a clean 2-D front sorted by x ascending, y is descending.
        hv += (reference[0] - x) * (prev_y - y);
        prev_y = y;
    }
    hv
}

/// Inverted generational distance: mean Euclidean distance from each truth
/// point to its nearest found point, in normalized objective space.
///
/// Returns 0 for a perfect match; `NaN` when either set is empty.
pub fn igd(found: &[Vec<f64>], truth: &[Vec<f64>]) -> f64 {
    if found.is_empty() || truth.is_empty() {
        return f64::NAN;
    }
    let n_obj = truth[0].len();
    // Normalize by the truth extent per objective.
    let mut lo = vec![f64::INFINITY; n_obj];
    let mut hi = vec![f64::NEG_INFINITY; n_obj];
    for p in truth {
        for (d, &v) in p.iter().enumerate() {
            lo[d] = lo[d].min(v);
            hi[d] = hi[d].max(v);
        }
    }
    let span: Vec<f64> = lo
        .iter()
        .zip(&hi)
        .map(|(&l, &h)| if h > l { h - l } else { 1.0 })
        .collect();

    let dist = |a: &[f64], b: &[f64]| -> f64 {
        a.iter()
            .zip(b)
            .zip(&span)
            .map(|((&x, &y), &s)| ((x - y) / s).powi(2))
            .sum::<f64>()
            .sqrt()
    };
    truth
        .iter()
        .map(|t| {
            found
                .iter()
                .map(|f| dist(t, f))
                .fold(f64::INFINITY, f64::min)
        })
        .sum::<f64>()
        / truth.len() as f64
}

/// Fraction of the true Pareto-optimal genomes recovered by a search —
/// the paper's §4.4 metric ("recovers around 80 % of all Pareto-optimal
/// solutions").
pub fn recovery_fraction(found: &[Trial], truth: &[Trial]) -> f64 {
    if truth.is_empty() {
        return f64::NAN;
    }
    let found_front = non_dominated_trials(found);
    let hit = truth
        .iter()
        .filter(|t| found_front.iter().any(|f| f.genome == t.genome))
        .count();
    hit as f64 / truth.len() as f64
}

/// The non-dominated subset of a trial list (deduplicated by genome),
/// under constraint-dominance: any feasible trial beats every infeasible
/// one, so the front of a constrained history only contains infeasible
/// trials when *nothing* sampled was feasible. Unconstrained trials (empty
/// violations) reduce to plain Pareto dominance.
pub fn non_dominated_trials(trials: &[Trial]) -> Vec<Trial> {
    let mut unique: Vec<&Trial> = Vec::new();
    for t in trials {
        if !unique.iter().any(|u| u.genome == t.genome) {
            unique.push(t);
        }
    }
    let viol: Vec<f64> = unique.iter().map(|t| t.total_violation()).collect();
    (0..unique.len())
        .filter(|&i| {
            !(0..unique.len()).any(|j| {
                j != i
                    && constrained_dominates(
                        &unique[j].objectives,
                        viol[j],
                        &unique[i].objectives,
                        viol[i],
                    )
            })
        })
        .map(|i| unique[i].clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crowding_order_ranks_nan_after_every_number_whatever_its_sign() {
        let mut d = [1.0, -f64::NAN, f64::INFINITY, f64::NAN, 0.0, 2.5];
        d.sort_by(|a, b| crowding_order(*a, *b));
        assert_eq!(d[..4], [f64::INFINITY, 2.5, 1.0, 0.0]);
        assert!(d[4..].iter().all(|x| x.is_nan()));
    }

    #[test]
    fn dominance_basics() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[1.0, 3.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]), "incomparable");
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0]), "equal is not strict");
    }

    #[test]
    fn non_dominated_of_textbook_set() {
        let pts = vec![
            vec![1.0, 5.0],
            vec![2.0, 3.0],
            vec![4.0, 1.0],
            vec![3.0, 4.0], // dominated by (2,3)
            vec![5.0, 5.0], // dominated by everything
        ];
        let front = non_dominated_indices(&pts);
        assert_eq!(front, vec![0, 1, 2]);
    }

    #[test]
    fn sort_produces_layered_fronts() {
        let pts = vec![
            vec![1.0, 4.0], // F0
            vec![4.0, 1.0], // F0
            vec![2.0, 5.0], // F1
            vec![5.0, 2.0], // F1
            vec![6.0, 6.0], // F2
        ];
        let fronts = fast_non_dominated_sort(&pts);
        assert_eq!(fronts.len(), 3);
        assert_eq!(fronts[0], vec![0, 1]);
        assert_eq!(fronts[1], vec![2, 3]);
        assert_eq!(fronts[2], vec![4]);
    }

    #[test]
    fn sort_partitions_all_points() {
        let pts: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let fronts = fast_non_dominated_sort(&pts);
        let total: usize = fronts.iter().map(|f| f.len()).sum();
        assert_eq!(total, 25);
        // Front 0 of the grid is the single point (0,0).
        assert_eq!(fronts[0], vec![0]);
    }

    #[test]
    fn crowding_boundary_infinite_interior_finite() {
        let pts = vec![
            vec![0.0, 10.0],
            vec![2.0, 6.0],
            vec![5.0, 3.0],
            vec![10.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3];
        let d = crowding_distance(&pts, &front);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[1] > 0.0);
        assert!(d[2].is_finite() && d[2] > 0.0);
    }

    #[test]
    fn crowding_small_fronts_all_infinite() {
        let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let d = crowding_distance(&pts, &[0, 1]);
        assert!(d.iter().all(|&x| x == f64::INFINITY));
        assert!(crowding_distance(&pts, &[]).is_empty());
    }

    #[test]
    fn crowding_rewards_isolation() {
        // Middle points: one in a dense cluster, one isolated.
        let pts = vec![
            vec![0.0, 10.0],
            vec![1.0, 8.9],
            vec![1.2, 8.8], // crowded
            vec![6.0, 2.0], // isolated
            vec![10.0, 0.0],
        ];
        let front = vec![0, 1, 2, 3, 4];
        let d = crowding_distance(&pts, &front);
        assert!(d[3] > d[2], "isolated point should score higher: {d:?}");
    }

    #[test]
    fn hypervolume_single_point() {
        let pts = vec![vec![2.0, 3.0]];
        let hv = hypervolume_2d(&pts, &[10.0, 10.0]);
        assert!((hv - 8.0 * 7.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_staircase() {
        let pts = vec![vec![1.0, 4.0], vec![2.0, 2.0], vec![4.0, 1.0]];
        // Rectangles: (5-1)*(5-4)=4, (5-2)*(4-2)=6, (5-4)*(2-1)=1 => 11
        let hv = hypervolume_2d(&pts, &[5.0, 5.0]);
        assert!((hv - 11.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_ignores_dominated_and_out_of_range() {
        let pts = vec![
            vec![1.0, 4.0],
            vec![2.0, 2.0],
            vec![4.0, 1.0],
            vec![3.0, 3.0], // dominated
            vec![9.0, 0.5], // beyond reference in x? no: 9 > 5 -> clipped
        ];
        let hv = hypervolume_2d(&pts, &[5.0, 5.0]);
        assert!((hv - 11.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_monotone_under_additions() {
        let mut pts = vec![vec![3.0, 3.0]];
        let hv1 = hypervolume_2d(&pts, &[10.0, 10.0]);
        pts.push(vec![1.0, 6.0]);
        let hv2 = hypervolume_2d(&pts, &[10.0, 10.0]);
        assert!(hv2 >= hv1);
    }

    #[test]
    fn igd_zero_for_identical_sets() {
        let a = vec![vec![1.0, 2.0], vec![3.0, 0.5]];
        assert!(igd(&a, &a).abs() < 1e-12);
    }

    #[test]
    fn igd_grows_with_distance() {
        let truth = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let near = vec![vec![0.1, 1.0], vec![1.0, 0.1]];
        let far = vec![vec![0.8, 1.0], vec![1.0, 0.8]];
        assert!(igd(&near, &truth) < igd(&far, &truth));
        assert!(igd(&[], &truth).is_nan());
    }

    fn t(g: Vec<u16>, o: Vec<f64>) -> Trial {
        Trial::new(g, o)
    }

    #[test]
    fn recovery_counts_genome_matches() {
        let truth = vec![
            t(vec![0], vec![1.0, 4.0]),
            t(vec![1], vec![2.0, 2.0]),
            t(vec![2], vec![4.0, 1.0]),
        ];
        let found = vec![
            t(vec![0], vec![1.0, 4.0]),
            t(vec![2], vec![4.0, 1.0]),
            t(vec![9], vec![9.0, 9.0]), // dominated noise
        ];
        let r = recovery_fraction(&found, &truth);
        assert!((r - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn constrained_dominance_rules() {
        // Feasible beats infeasible regardless of objectives.
        assert!(constrained_dominates(&[9.0, 9.0], 0.0, &[1.0, 1.0], 0.1));
        assert!(!constrained_dominates(&[1.0, 1.0], 0.1, &[9.0, 9.0], 0.0));
        // Both infeasible: ordered by violation, objectives ignored.
        assert!(constrained_dominates(&[9.0, 9.0], 0.1, &[1.0, 1.0], 0.2));
        assert!(!constrained_dominates(&[1.0, 1.0], 0.2, &[9.0, 9.0], 0.1));
        assert!(!constrained_dominates(&[1.0, 1.0], 0.2, &[9.0, 9.0], 0.2));
        // Both feasible: plain Pareto dominance.
        assert!(constrained_dominates(&[1.0, 1.0], 0.0, &[2.0, 2.0], 0.0));
        assert!(!constrained_dominates(&[1.0, 3.0], 0.0, &[3.0, 1.0], 0.0));
    }

    #[test]
    fn constrained_sort_layers_feasible_before_infeasible() {
        let pts = vec![
            vec![1.0, 4.0], // feasible, front 0
            vec![4.0, 1.0], // feasible, front 0
            vec![2.0, 5.0], // feasible, front 1
            vec![0.0, 0.0], // infeasible (best objectives!), violation 0.3
            vec![0.0, 0.0], // infeasible, violation 0.1
        ];
        let viol = vec![0.0, 0.0, 0.0, 0.3, 0.1];
        let fronts = constrained_non_dominated_sort(&pts, &viol);
        assert_eq!(fronts[0], vec![0, 1]);
        assert_eq!(fronts[1], vec![2]);
        // Infeasible points layer by violation behind every feasible front.
        assert_eq!(fronts[2], vec![4]);
        assert_eq!(fronts[3], vec![3]);
    }

    #[test]
    fn constrained_sort_with_zero_violations_matches_plain_sort() {
        let pts: Vec<Vec<f64>> = (0..25)
            .map(|i| vec![(i % 5) as f64, (i / 5) as f64])
            .collect();
        let zeros = vec![0.0; pts.len()];
        assert_eq!(
            constrained_non_dominated_sort(&pts, &zeros),
            fast_non_dominated_sort(&pts)
        );
    }

    #[test]
    fn front_of_constrained_trials_prefers_feasible() {
        let mut infeasible = t(vec![0], vec![0.0, 0.0]);
        infeasible.violations = vec![5.0];
        let trials = vec![
            infeasible.clone(),
            t(vec![1], vec![1.0, 2.0]),
            t(vec![2], vec![2.0, 1.0]),
        ];
        let front = non_dominated_trials(&trials);
        assert_eq!(front.len(), 2);
        assert!(front.iter().all(|x| x.is_feasible()));
        // All-infeasible history: least-violating trial forms the front.
        let mut worse = t(vec![3], vec![0.0, 0.0]);
        worse.violations = vec![7.0];
        let front = non_dominated_trials(&[infeasible.clone(), worse]);
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].genome, vec![0]);
    }

    #[test]
    fn non_dominated_trials_dedups() {
        let trials = vec![
            t(vec![0], vec![1.0, 4.0]),
            t(vec![0], vec![1.0, 4.0]), // duplicate genome
            t(vec![1], vec![0.5, 5.0]),
            t(vec![2], vec![2.0, 5.0]), // dominated
        ];
        let front = non_dominated_trials(&trials);
        assert_eq!(front.len(), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn points_strategy() -> impl Strategy<Value = Vec<Vec<f64>>> {
        prop::collection::vec(
            prop::collection::vec(0.0f64..100.0, 2..=3).prop_map(|v| v),
            1..40,
        )
        .prop_filter("same dims", |pts| {
            let d = pts[0].len();
            pts.iter().all(|p| p.len() == d)
        })
    }

    proptest! {
        #[test]
        fn front_members_mutually_non_dominated(pts in points_strategy()) {
            let front = non_dominated_indices(&pts);
            for &i in &front {
                for &j in &front {
                    if i != j {
                        prop_assert!(!dominates(&pts[i], &pts[j]));
                    }
                }
            }
        }

        #[test]
        fn every_dominated_point_has_a_dominator_in_front(pts in points_strategy()) {
            let front = non_dominated_indices(&pts);
            for i in 0..pts.len() {
                if !front.contains(&i) {
                    prop_assert!(front.iter().any(|&j| dominates(&pts[j], &pts[i])));
                }
            }
        }

        #[test]
        fn fronts_partition_and_order(pts in points_strategy()) {
            let fronts = fast_non_dominated_sort(&pts);
            let total: usize = fronts.iter().map(|f| f.len()).sum();
            prop_assert_eq!(total, pts.len());
            // First front equals the non-dominated set.
            let mut f0 = fronts[0].clone();
            f0.sort_unstable();
            let mut nd = non_dominated_indices(&pts);
            nd.sort_unstable();
            prop_assert_eq!(f0, nd);
        }

        #[test]
        fn hypervolume_nonnegative(pts in points_strategy()) {
            let two_d: Vec<Vec<f64>> = pts.iter().map(|p| vec![p[0], p[1 % p.len()]]).collect();
            let hv = hypervolume_2d(&two_d, &[200.0, 200.0]);
            prop_assert!(hv >= 0.0);
            prop_assert!(hv <= 200.0 * 200.0);
        }
    }
}
