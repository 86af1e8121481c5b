//! Pareto-dominance tooling: non-dominated sorting (plain and
//! constraint-aware), crowding distance, quality indicators (hypervolume,
//! IGD), and recovery metrics.
//!
//! Sorting and crowding run on [`Objectives`], a row-major objective
//! matrix, through one kernel, [`constrained_non_dominated_sort`]. It keeps
//! the "dominates" relation as an n × ⌈n/64⌉ bit matrix: row `i` has bit
//! `j` set when point `i` dominates point `j`.
//!
//! **Front-order contract.** Front 0 lists its members in ascending index
//! order. Each later front lists its members in the order they are
//! released: walking the previous front in its own order, and each of its
//! members' dominated points in ascending index order, a point joins the
//! front when its last dominator is removed. NSGA-II's environmental
//! selection and crowding read fronts in this order (ties in a crowding
//! sort keep it, and a truncated front is cut in it), so the order decides
//! which genomes survive and, through the tournament, every history the
//! search samples. The bit rows walk set bits in ascending order, which is
//! the order in which Deb's original per-point lists are built, so the
//! kernel keeps the fronts and their member order of that formulation.

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

/// A borrowed row-major objective matrix: row `i` holds point `i`'s
/// objective vector.
#[derive(Debug, Clone, Copy)]
pub struct Objectives<'a> {
    values: &'a [f64],
    n_obj: usize,
}

impl<'a> Objectives<'a> {
    /// View `values` as consecutive rows of `n_obj` objectives.
    ///
    /// # Panics
    /// Panics when `n_obj` is zero or does not divide `values.len()`.
    pub fn new(values: &'a [f64], n_obj: usize) -> Self {
        assert!(n_obj > 0, "an objective row needs at least one column");
        assert_eq!(values.len() % n_obj, 0, "ragged objective matrix");
        Self { values, n_obj }
    }

    /// Number of points (rows).
    pub fn len(&self) -> usize {
        self.values.len() / self.n_obj
    }

    /// `true` when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Number of objectives (columns).
    pub fn n_obj(&self) -> usize {
        self.n_obj
    }

    /// Point `i`'s objective vector.
    pub fn row(&self, i: usize) -> &'a [f64] {
        &self.values[i * self.n_obj..(i + 1) * self.n_obj]
    }
}

/// NSGA-II's fast non-dominated sort under constraint-dominance: all
/// feasible fronts precede every infeasible point, and infeasible points
/// layer by total violation. `violations[i]` is point `i`'s total
/// magnitude.
///
/// This is the crate's one dominance-sort kernel; see the module docs for
/// its bit matrix and the member order of its fronts. Each row is built
/// whole, 64 points per word: one sweep over the word's block of every
/// objective column sets the bits where point `i` is better and where it
/// is worse, and [`constrained_dominates`]'s cases combine those masks
/// with the block's feasibility. The masks also say which points dominate
/// `i`, so its dominator count is a popcount and no bit is written into
/// another point's row.
pub fn constrained_non_dominated_sort(
    points: Objectives<'_>,
    violations: &[f64],
) -> Vec<Vec<usize>> {
    let n = points.len();
    assert_eq!(n, violations.len());
    let words = n.div_ceil(64);
    // Column-major copy: a block of one objective is contiguous.
    let columns: Vec<f64> = (0..points.n_obj())
        .flat_map(|k| (0..n).map(move |j| points.row(j)[k]))
        .collect();
    // Bit `j % 64` of word `j / 64`: point `j` is infeasible.
    let infeasible: Vec<u64> = violations
        .chunks(64)
        .map(|block| block_mask(block, |v| v > 0.0))
        .collect();
    // Row `i`, bit `j`: point `i` dominates point `j`.
    let mut dominated = vec![0u64; n * words];
    // Per point, how many points dominate it.
    let mut count = vec![0u32; n];
    for i in 0..n {
        let v = violations[i];
        for w in 0..words {
            let block = w * 64..n.min(w * 64 + 64);
            let infeasible = infeasible[w];
            let feasible = !infeasible & (u64::MAX >> (64 - block.len()));
            // `over`: the block's points `i` dominates; `under`: those
            // dominating `i`.
            let (over, under) = if v > 0.0 {
                let violations = &violations[block];
                (
                    infeasible & block_mask(violations, |u| v < u),
                    feasible | (infeasible & block_mask(violations, |u| u < v)),
                )
            } else {
                // A NaN coordinate sets neither mask, so, as in
                // `dominates`, it never blocks dominance.
                let (mut better, mut worse) = (0u64, 0u64);
                for column in columns.chunks_exact(n) {
                    let (x, block) = (column[i], &column[block.clone()]);
                    better |= block_mask(block, |y| x < y);
                    worse |= block_mask(block, |y| x > y);
                }
                (
                    infeasible | (feasible & better & !worse),
                    feasible & worse & !better,
                )
            };
            dominated[i * words + w] = over;
            count[i] += under.count_ones();
        }
    }

    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| count[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for (w, &word) in dominated[i * words..][..words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    count[j] -= 1;
                    if count[j] == 0 {
                        next.push(j);
                    }
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Bit `b` set where `test(block[b])` holds (`block` holds at most 64
/// values).
fn block_mask(block: &[f64], test: impl Fn(f64) -> bool) -> u64 {
    let mut bits = 0u64;
    for (b, &value) in block.iter().enumerate() {
        bits |= u64::from(test(value)) << b;
    }
    bits
}

/// Indices of the non-dominated points (the Pareto front).
pub fn non_dominated_indices<P: AsRef<[f64]>>(points: &[P]) -> Vec<usize> {
    (0..points.len())
        .filter(|&i| {
            !points
                .iter()
                .enumerate()
                .any(|(j, other)| j != i && dominates(other.as_ref(), points[i].as_ref()))
        })
        .collect()
}

/// NSGA-II fast non-dominated sort: partitions indices into fronts
/// (front 0 = Pareto-optimal, front 1 = optimal after removing front 0, …).
/// It is [`constrained_non_dominated_sort`] with every point feasible.
pub fn fast_non_dominated_sort(points: Objectives<'_>) -> Vec<Vec<usize>> {
    constrained_non_dominated_sort(points, &vec![0.0; points.len()])
}

/// The ascending order crowding distance sorts one objective by:
/// [`f64::partial_cmp`], with NaN after every number. `-0.0` ties with
/// `0.0`.
fn objective_order(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b)
        .unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// NSGA-II crowding distance for the members of one front.
///
/// Returns one distance per front member (same order as `front`); boundary
/// points get `f64::INFINITY`. Each objective's sort is stable over
/// `front`'s order, and puts NaN values last. An objective whose span over
/// the front is infinite or NaN gives the interior members a NaN distance,
/// which selection ranks after every number.
pub fn crowding_distance(points: Objectives<'_>, front: &[usize]) -> Vec<f64> {
    let m = front.len();
    if m == 0 {
        return Vec::new();
    }
    if m <= 2 {
        return vec![f64::INFINITY; m];
    }
    let mut distance = vec![0.0f64; m];
    let mut order: Vec<usize> = Vec::with_capacity(m);
    for obj in 0..points.n_obj() {
        let value = |k: usize| points.row(front[k])[obj];
        order.clear();
        order.extend(0..m);
        order.sort_by(|&a, &b| objective_order(value(a), value(b)));
        let lo = value(order[0]);
        let hi = value(order[m - 1]);
        distance[order[0]] = f64::INFINITY;
        distance[order[m - 1]] = f64::INFINITY;
        let span = hi - lo;
        if span <= 0.0 {
            continue;
        }
        for k in 1..(m - 1) {
            distance[order[k]] += (value(order[k + 1]) - value(order[k - 1])) / span;
        }
    }
    distance
}

/// The order that ranks crowding distances, most isolated first:
/// descending by [`f64::total_cmp`], with a NaN distance after every
/// number, whatever its sign bit.
///
/// A NaN distance comes from an infinite or NaN objective span and says
/// nothing about isolation, so it never outranks a number. Distances that are
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
pub fn hypervolume_2d<P: AsRef<[f64]>>(points: &[P], reference: &[f64; 2]) -> f64 {
    let front = non_dominated_indices(points);
    let mut pts: Vec<(f64, f64)> = front
        .iter()
        .map(|&i| (points[i].as_ref()[0], points[i].as_ref()[1]))
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
pub(crate) mod tests {
    use super::*;

    /// `rows` as a row-major matrix and its column count (1 when empty).
    pub(crate) fn flat(rows: &[Vec<f64>]) -> (Vec<f64>, usize) {
        (rows.concat(), rows.first().map_or(1, Vec::len))
    }

    /// [`fast_non_dominated_sort`] over rows.
    pub(crate) fn sort_rows(rows: &[Vec<f64>]) -> Vec<Vec<usize>> {
        let (m, k) = flat(rows);
        fast_non_dominated_sort(Objectives::new(&m, k))
    }

    /// [`constrained_non_dominated_sort`] over rows.
    fn constrained_sort_rows(rows: &[Vec<f64>], violations: &[f64]) -> Vec<Vec<usize>> {
        let (m, k) = flat(rows);
        constrained_non_dominated_sort(Objectives::new(&m, k), violations)
    }

    /// [`crowding_distance`] over rows.
    pub(crate) fn crowding_rows(rows: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
        let (m, k) = flat(rows);
        crowding_distance(Objectives::new(&m, k), front)
    }

    /// The reference sort the kernel must reproduce: Deb's fast
    /// non-dominated sort over an arbitrary (strict, acyclic) dominance
    /// relation, with one list of dominated points per point.
    pub(crate) fn sort_by_dominance(
        n: usize,
        dom: impl Fn(usize, usize) -> bool,
    ) -> Vec<Vec<usize>> {
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

    /// The reference crowding distance over rows: one index sort per
    /// objective, stable over `front`'s order, NaN last.
    pub(crate) fn reference_crowding(points: &[Vec<f64>], front: &[usize]) -> Vec<f64> {
        let m = front.len();
        if m == 0 {
            return Vec::new();
        }
        if m <= 2 {
            return vec![f64::INFINITY; m];
        }
        let n_obj = points[front[0]].len();
        let mut distance = vec![0.0f64; m];
        #[allow(clippy::needless_range_loop)]
        for obj in 0..n_obj {
            let mut order: Vec<usize> = (0..m).collect();
            order.sort_by(|&a, &b| {
                let (x, y) = (points[front[a]][obj], points[front[b]][obj]);
                x.partial_cmp(&y)
                    .unwrap_or_else(|| x.is_nan().cmp(&y.is_nan()))
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
        let fronts = sort_rows(&pts);
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
        let fronts = sort_rows(&pts);
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
        let d = crowding_rows(&pts, &front);
        assert_eq!(d[0], f64::INFINITY);
        assert_eq!(d[3], f64::INFINITY);
        assert!(d[1].is_finite() && d[1] > 0.0);
        assert!(d[2].is_finite() && d[2] > 0.0);
    }

    #[test]
    fn crowding_small_fronts_all_infinite() {
        let pts = vec![vec![1.0, 2.0], vec![2.0, 1.0]];
        let d = crowding_rows(&pts, &[0, 1]);
        assert!(d.iter().all(|&x| x == f64::INFINITY));
        assert!(crowding_rows(&pts, &[]).is_empty());
    }

    #[test]
    fn crowding_sorts_nan_objectives_last_and_ties_signed_zeros() {
        // Objective 0 sorts [1, 3, 2, 0]: 0.0 and -0.0 tie and keep their
        // front order, NaN goes last. Its span is NaN, so its interior
        // members' distances turn NaN unless objective 1 bounds them.
        let pts = vec![
            vec![f64::NAN, 1.0],
            vec![0.0, 3.0],
            vec![1.0, 2.0],
            vec![-0.0, 4.0],
        ];
        let d = crowding_rows(&pts, &[0, 1, 2, 3]);
        assert_eq!(d[..2], [f64::INFINITY, f64::INFINITY]);
        assert!(d[2].is_nan());
        assert_eq!(d[3], f64::INFINITY);
        // One objective: the tie keeps 0.0 (member 0) as the low boundary.
        let line = vec![vec![0.0], vec![-0.0], vec![1.0], vec![2.0]];
        let d = crowding_rows(&line, &[0, 1, 2, 3]);
        assert_eq!(d, vec![f64::INFINITY, 0.5, 1.0, f64::INFINITY]);
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
        let d = crowding_rows(&pts, &front);
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
        let fronts = constrained_sort_rows(&pts, &viol);
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
        assert_eq!(constrained_sort_rows(&pts, &zeros), sort_rows(&pts));
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
    use super::tests::{flat, reference_crowding, sort_by_dominance, sort_rows};
    use super::*;
    use proptest::prelude::*;

    /// A cohort for the kernel-against-reference property: 0–140 points of
    /// 1–3 objectives drawn from a few values, so ties and duplicate rows
    /// are common (`-0.0` ties with `0.0`, and some coordinates are NaN),
    /// each with a total violation drawn from {0, 1.5, 3}.
    fn cohort_strategy() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>)> {
        let value = vec![0.0, -0.0, 1.0, 2.0, 3.0, 1.0, 2.0, f64::NAN];
        (
            0usize..=140,
            1usize..=3,
            prop::collection::vec(prop::sample::select(value), 3 * 140),
            prop::collection::vec(prop::sample::select(vec![0.0, 0.0, 1.5, 3.0]), 140),
        )
            .prop_map(|(n, n_obj, cells, violations)| {
                let rows = cells.chunks(n_obj).take(n).map(<[f64]>::to_vec).collect();
                (rows, violations[..n].to_vec())
            })
    }

    /// Crowding distances as bit patterns, so NaN compares equal to NaN.
    fn bits(distances: &[f64]) -> Vec<u64> {
        distances.iter().map(|d| d.to_bits()).collect()
    }

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
            let fronts = sort_rows(&pts);
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
        fn kernel_keeps_the_reference_fronts_member_order_and_crowding(
            (rows, violations) in cohort_strategy()
        ) {
            let (matrix, n_obj) = flat(&rows);
            let points = Objectives::new(&matrix, n_obj);
            let n = rows.len();
            let want = sort_by_dominance(n, |i, j| {
                constrained_dominates(&rows[i], violations[i], &rows[j], violations[j])
            });
            prop_assert_eq!(constrained_non_dominated_sort(points, &violations), want.clone());
            let plain = sort_by_dominance(n, |i, j| dominates(&rows[i], &rows[j]));
            prop_assert_eq!(fast_non_dominated_sort(points), plain.clone());
            for front in want.iter().chain(&plain) {
                prop_assert_eq!(
                    bits(&crowding_distance(points, front)),
                    bits(&reference_crowding(&rows, front))
                );
            }
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
