//! 1-D Lloyd's algorithm specialised for NUMARCK's change-ratio stream.
//!
//! With centres kept sorted, the Voronoi cells of 1-D K-means are
//! intervals whose boundaries are the midpoints between adjacent centres.
//! [`SortedCenters`] keeps those midpoints.
//!
//! [`KMeans1D::fit`] searches them from the sample's side. It sorts the sample once
//! (`sort_unstable_by(f64::total_cmp)`) and builds compensated prefix sums
//! over the sorted order; every cluster is then a
//! contiguous range of the sorted sample. One Lloyd iteration finds the
//! `k − 1` range ends with one binary search each, takes cluster sums and
//! counts from prefix-sum differences, and counts membership changes by an
//! O(k) merge of the old and new range ends: O(k log n) per iteration
//! instead of a pass over all `n` points.
//!
//! The sorted order is unique bit for bit (values equal under `total_cmp`
//! have equal bits, so even an unstable sort is exact) and the prefix sum
//! is one sequential pass over it, so the fitted centres, counts and
//! inertia are identical for any thread count.

use crate::init::{initial_centers, Init1D};
use crate::KMeansOptions;

/// Sorted centres plus precomputed midpoints, the cell boundaries the
/// fit searches. The encoder's `BinTable` keeps its representatives in
/// one, so it lives here and is shared.
#[derive(Debug, Clone, PartialEq)]
pub struct SortedCenters {
    centers: Vec<f64>,
    midpoints: Vec<f64>,
}

impl SortedCenters {
    /// Build from centres (sorted internally; duplicates removed).
    ///
    /// # Panics
    /// Panics if any centre is non-finite.
    pub fn new(mut centers: Vec<f64>) -> Self {
        assert!(centers.iter().all(|c| c.is_finite()), "centres must be finite");
        centers.sort_by(|a, b| a.partial_cmp(b).unwrap());
        centers.dedup();
        let midpoints = midpoints_of(&centers);
        Self { centers, midpoints }
    }

    /// The sorted centres.
    #[inline]
    pub fn centers(&self) -> &[f64] {
        &self.centers
    }

    /// Number of centres.
    #[inline]
    pub fn len(&self) -> usize {
        self.centers.len()
    }

    /// True when there are no centres.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.centers.is_empty()
    }
}

fn midpoints_of(centers: &[f64]) -> Vec<f64> {
    centers.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect()
}

/// Result of a 1-D K-means run.
#[derive(Debug, Clone)]
pub struct KMeans1DResult {
    /// Final sorted centres (may be fewer than requested `k` when the data
    /// has few distinct values).
    pub centers: SortedCenters,
    /// Points per cluster, aligned with `centers`.
    pub counts: Vec<u64>,
    /// Lloyd iterations executed.
    pub iterations: usize,
    /// Sum of squared distances to assigned centres.
    pub inertia: f64,
    /// Whether the membership-change criterion was met before the
    /// iteration cap.
    pub converged: bool,
}

/// 1-D K-means runner.
#[derive(Debug, Clone)]
pub struct KMeans1D {
    /// Requested number of clusters.
    pub k: usize,
    /// Initialisation method.
    pub init: Init1D,
    /// Iteration/convergence options.
    pub opts: KMeansOptions,
}

impl KMeans1D {
    /// Runner with the paper's defaults (histogram seeding).
    pub fn new(k: usize) -> Self {
        Self { k, init: Init1D::Histogram, opts: KMeansOptions::default() }
    }

    /// Override the initialiser.
    pub fn with_init(mut self, init: Init1D) -> Self {
        self.init = init;
        self
    }

    /// Override the options.
    pub fn with_options(mut self, opts: KMeansOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Cluster `data`, which must be finite. Empty input yields an empty
    /// result.
    pub fn fit(&self, data: &[f64]) -> KMeans1DResult {
        assert!(self.k >= 1, "k must be >= 1");
        if data.is_empty() {
            return KMeans1DResult {
                centers: SortedCenters::new(Vec::new()),
                counts: Vec::new(),
                iterations: 0,
                inertia: 0.0,
                converged: true,
            };
        }
        let init = initial_centers(self.init, data, self.k, self.opts.seed);
        let mut sorted = data.to_vec();
        sorted.sort_unstable_by(f64::total_cmp);
        let prefix = PrefixSums::new(&sorted);
        let n = sorted.len();

        let mut centers = SortedCenters::new(init);
        let mut ends = cluster_ends(&centers, &sorted);
        let mut converged = false;
        let mut iterations = 0;
        while iterations < self.opts.max_iterations {
            iterations += 1;
            let mut new_centers = Vec::with_capacity(centers.len());
            let mut start = 0;
            for (&c, &end) in centers.centers().iter().zip(&ends) {
                // Empty cluster: keep the old centre (deterministic; it
                // can be re-adopted by points in later iterations).
                new_centers.push(if end > start { prefix.mean(start, end) } else { c });
                start = end;
            }
            let next = SortedCenters::new(new_centers);
            let next_ends = cluster_ends(&next, &sorted);
            let changed = membership_changes(&ends, &next_ends);
            centers = next;
            ends = next_ends;
            if (changed as f64) / (n as f64) < self.opts.change_threshold {
                converged = true;
                break;
            }
        }

        // Drop clusters that ended empty (kept-alive old centres that no
        // point adopted): they would waste representative-table slots
        // downstream. Dropping a centre moves the midpoint between its
        // neighbours, so the ranges are recomputed.
        let mut counts = counts_of(&ends);
        if counts.contains(&0) {
            let kept: Vec<f64> = centers
                .centers()
                .iter()
                .zip(&counts)
                .filter(|(_, &c)| c > 0)
                .map(|(&v, _)| v)
                .collect();
            centers = SortedCenters::new(kept);
            ends = cluster_ends(&centers, &sorted);
            counts = counts_of(&ends);
        }
        let inertia = inertia_of(&centers, &sorted, &ends);
        KMeans1DResult { centers, counts, iterations, inertia, converged }
    }
}

/// Each cluster's exclusive end in the sorted sample. Cluster `j` holds
/// the points above midpoint `j − 1` and at or below midpoint `j` (a
/// point midway between two centres goes to the lower one), so its end
/// is one binary search; the last cluster ends at `n`.
fn cluster_ends(centers: &SortedCenters, sorted: &[f64]) -> Vec<usize> {
    let mut ends: Vec<usize> =
        centers.midpoints.iter().map(|&m| sorted.partition_point(|&x| x <= m)).collect();
    ends.push(sorted.len());
    ends
}

fn counts_of(ends: &[usize]) -> Vec<u64> {
    let mut start = 0;
    ends.iter()
        .map(|&end| {
            let c = (end - start) as u64;
            start = end;
            c
        })
        .collect()
}

/// Points whose cluster index differs between two partitions of the same
/// sorted sample, each given by its [`cluster_ends`]. Point `p` has index
/// `#{j : ends[j] <= p}` under either partition; both step functions are
/// walked together, one constant segment at a time, in O(k).
fn membership_changes(old: &[usize], new: &[usize]) -> usize {
    let n = *old.last().expect("at least one cluster");
    debug_assert_eq!(new.last(), Some(&n));
    let (mut i, mut j, mut pos, mut changed) = (0, 0, 0, 0);
    while pos < n {
        // Both lists end at `n > pos`, so neither walk runs off the end.
        while old[i] <= pos {
            i += 1;
        }
        while new[j] <= pos {
            j += 1;
        }
        let next = old[i].min(new[j]);
        if i != j {
            changed += next - pos;
        }
        pos = next;
    }
    changed
}

/// Compensated prefix sums over the sorted sample: `hi[i] + lo[i]` is
/// `Σ sorted[..i]` to about twice `f64` precision (TwoSum carries each
/// addition's rounding error into `lo`), so a cluster's sum, the
/// difference of two prefixes, stays accurate however far the running
/// total strays from the cluster's own magnitude.
struct PrefixSums {
    hi: Vec<f64>,
    lo: Vec<f64>,
}

/// 2^-128: the sample is scaled by it before summing, so the running total
/// cannot overflow where no single cluster's sum would. Applying and
/// undoing it is exact for every |x| above ~1e-269 (the scaled value stays
/// normal), so wherever unscaled sums stay finite the centres are the same.
const PREFIX_SCALE: f64 = f64::from_bits((1023 - 128) << 52);

impl PrefixSums {
    fn new(sorted: &[f64]) -> Self {
        let n = sorted.len();
        let (mut hi, mut lo) = (Vec::with_capacity(n + 1), Vec::with_capacity(n + 1));
        let (mut h, mut l) = (0.0f64, 0.0f64);
        hi.push(h);
        lo.push(l);
        for &x in sorted {
            let (s, e) = two_sum(h, x * PREFIX_SCALE);
            h = s;
            l += e;
            hi.push(h);
            lo.push(l);
        }
        Self { hi, lo }
    }

    /// Mean of `sorted[start..end]`; the range must be non-empty.
    fn mean(&self, start: usize, end: usize) -> f64 {
        let (d, e) = two_sum(self.hi[end], -self.hi[start]);
        let sum = d + (e + (self.lo[end] - self.lo[start]));
        sum / (end - start) as f64 / PREFIX_SCALE
    }
}

/// Knuth's TwoSum: `a + b` rounded, and the exact rounding error.
#[inline]
fn two_sum(a: f64, b: f64) -> (f64, f64) {
    let s = a + b;
    let bb = s - a;
    (s, (a - (s - bb)) + (b - bb))
}

/// Sum of squared distances to the assigned centres: one sequential pass
/// over the sorted sample, cluster by cluster.
fn inertia_of(centers: &SortedCenters, sorted: &[f64], ends: &[usize]) -> f64 {
    let mut start = 0;
    let mut total = 0.0;
    for (&c, &end) in centers.centers().iter().zip(ends) {
        total += sorted[start..end].iter().map(|&x| (x - c) * (x - c)).sum::<f64>();
        start = end;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use numarck_par::pool::with_threads;

    /// Index of the centre nearest to `x` by a linear count of the
    /// midpoints below it: ties go to the lower index, as in the fit.
    fn nearest(centers: &SortedCenters, x: f64) -> usize {
        centers.midpoints.iter().filter(|&&m| m < x).count()
    }

    fn nearest_value(centers: &SortedCenters, x: f64) -> f64 {
        centers.centers()[nearest(centers, x)]
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn fit_is_thread_count_invariant() {
        // The unique sorted order and the sequential prefix sum must make
        // the fitted centres, counts and inertia bit-identical for any
        // pool width.
        let data: Vec<f64> = (0..60_000)
            .map(|i| ((i * 2654435761u64 as usize) % 100_000) as f64 * 1e-3 - 17.0)
            .collect();
        let runs: Vec<KMeans1DResult> =
            [1, 2, 8].iter().map(|&t| with_threads(t, || KMeans1D::new(31).fit(&data))).collect();
        for r in &runs[1..] {
            assert_eq!(bits(r.centers.centers()), bits(runs[0].centers.centers()));
            assert_eq!(r.counts, runs[0].counts);
            assert_eq!(r.iterations, runs[0].iterations);
            assert_eq!(r.inertia.to_bits(), runs[0].inertia.to_bits());
        }
    }

    /// Init ablation (paper §II-C.3: the choice of initial centroids
    /// "influence[s] significantly ... the quality of the results"): on
    /// multimodal change ratios — three modes of very different mass plus
    /// a heavy tail — histogram seeding ends at lower inertia than
    /// uniform-spread seeding with the paper's k = 255.
    #[test]
    fn histogram_seeding_beats_uniform_spread_on_multimodal_ratios() {
        let mut rng = numarck_par::rng::Xoshiro256PlusPlus::seed_from_u64(17);
        let data: Vec<f64> = (0..1 << 18)
            .map(|_| {
                let u = rng.next_f64();
                if u < 0.6 {
                    rng.normal_with(0.0, 0.001)
                } else if u < 0.9 {
                    rng.normal_with(0.02, 0.002)
                } else if u < 0.99 {
                    rng.normal_with(-0.05, 0.005)
                } else {
                    rng.normal_with(0.0, 0.5)
                }
            })
            .collect();
        let fit = |init| KMeans1D::new(255).with_init(init).fit(&data).inertia;
        let (histogram, uniform) = (fit(Init1D::Histogram), fit(Init1D::UniformSpread));
        assert!(histogram < uniform, "histogram {histogram:e} vs uniform-spread {uniform:e}");
    }

    #[test]
    fn unsorted_input_is_sorted_and_deduped() {
        let sc = SortedCenters::new(vec![5.0, 1.0, 5.0, 3.0]);
        assert_eq!(sc.centers(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_center_panics() {
        SortedCenters::new(vec![1.0, f64::NAN]);
    }

    fn two_modes(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let base = if i % 2 == 0 { 0.0 } else { 100.0 };
                base + (i % 7) as f64 * 0.1
            })
            .collect()
    }

    #[test]
    fn fit_separates_two_modes() {
        let data = two_modes(10_000);
        let res = KMeans1D::new(2).fit(&data);
        assert_eq!(res.centers.len(), 2);
        assert!(res.centers.centers()[0] < 1.0);
        assert!(res.centers.centers()[1] > 99.0);
        assert!(res.converged);
        // Both clusters hold half the points.
        assert_eq!(res.counts[0], 5_000);
        assert_eq!(res.counts[1], 5_000);
    }

    #[test]
    fn fit_empty_data() {
        let res = KMeans1D::new(4).fit(&[]);
        assert!(res.centers.is_empty());
        assert!(res.counts.is_empty());
        assert!(res.converged);
    }

    #[test]
    fn fit_constant_data_single_cluster() {
        let data = vec![7.0; 5000];
        let res = KMeans1D::new(8).fit(&data);
        assert_eq!(res.centers.len(), 1);
        assert_eq!(res.centers.centers()[0], 7.0);
        assert_eq!(res.inertia, 0.0);
    }

    #[test]
    fn counts_sum_to_n_and_match_nearest_centres() {
        let data: Vec<f64> = (0..5000).map(|i| ((i * 31) % 997) as f64).collect();
        let res = KMeans1D::new(16).fit(&data);
        assert_eq!(res.counts.iter().sum::<u64>(), data.len() as u64);
        let mut recount = vec![0u64; res.centers.len()];
        for &x in &data {
            recount[nearest(&res.centers, x)] += 1;
        }
        assert_eq!(recount, res.counts);
    }

    #[test]
    fn lloyd_never_increases_inertia_vs_uniform_init() {
        // Clustering-quality sanity: fitted inertia must be no worse than
        // the inertia of the initial uniform centres.
        let data = two_modes(4000);
        let init = SortedCenters::new(crate::init::initial_centers(
            Init1D::UniformSpread,
            &data,
            4,
            0,
        ));
        let init_inertia: f64 = data.iter().map(|&x| {
            let c = nearest_value(&init, x);
            (x - c) * (x - c)
        }).sum();
        let res = KMeans1D::new(4).with_init(Init1D::UniformSpread).fit(&data);
        assert!(
            res.inertia <= init_inertia + 1e-9,
            "fit {} vs init {}",
            res.inertia,
            init_inertia
        );
    }

    #[test]
    fn histogram_init_covers_the_dense_mode_on_skewed_data() {
        // Heavily skewed data: 99% in a tight mode, 1% spread far away.
        // The design goal of histogram seeding is NUMARCK coverage, not
        // inertia: virtually all dense-mode points must end within a
        // tight tolerance of some centre, which uniform seeding only
        // achieves after Lloyd rescues its single in-mode seed.
        let mut data: Vec<f64> = (0..9900).map(|i| (i % 100) as f64 * 1e-4).collect();
        data.extend((0..100).map(|i| 1000.0 + i as f64 * 10.0));
        let tol = 0.005;
        let escape_frac = |res: &KMeans1DResult| {
            data.iter()
                .filter(|&&x| x < 1.0) // dense-mode points only
                .filter(|&&x| (x - nearest_value(&res.centers, x)).abs() > tol)
                .count() as f64
                / 9900.0
        };
        let hist = KMeans1D::new(8).with_init(Init1D::Histogram).fit(&data);
        assert!(
            escape_frac(&hist) < 0.02,
            "dense mode under-covered: {} escapes",
            escape_frac(&hist)
        );
        // And at least one centre sits inside the mode (empty-cluster
        // pruning may consolidate the mode into a single centre, which
        // is optimal here — the mode is narrower than the tolerance).
        let in_mode = hist.centers.centers().iter().filter(|&&c| c < 1.0).count();
        assert!(in_mode >= 1, "centres in mode: {:?}", hist.centers.centers());
    }

    #[test]
    fn deterministic_across_runs() {
        let data = two_modes(20_000);
        let a = KMeans1D::new(7).fit(&data);
        let b = KMeans1D::new(7).fit(&data);
        assert_eq!(bits(a.centers.centers()), bits(b.centers.centers()));
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.inertia.to_bits(), b.inertia.to_bits());
    }

    #[test]
    fn respects_iteration_cap() {
        let data = two_modes(1000);
        let opts = KMeansOptions { max_iterations: 1, change_threshold: 0.0, seed: 0 };
        let res = KMeans1D::new(4).with_options(opts).fit(&data);
        assert!(res.iterations <= 1);
    }

    #[test]
    fn membership_changes_walks_both_partitions() {
        // n = 10. Old clusters [0,3) [3,7) [7,10); new [0,4) [4,4) [4,10).
        // Index per point: old 0001111222, new 0000222222 → points 3..7
        // differ (old 1 vs new 0 at 3, old 1 vs new 2 at 4..7).
        assert_eq!(membership_changes(&[3, 7, 10], &[4, 4, 10]), 4);
        assert_eq!(membership_changes(&[3, 7, 10], &[3, 7, 10]), 0);
        // A dropped leading empty cluster shifts every index by one.
        assert_eq!(membership_changes(&[0, 5, 10], &[5, 10]), 10);
        assert_eq!(membership_changes(&[10], &[10]), 0);
    }

    #[test]
    fn huge_values_keep_the_prefix_finite() {
        // The running total of 600 values near 1e307 overflows f64; the
        // prefix sums scale the sample so that neither cluster's mean does.
        let mut data = vec![1e307; 300];
        data.extend(vec![-1e307; 300]);
        let res = KMeans1D::new(2).fit(&data);
        assert_eq!(res.centers.centers(), &[-1e307, 1e307]);
        assert_eq!(res.counts, vec![300, 300]);
    }

    /// The Lloyd loop the sorted fit replaced, kept as a test oracle: every
    /// iteration assigns each point by a linear scan over the midpoints
    /// (the same tie-to-lower-index rule) and accumulates cluster sums in
    /// point order, O(n·k). Returns centres, counts, iterations and the
    /// convergence flag.
    fn naive_fit(km: &KMeans1D, data: &[f64]) -> (Vec<f64>, Vec<u64>, usize, bool) {
        let assign = |centers: &SortedCenters| -> Vec<usize> {
            data.iter().map(|&x| nearest(centers, x)).collect()
        };
        let tally = |k: usize, assignments: &[usize]| {
            let (mut sums, mut counts) = (vec![0.0f64; k], vec![0u64; k]);
            for (&x, &j) in data.iter().zip(assignments) {
                sums[j] += x;
                counts[j] += 1;
            }
            (sums, counts)
        };
        let mut centers =
            SortedCenters::new(crate::init::initial_centers(km.init, data, km.k, km.opts.seed));
        let mut assignments = assign(&centers);
        let (mut iterations, mut converged) = (0, false);
        while iterations < km.opts.max_iterations {
            iterations += 1;
            let (sums, counts) = tally(centers.len(), &assignments);
            let means = centers
                .centers()
                .iter()
                .zip(sums.iter().zip(&counts))
                .map(|(&c, (&s, &n))| if n > 0 { s / n as f64 } else { c })
                .collect();
            let next = SortedCenters::new(means);
            let reassigned = assign(&next);
            let changed = assignments.iter().zip(&reassigned).filter(|(a, b)| a != b).count();
            centers = next;
            assignments = reassigned;
            if (changed as f64) / (data.len() as f64) < km.opts.change_threshold {
                converged = true;
                break;
            }
        }
        let (_, counts) = tally(centers.len(), &assignments);
        if counts.contains(&0) {
            let kept =
                centers.centers().iter().zip(&counts).filter(|(_, &c)| c > 0).map(|(&v, _)| v);
            centers = SortedCenters::new(kept.collect());
            assignments = assign(&centers);
        }
        let (_, counts) = tally(centers.len(), &assignments);
        (centers.centers().to_vec(), counts, iterations, converged)
    }

    /// Fits for the oracle: duplicates drawn from a small pool, a dyadic
    /// grid with a power-of-two `k` (exact sums, and uniform-spread or
    /// k-means++ seeds put midpoints exactly on data points), a single
    /// distinct value, heavy (Pareto) tails and a ratio-like normal
    /// mixture; `n` and the seeding vary.
    struct OracleFits;

    impl numarck_prop::strategy::Strategy for OracleFits {
        type Value = (Vec<f64>, KMeans1D);
        fn generate(&self, rng: &mut numarck_prop::test_runner::Rng) -> Self::Value {
            let n = 1 + rng.below(2800) as usize;
            let mut k = if rng.below(8) == 0 { 255 } else { 1 + rng.below(32) as usize };
            let sign =
                |rng: &mut numarck_prop::test_runner::Rng| [1.0, -1.0][rng.below(2) as usize];
            let data = match rng.below(5) {
                0 => {
                    let pool: Vec<f64> =
                        (0..1 + rng.below(40)).map(|_| rng.next_f64() * 2.0 - 1.0).collect();
                    (0..n).map(|_| pool[rng.below(pool.len() as u64) as usize]).collect()
                }
                1 => {
                    k = 1 << rng.below(6);
                    // Both ends present: the range is exactly 8.
                    let grid = |i: u64| i as f64 * 0.125 - 4.0;
                    let step = |i: usize, rng: &mut numarck_prop::test_runner::Rng| {
                        if i < 2 { 64 * i as u64 } else { rng.below(65) }
                    };
                    (0..n).map(|i| grid(step(i, rng))).collect()
                }
                2 => vec![sign(rng) * (1 + rng.below(1000)) as f64 * 0.37; n],
                3 => (0..n)
                    .map(|_| {
                        let u = 1.0 - rng.next_f64(); // (0, 1]
                        sign(rng) * 1e-3 * u.powf(-1.0 / 1.1)
                    })
                    .collect(),
                _ => (0..n)
                    .map(|_| {
                        let mode = [0.0, 0.02, -0.05][rng.below(3) as usize];
                        mode + 0.004 * (rng.next_f64() + rng.next_f64() - 1.0)
                    })
                    .collect(),
            };
            let init = [Init1D::Histogram, Init1D::UniformSpread, Init1D::KMeansPlusPlus]
                [rng.below(3) as usize];
            (data, KMeans1D::new(k).with_init(init))
        }
    }

    mod properties {
        use super::*;
        use numarck_prop::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn assignments_are_nearest_center(
                xs in numarck_prop::collection::vec(-1e3f64..1e3, 1..300),
                k in 1usize..10
            ) {
                let res = KMeans1D::new(k).fit(&xs);
                for &x in &xs {
                    let da = (x - nearest_value(&res.centers, x)).abs();
                    for &c in res.centers.centers() {
                        prop_assert!(da <= (x - c).abs() + 1e-9);
                    }
                }
            }

            #[test]
            fn sorted_fit_matches_the_naive_lloyd_loop((xs, km) in OracleFits) {
                let fast = km.fit(&xs);
                let (centers, counts, iterations, converged) = naive_fit(&km, &xs);
                prop_assert_eq!(fast.iterations, iterations);
                prop_assert_eq!(fast.converged, converged);
                prop_assert_eq!(fast.counts, counts);
                let tol = 1e-12 * xs.iter().fold(0.0f64, |m, x| m.max(x.abs()));
                for (&a, &b) in fast.centers.centers().iter().zip(&centers) {
                    prop_assert!((a - b).abs() <= tol, "centre {a:e} vs oracle {b:e}, tol {tol:e}");
                }
            }

            #[test]
            fn membership_changes_match_a_per_point_count(
                (a, b) in (numarck_prop::collection::vec(0usize..=50, 0..8),
                           numarck_prop::collection::vec(0usize..=50, 0..8))
            ) {
                let ends = |mut v: Vec<usize>| {
                    v.sort_unstable();
                    v.push(50);
                    v
                };
                let (old, new) = (ends(a), ends(b));
                let index = |e: &[usize], p: usize| e.iter().filter(|&&x| x <= p).count();
                let slow = (0..50).filter(|&p| index(&old, p) != index(&new, p)).count();
                prop_assert_eq!(membership_changes(&old, &new), slow);
            }

            #[test]
            fn centers_within_data_range(
                xs in numarck_prop::collection::vec(-50.0f64..50.0, 1..200),
                k in 1usize..8
            ) {
                let res = KMeans1D::new(k).fit(&xs);
                let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                for &c in res.centers.centers() {
                    prop_assert!(c >= lo - 1e-9 && c <= hi + 1e-9);
                }
            }
        }
    }
}
