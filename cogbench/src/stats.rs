//! Sample summaries and the regression rule `cogbench compare` applies.
//!
//! The rule follows the measurement protocol in `cogbench/README.md`: a
//! change may be worse than its parent by at most the metric's bound; where
//! the run-to-run spread is wider than the bound the pairing is unresolved;
//! a gain needs at least nine tenths of the seed-paired runs to win and a
//! median difference larger than the parent's interquartile range.

/// A timing tail is only reported at a percentile with at least this many
/// samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Share of seed-paired runs a change must win to claim a gain.
pub const GAIN_WIN_SHARE: f64 = 0.9;

/// Sorts samples ascending (NaNs are never produced by the benchmark).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Nearest-rank percentile `p` (0–100) of an ascending sample.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail percentile the sample supports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, e.g. 99.9.
    pub pct: f64,
    /// Its nearest-rank value.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Sample size.
    pub samples: usize,
}

/// The highest of the standard tail percentiles that still has at least
/// [`MIN_BEYOND`] samples beyond it, or `None` when even the median does
/// not.
#[must_use]
pub fn supported_tail(sorted: &[f64]) -> Option<Tail> {
    const CANDIDATES: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];
    let n = sorted.len();
    CANDIDATES.iter().find_map(|&pct| {
        let rank = (n as f64 * pct / 100.0).ceil() as usize;
        let beyond = n.saturating_sub(rank.max(1));
        (n > 0 && beyond >= MIN_BEYOND).then(|| Tail {
            pct,
            value: percentile(sorted, pct),
            beyond,
            samples: n,
        })
    })
}

/// Median and quartiles the way Python's `statistics.quantiles(values,
/// n=4)` computes them (the default "exclusive" method), so the numbers
/// here agree with any script that reads the same reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Quartiles {
    /// Summarizes an ascending sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample.
    #[must_use]
    pub fn of(sorted: &[f64]) -> Self {
        assert!(!sorted.is_empty(), "quartiles of an empty sample");
        if sorted.len() == 1 {
            return Self {
                q1: sorted[0],
                median: sorted[0],
                q3: sorted[0],
            };
        }
        let n = sorted.len() as f64;
        let cut = |j: f64| {
            let pos = (n + 1.0) * j / 4.0;
            let idx = pos.floor() as usize;
            let frac = pos - pos.floor();
            if idx < 1 {
                sorted[0]
            } else if idx >= sorted.len() {
                sorted[sorted.len() - 1]
            } else {
                sorted[idx - 1] + frac * (sorted[idx] - sorted[idx - 1])
            }
        };
        Self {
            q1: cut(1.0),
            median: cut(2.0),
            q3: cut(3.0),
        }
    }

    /// Interquartile range.
    #[must_use]
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (latency, set-up time, memory, failures).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

impl Better {
    /// The name `BENCHMARK.json` uses.
    #[cfg(test)]
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much `change` is worse than `base` (negative when better).
    #[must_use]
    pub fn worse_by(self, base: f64, change: f64) -> f64 {
        match self {
            Better::Lower => change - base,
            Better::Higher => base - change,
        }
    }
}

/// How far a metric may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the parent's median (0.1 = 10 %).
    Relative(f64),
    /// An absolute amount in the metric's unit (0 for failure ratios).
    Absolute(f64),
}

impl Bound {
    /// The allowed worsening for a parent whose median is `base_median`.
    #[must_use]
    pub fn allowance(self, base_median: f64) -> f64 {
        match self {
            Bound::Relative(share) => share * base_median.abs(),
            Bound::Absolute(amount) => amount,
        }
    }
}

/// The outcome for one (metric, workload) pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows, and no gain shown.
    Within,
    /// Worse than the bound allows.
    Regression,
    /// Run-to-run spread wider than the bound: neither no-change nor a
    /// regression can be shown.
    Unresolved,
    /// A gain by the pairing rule.
    Gain,
}

impl Verdict {
    /// Lower-case label for the comparison table.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
            Verdict::Gain => "gain",
        }
    }
}

/// Everything the comparison table prints for one pairing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Parent runs.
    pub base: Quartiles,
    /// Change runs.
    pub change: Quartiles,
    /// Seed-paired runs the change won.
    pub wins: usize,
    /// Seed-paired runs in total (ties included; they win for neither).
    pub pairs: usize,
    /// The decision.
    pub verdict: Verdict,
}

/// Applies the regression rule to one pairing. `base` and `change` hold
/// `(seed, value)` per run; runs pair up by seed.
///
/// # Panics
///
/// Panics when either side has no runs.
#[must_use]
pub fn compare(
    base: &[(u64, f64)],
    change: &[(u64, f64)],
    better: Better,
    bound: Bound,
) -> Comparison {
    let summarize = |runs: &[(u64, f64)]| {
        let mut v: Vec<f64> = runs.iter().map(|r| r.1).collect();
        sort(&mut v);
        (Quartiles::of(&v), v)
    };
    let (bq, bv) = summarize(base);
    let (cq, cv) = summarize(change);

    let mut wins = 0;
    let mut pairs = 0;
    for &(seed, b) in base {
        if let Some(&(_, c)) = change.iter().find(|r| r.0 == seed) {
            pairs += 1;
            if better.worse_by(b, c) < 0.0 {
                wins += 1;
            }
        }
    }

    let allowed = bound.allowance(bq.median);
    let worse = better.worse_by(bq.median, cq.median);
    // Every change run better than every parent run: the worst change run
    // beats the best parent run.
    let separated = match better {
        Better::Lower => cv[cv.len() - 1] < bv[0],
        Better::Higher => cv[0] > bv[bv.len() - 1],
    };
    let wide = bq.iqr() > allowed || cq.iqr() > allowed;
    let gain = pairs > 0
        && wins as f64 >= GAIN_WIN_SHARE * pairs as f64
        && worse < 0.0
        && -worse > bq.iqr();

    let verdict = if wide && !separated {
        Verdict::Unresolved
    } else if worse > allowed {
        Verdict::Regression
    } else if gain {
        Verdict::Gain
    } else {
        Verdict::Within
    };
    Comparison {
        base: bq,
        change: cq,
        wins,
        pairs,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(values: &[f64]) -> Vec<(u64, f64)> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u64 + 1, v))
            .collect()
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        let tail = supported_tail(&sorted).expect("1000 samples support a tail");
        // p99.9 has 1 sample beyond, p99 has exactly 10.
        assert_eq!(tail.pct, 99.0);
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.beyond, 10);
        assert_eq!(tail.samples, 1000);

        // 100 000 samples put exactly ten beyond p99.99; one fewer does not.
        let sorted: Vec<f64> = (1..=100_000).map(f64::from).collect();
        assert_eq!(supported_tail(&sorted).map(|t| t.pct), Some(99.99));
        assert_eq!(supported_tail(&sorted[1..]).map(|t| t.pct), Some(99.9));

        // 15 samples: the median has 7 beyond, so nothing qualifies.
        let sorted: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(supported_tail(&sorted), None);
        let sorted: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            supported_tail(&sorted).map(|t| (t.pct, t.beyond)),
            Some((50.0, 10))
        );
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 50.0), 2.0);
        assert_eq!(percentile(&sorted, 51.0), 3.0);
        assert_eq!(percentile(&sorted, 100.0), 4.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&sorted);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[1.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn ties_win_for_neither_side() {
        let base = runs(&[10.0; 10]);
        // Nine faster runs and one tie: 9 of 10 pairs won.
        let mut change = runs(&[9.0; 10]);
        change[9].1 = 10.0;
        let c = compare(&base, &change, Better::Lower, Bound::Relative(0.1));
        assert_eq!((c.wins, c.pairs), (9, 10));
        assert_eq!(c.verdict, Verdict::Gain);

        // Eight faster runs and two ties fall short of nine tenths.
        change[8].1 = 10.0;
        let c = compare(&base, &change, Better::Lower, Bound::Relative(0.1));
        assert_eq!((c.wins, c.pairs), (8, 10));
        assert_eq!(c.verdict, Verdict::Within);

        // All ties: nothing won, nothing lost.
        let c = compare(&base, &base, Better::Lower, Bound::Relative(0.1));
        assert_eq!((c.wins, c.verdict), (0, Verdict::Within));
    }

    #[test]
    fn a_gain_must_exceed_the_parents_spread() {
        // Change wins every pair, but by less than the parent's IQR.
        let base = runs(&[10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4]);
        let change: Vec<(u64, f64)> = base.iter().map(|&(s, v)| (s, v - 0.1)).collect();
        let c = compare(&base, &change, Better::Lower, Bound::Relative(0.25));
        assert_eq!(c.wins, 8);
        assert_eq!(c.verdict, Verdict::Within);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_separated() {
        let base = runs(&[10.0, 14.0, 10.0, 14.0, 10.0, 14.0]);
        let change = runs(&[10.5, 14.5, 10.5, 14.5, 10.5, 14.5]);
        let c = compare(&base, &change, Better::Lower, Bound::Relative(0.1));
        assert_eq!(c.verdict, Verdict::Unresolved);

        // Every change run beats every parent run: decidable despite the
        // spread, and here a gain.
        let change = runs(&[5.0, 6.0, 5.0, 6.0, 5.0, 6.0]);
        let c = compare(&base, &change, Better::Lower, Bound::Relative(0.1));
        assert_eq!(c.verdict, Verdict::Gain);
    }

    #[test]
    fn relative_bounds_scale_with_the_parent_and_absolute_ones_do_not() {
        let base = runs(&[100.0; 5]);
        let change = runs(&[108.0; 5]);
        assert_eq!(
            compare(&base, &change, Better::Lower, Bound::Relative(0.1)).verdict,
            Verdict::Within
        );
        assert_eq!(
            compare(&base, &change, Better::Lower, Bound::Relative(0.05)).verdict,
            Verdict::Regression
        );
        assert_eq!(
            compare(&base, &change, Better::Lower, Bound::Absolute(10.0)).verdict,
            Verdict::Within
        );
        assert_eq!(
            compare(&base, &change, Better::Lower, Bound::Absolute(5.0)).verdict,
            Verdict::Regression
        );

        // A failure ratio with an absolute bound of zero: any failure
        // regresses, a clean run never does.
        let clean = runs(&[0.0; 5]);
        let failing = runs(&[0.001; 5]);
        assert_eq!(
            compare(&clean, &failing, Better::Lower, Bound::Absolute(0.0)).verdict,
            Verdict::Regression
        );
        assert_eq!(
            compare(&clean, &clean, Better::Lower, Bound::Absolute(0.0)).verdict,
            Verdict::Within
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let base = runs(&[100.0; 5]);
        let slower = runs(&[85.0; 5]);
        assert_eq!(
            compare(&base, &slower, Better::Higher, Bound::Relative(0.1)).verdict,
            Verdict::Regression
        );
        let faster = runs(&[130.0; 5]);
        assert_eq!(
            compare(&base, &faster, Better::Higher, Bound::Relative(0.1)).verdict,
            Verdict::Gain
        );
    }
}
