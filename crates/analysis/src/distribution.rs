//! Delay distributions: percentiles and compact ASCII histograms.
//!
//! The headline metrics (max relative delay/jitter) tell the worst-case
//! story; the distributions tell the typical-case one — e.g. E14's study
//! of the randomized demultiplexor, or quantifying how rare the Θ(N)
//! worst case is under benign load.

use crate::metrics::{delay_pairs, relative};
use pps_core::prelude::*;

/// Per-cell relative delays (`delay_PPS − delay_OQ`) of two logs over one
/// trace, one value per cell delivered by both switches, in cell-id order.
///
/// # Panics
/// Panics if the logs do not cover the same cells.
pub fn relative_delays<'a>(pps: &'a RunLog, oq: &'a RunLog) -> RelativeDelays<'a> {
    assert_eq!(pps.len(), oq.len(), "logs must cover the same trace");
    RelativeDelays { pps, oq }
}

/// The relative delays of two logs ([`relative_delays`]): a view that
/// stores nothing per cell. Each walk streams the two delay columns again.
#[derive(Clone, Copy)]
pub struct RelativeDelays<'a> {
    pps: &'a RunLog,
    oq: &'a RunLog,
}

impl<'a> RelativeDelays<'a> {
    /// The values, in cell-id order.
    pub fn iter(&self) -> impl Iterator<Item = i64> + 'a {
        delay_pairs(self.pps, self.oq).filter_map(|(p, q)| Some(relative(p?, q?)))
    }
}

/// A sample the order statistics read in two passes ([`Percentiles`],
/// [`TailQuantiles`], [`Histogram`]): a slice or vector of values,
/// or a [`RelativeDelays`] view over two logs.
pub trait Sample {
    /// The values, in order; every call walks the whole sample again.
    fn values(&self) -> impl Iterator<Item = i64> + '_;
}

impl Sample for [i64] {
    fn values(&self) -> impl Iterator<Item = i64> + '_ {
        self.iter().copied()
    }
}

impl Sample for Vec<i64> {
    fn values(&self) -> impl Iterator<Item = i64> + '_ {
        self.iter().copied()
    }
}

impl Sample for RelativeDelays<'_> {
    fn values(&self) -> impl Iterator<Item = i64> + '_ {
        self.iter()
    }
}

/// What one pass over a non-empty sample gives.
struct Summary {
    count: usize,
    min: i64,
    max: i64,
    sum: i64,
}

impl Summary {
    /// `None` for an empty sample.
    fn of<S: Sample + ?Sized>(sample: &S) -> Option<Self> {
        let mut values = sample.values();
        let first = values.next()?;
        Some(values.fold(
            Summary {
                count: 1,
                min: first,
                max: first,
                sum: first,
            },
            |s, v| Summary {
                count: s.count + 1,
                min: s.min.min(v),
                max: s.max.max(v),
                sum: s.sum + v,
            },
        ))
    }

    /// Arithmetic mean.
    fn mean(&self) -> f64 {
        self.sum as f64 / self.count as f64
    }
}

/// Order statistics of a sample.
#[derive(Clone, Debug, PartialEq)]
pub struct Percentiles {
    /// Sample size.
    pub count: usize,
    /// Minimum.
    pub min: i64,
    /// Median (lower interpolation).
    pub p50: i64,
    /// 95th percentile.
    pub p95: i64,
    /// 99th percentile.
    pub p99: i64,
    /// Maximum.
    pub max: i64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Percentiles {
    /// Compute exact order statistics (`None` for empty input): counted
    /// when the sample's range is no wider than the sample, else from a
    /// sorted copy.
    pub fn from<S: Sample + ?Sized>(values: &S) -> Option<Percentiles> {
        let v = OrderStats::of(values)?;
        let at = |q: usize| v.nth((v.summary.count - 1) * q / 100);
        Some(Percentiles {
            count: v.summary.count,
            min: v.summary.min,
            p50: at(50),
            p95: at(95),
            p99: at(99),
            max: v.summary.max,
            mean: v.summary.mean(),
        })
    }

    /// One-line summary for tables.
    pub fn summary(&self) -> String {
        format!(
            "n={} min={} p50={} p95={} p99={} max={} mean={:.2}",
            self.count, self.min, self.p50, self.p95, self.p99, self.max, self.mean
        )
    }
}

/// Tail order statistics of a sample — the far-quantile companion to
/// [`Percentiles`], for the stochastic-workload experiments where the
/// interesting signal lives at p99/p999 rather than the median.
///
/// Quantiles use the lower (type-1) definition on the sorted sample:
/// `q(f) = v[ceil(f·count) − 1]`, so `p999` of 1000 samples is the 999th
/// order statistic and a sample of one returns that value for every
/// quantile.
///
/// ## Small samples — the defined rule
///
/// For `count < 1/(1 − f)` the ceil lands on the last order statistic, so
/// the quantile **equals the maximum by definition** (e.g. `p999` of any
/// sample under 1000 is the max; `p99` of any sample under 100 likewise).
/// That is the type-1 answer, not an indexing accident — but it means a
/// small-sample `p999` carries no information beyond `max`. Callers
/// deciding whether to *report* a tail quantile should gate on
/// [`resolvable`](Self::resolvable); the experiment tables print `~` next
/// to unresolved tails rather than implying a measured 99.9th percentile
/// from 200 cells. Exact ranks at the boundary (`values 1..=n`):
///
/// | n | p99 rank (1-based) | p999 rank |
/// |---|---|---|
/// | 999 | 990 | 999 (= max) |
/// | 1000 | 990 | 999 (max − 1) |
/// | 1001 | 991 | 1000 (max − 1) |
#[derive(Clone, Debug, PartialEq)]
pub struct TailQuantiles {
    /// Sample size.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// 99th percentile (exact order statistic).
    pub p99: i64,
    /// 99.9th percentile (exact order statistic).
    pub p999: i64,
    /// Maximum.
    pub max: i64,
}

impl TailQuantiles {
    /// Compute exact tail quantiles (`None` for empty input): counted when
    /// the sample's range is no wider than the sample, else from a sorted
    /// copy.
    pub fn from<S: Sample + ?Sized>(values: &S) -> Option<TailQuantiles> {
        let v = OrderStats::of(values)?;
        let n = v.summary.count;
        // Lower quantile `num/den`: the `ceil(f·n)`-th order statistic.
        let at = |num: usize, den: usize| v.nth((n * num).div_ceil(den).max(1) - 1);
        Some(TailQuantiles {
            count: n,
            mean: v.summary.mean(),
            p99: at(99, 100),
            p999: at(999, 1000),
            max: v.summary.max,
        })
    }

    /// Whether a `1 − 1/den` tail quantile of this sample is resolvable —
    /// i.e. can differ from the maximum. With fewer than `den` samples the
    /// type-1 rank is pinned to the last order statistic, so the quantile
    /// is definitionally the max and adds nothing; callers should report
    /// it as such (see the struct-level small-sample rule).
    pub fn resolvable(&self, den: usize) -> bool {
        self.count >= den
    }
}

/// Exact order statistics of a non-empty sample, in two passes: the first
/// is the [`Summary`]. When the values span no more distinct integers than
/// there are values (`max − min + 1 ≤ len`, as for relative delays and
/// queuing delays) the second pass counts them, so the count array is never
/// larger than the sorted copy it replaces, no sort runs and no per-value
/// copy is made; otherwise the second pass collects a sorted copy.
struct OrderStats {
    summary: Summary,
    ranked: Ranked,
}

enum Ranked {
    /// `counts[i]` values equal `min + i`.
    Counted(Vec<usize>),
    /// The sample, sorted.
    Sorted(Vec<i64>),
}

impl OrderStats {
    /// `None` for an empty sample.
    fn of<S: Sample + ?Sized>(values: &S) -> Option<Self> {
        let summary = Summary::of(values)?;
        let (min, max) = (summary.min, summary.max);
        let ranked = if max.abs_diff(min) < summary.count as u64 {
            let mut counts = vec![0usize; max.abs_diff(min) as usize + 1];
            for v in values.values() {
                counts[v.abs_diff(min) as usize] += 1;
            }
            Ranked::Counted(counts)
        } else {
            let mut sorted: Vec<i64> = values.values().collect();
            sorted.sort_unstable();
            Ranked::Sorted(sorted)
        };
        Some(OrderStats { summary, ranked })
    }

    /// The `rank`-th smallest value (0-based), `rank < len`.
    fn nth(&self, rank: usize) -> i64 {
        match &self.ranked {
            Ranked::Sorted(sorted) => sorted[rank],
            Ranked::Counted(counts) => {
                let mut below = 0;
                for (i, &c) in counts.iter().enumerate() {
                    below += c;
                    if below > rank {
                        return self.summary.min + i as i64;
                    }
                }
                unreachable!("rank {rank} is past the sample")
            }
        }
    }
}

/// A fixed-bucket histogram over `[min, max]` with an ASCII rendering.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<(i64, i64, usize)>, // [lo, hi), count
}

impl Histogram {
    /// Bucket `values` into `buckets` equal-width bins (`None` if empty).
    pub fn build<S: Sample + ?Sized>(values: &S, buckets: usize) -> Option<Histogram> {
        if buckets == 0 {
            return None;
        }
        let Summary { min, max, .. } = Summary::of(values)?;
        let width = (((max - min) as u64 / buckets as u64) + 1) as i64;
        let mut out: Vec<(i64, i64, usize)> = (0..buckets)
            .map(|b| {
                let lo = min + b as i64 * width;
                (lo, lo + width, 0)
            })
            .collect();
        for v in values.values() {
            let idx = (((v - min) / width) as usize).min(buckets - 1);
            out[idx].2 += 1;
        }
        // Trim empty trailing buckets.
        while out.len() > 1 && out.last().unwrap().2 == 0 {
            out.pop();
        }
        Some(Histogram { buckets: out })
    }

    /// Render as an ASCII bar chart, `width` columns for the longest bar.
    pub fn render(&self, width: usize) -> String {
        let max_count = self
            .buckets
            .iter()
            .map(|&(_, _, c)| c)
            .max()
            .unwrap_or(1)
            .max(1);
        let mut out = String::new();
        for &(lo, hi, count) in &self.buckets {
            let bar = "#".repeat((count * width).div_ceil(max_count).min(width));
            out.push_str(&format!("{lo:>6}..{hi:<6} | {bar} {count}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_a_ramp() {
        let v: Vec<i64> = (0..100).collect();
        let p = Percentiles::from(&v).unwrap();
        assert_eq!(p.min, 0);
        assert_eq!(p.max, 99);
        assert_eq!(p.p50, 49);
        assert_eq!(p.p95, 94);
        assert!((p.mean - 49.5).abs() < 1e-9);
    }

    #[test]
    fn empty_sample_is_none() {
        assert!(Percentiles::from(&[][..]).is_none());
        assert!(Histogram::build(&[][..], 4).is_none());
    }

    #[test]
    fn single_value_sample() {
        let p = Percentiles::from(&[7][..]).unwrap();
        assert_eq!((p.min, p.p50, p.max), (7, 7, 7));
    }

    #[test]
    fn histogram_counts_everything_once() {
        let v: Vec<i64> = (0..50).map(|i| i % 10).collect();
        let h = Histogram::build(&v, 5).unwrap();
        let total: usize = h.buckets.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn histogram_renders_bars() {
        let v = vec![0, 0, 0, 5, 9];
        let h = Histogram::build(&v, 2).unwrap();
        let s = h.render(10);
        assert!(s.contains('#'), "{s}");
        assert!(s.lines().count() >= 2);
    }

    /// Reference lower quantile on a sorted copy, straight from the
    /// definition — what TailQuantiles is pinned against.
    fn ref_quantile(values: &[i64], num: usize, den: usize) -> i64 {
        let mut v = values.to_vec();
        v.sort_unstable();
        v[(v.len() * num).div_ceil(den).max(1) - 1]
    }

    #[test]
    fn tail_quantiles_match_sorted_reference() {
        // A deliberately lumpy sample: heavy head, thin geometric tail.
        let mut lumpy: Vec<i64> = Vec::new();
        for i in 0..10_000i64 {
            lumpy.push(i % 7);
        }
        for i in 0..100i64 {
            lumpy.push(100 + i * i);
        }
        // Relative delays: negative as well as positive, range ≪ count.
        let signed: Vec<i64> = (0..5_000i64).map(|i| (i * 7919) % 61 - 30).collect();
        // Range ≫ count: the sorted-copy path.
        let wide: Vec<i64> = (0..300i64)
            .map(|i| (i * 1_000_003) % 7_919 - 4_000)
            .chain([-(1 << 40), 1 << 40, -1, 0])
            .collect();
        // Range exactly the count: the widest sample that is counted.
        let edge: Vec<i64> = (-50..50).rev().collect();
        let samples = [
            (lumpy, true),
            (signed, true),
            (wide, false),
            (edge, true),
            (vec![-3], true),
            (vec![9; 2_000], true),
        ];
        for (v, counted) in samples {
            let ranked = OrderStats::of(&v).unwrap().ranked;
            assert_eq!(
                matches!(ranked, Ranked::Counted(_)),
                counted,
                "{:?}",
                &v[..1]
            );
            let t = TailQuantiles::from(&v).unwrap();
            assert_eq!(t.p99, ref_quantile(&v, 99, 100));
            assert_eq!(t.p999, ref_quantile(&v, 999, 1000));
            assert_eq!(t.max, *v.iter().max().unwrap());
            assert_eq!(t.count, v.len());
            let p = Percentiles::from(&v).unwrap();
            let mut sorted = v.clone();
            sorted.sort_unstable();
            let at = |q: usize| sorted[(sorted.len() - 1) * q / 100];
            assert_eq!(
                (p.min, p.p50, p.p95, p.p99, p.max),
                (sorted[0], at(50), at(95), at(99), *sorted.last().unwrap())
            );
        }
    }

    #[test]
    fn tail_quantiles_exact_ranks_on_round_sizes() {
        // 1000 distinct values 1..=1000: p99 is the 990th order statistic,
        // p999 the 999th.
        let v: Vec<i64> = (1..=1000).collect();
        let t = TailQuantiles::from(&v).unwrap();
        assert_eq!(t.p99, 990);
        assert_eq!(t.p999, 999);
        assert_eq!(t.max, 1000);
        // Degenerate single sample: every quantile is the value.
        let one = TailQuantiles::from(&[42][..]).unwrap();
        assert_eq!((one.p99, one.p999, one.max), (42, 42, 42));
        assert!(TailQuantiles::from(&[][..]).is_none());
    }

    #[test]
    fn tail_quantiles_small_sample_rule_is_exact() {
        // Pin the defined small-sample behavior at every boundary size.
        // Samples are 1..=n so the i-th order statistic is just i.

        // n = 1: every quantile is the value; nothing is resolvable.
        let t = TailQuantiles::from(&[42][..]).unwrap();
        assert_eq!((t.p99, t.p999, t.max), (42, 42, 42));
        assert!(!t.resolvable(100) && !t.resolvable(1000));

        // n = 10: ceil(9.9) = ceil(9.99) = 10 → both tails are the max,
        // by the rule, and flagged unresolvable.
        let v: Vec<i64> = (1..=10).collect();
        let t = TailQuantiles::from(&v).unwrap();
        assert_eq!((t.p99, t.p999, t.max), (10, 10, 10));
        assert!(!t.resolvable(100) && !t.resolvable(1000));

        // n = 999: p99 = ceil(989.01) = 990th stat; p999 = ceil(998.001)
        // = 999th = max — the largest sample where p999 still aliases max.
        let v: Vec<i64> = (1..=999).collect();
        let t = TailQuantiles::from(&v).unwrap();
        assert_eq!((t.p99, t.p999, t.max), (990, 999, 999));
        assert!(t.resolvable(100) && !t.resolvable(1000));

        // n = 1000: p999 = 999th stat — one *below* the max for the first
        // time, and now resolvable.
        let v: Vec<i64> = (1..=1000).collect();
        let t = TailQuantiles::from(&v).unwrap();
        assert_eq!((t.p99, t.p999, t.max), (990, 999, 1000));
        assert!(t.resolvable(1000));

        // n = 1001: p99 = ceil(990.99) = 991st; p999 = ceil(999.999) =
        // 1000th — still strictly below the 1001st (max).
        let v: Vec<i64> = (1..=1001).collect();
        let t = TailQuantiles::from(&v).unwrap();
        assert_eq!((t.p99, t.p999, t.max), (991, 1000, 1001));
        assert!(t.resolvable(1000));
    }

    #[test]
    fn relative_delays_joins_by_id() {
        // Reuse the RunLog machinery: two 2-cell logs.
        let t = Trace::build(vec![Arrival::new(0, 0, 0), Arrival::new(1, 0, 0)], 1).unwrap();
        let cells = t.cells(1);
        let mut pps = RunLog::with_cells(&cells);
        let mut oq = RunLog::with_cells(&cells);
        pps.set_departure(CellId(0), 4);
        pps.set_departure(CellId(1), 5);
        oq.set_departure(CellId(0), 0);
        oq.set_departure(CellId(1), 1);
        assert_eq!(
            relative_delays(&pps, &oq).iter().collect::<Vec<_>>(),
            vec![4, 4]
        );
    }

    /// Two logs of one trace with a PPS delay of `pps_delay(i)` and an OQ
    /// delay of `i % 3` for cell `i`; `None` leaves the PPS cell queued.
    fn join(cells: u64, pps_delay: impl Fn(u64) -> Option<Slot>) -> (RunLog, RunLog) {
        let t = Trace::build((0..cells).map(|s| Arrival::new(s, 0, 0)).collect(), 1).unwrap();
        let cells = t.cells(1);
        let mut pps = RunLog::with_cells(&cells);
        let mut oq = RunLog::with_cells(&cells);
        for c in &cells {
            if let Some(d) = pps_delay(c.id.0) {
                pps.set_departure(c.id, c.arrival + d);
            }
            oq.set_departure(c.id, c.arrival + c.id.0 % 3);
        }
        (pps, oq)
    }

    /// The relative delays as a collected vector, from the decoded records:
    /// a reference for the view that shares none of its code.
    fn collected(pps: &RunLog, oq: &RunLog) -> Vec<i64> {
        pps.records()
            .zip(oq.records())
            .filter_map(|(p, q)| Some(p.departure()? as i64 - q.departure()? as i64))
            .collect()
    }

    #[test]
    fn the_view_reads_what_the_collected_vector_held() {
        let narrow = join(2_000, |i| (i % 97 != 5).then_some(i % 11));
        let wide = join(40, |i| (i != 7).then_some(i * i * 1_000));
        for (paths, (pps, oq)) in [("counted", narrow), ("sorted", wide)] {
            let view = relative_delays(&pps, &oq);
            let vec = collected(&pps, &oq);
            assert_eq!(view.iter().collect::<Vec<_>>(), vec, "{paths}");
            assert!(vec.len() < pps.len(), "a PPS cell is undelivered");
            let ranked = OrderStats::of(&view).unwrap().ranked;
            assert_eq!(matches!(ranked, Ranked::Counted(_)), paths == "counted");
            assert_eq!(TailQuantiles::from(&view), TailQuantiles::from(&vec));
            assert_eq!(Percentiles::from(&view), Percentiles::from(&vec));
            let (h, hv) = (
                Histogram::build(&view, 7).unwrap(),
                Histogram::build(&vec, 7).unwrap(),
            );
            assert_eq!(h.buckets, hv.buckets, "{paths}");
        }
        let (pps, oq) = join(3, |_| None);
        assert!(TailQuantiles::from(&relative_delays(&pps, &oq)).is_none());
    }
}
