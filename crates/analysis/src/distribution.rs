//! Delay distributions: percentiles and compact ASCII histograms.
//!
//! The headline metrics (max relative delay/jitter) tell the worst-case
//! story; the distributions tell the typical-case one — e.g. E14's study
//! of the randomized demultiplexor, or quantifying how rare the Θ(N)
//! worst case is under benign load.

use pps_core::prelude::*;

/// Per-cell relative delays (`delay_PPS − delay_OQ`), one entry per cell
/// delivered by both switches, in cell-id order.
pub fn relative_delays(pps: &RunLog, oq: &RunLog) -> Vec<i64> {
    assert_eq!(pps.len(), oq.len(), "logs must cover the same trace");
    pps.records()
        .iter()
        .zip(oq.records())
        .filter_map(|(p, o)| match (p.delay(), o.delay()) {
            (Some(dp), Some(dq)) => Some(dp as i64 - dq as i64),
            _ => None,
        })
        .collect()
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
    /// Compute order statistics (sorts a copy; `None` for empty input).
    pub fn from(values: &[i64]) -> Option<Percentiles> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_unstable();
        let at = |q: usize| v[(v.len().saturating_sub(1)) * q / 100];
        Some(Percentiles {
            count: v.len(),
            min: v[0],
            p50: at(50),
            p95: at(95),
            p99: at(99),
            max: *v.last().unwrap(),
            mean: v.iter().sum::<i64>() as f64 / v.len() as f64,
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
    /// Compute exact tail quantiles (sorts a copy; `None` for empty input).
    pub fn from(values: &[i64]) -> Option<TailQuantiles> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_unstable();
        Some(TailQuantiles {
            count: v.len(),
            mean: v.iter().sum::<i64>() as f64 / v.len() as f64,
            p99: Self::order_stat(&v, 99, 100),
            p999: Self::order_stat(&v, 999, 1000),
            max: *v.last().unwrap(),
        })
    }

    /// Lower quantile `num/den` of a sorted sample: `v[ceil(f·n) − 1]`.
    fn order_stat(sorted: &[i64], num: usize, den: usize) -> i64 {
        let rank = (sorted.len() * num).div_ceil(den).max(1) - 1;
        sorted[rank]
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

/// A fixed-bucket histogram over `[min, max]` with an ASCII rendering.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<(i64, i64, usize)>, // [lo, hi), count
}

impl Histogram {
    /// Bucket `values` into `buckets` equal-width bins (`None` if empty).
    pub fn build(values: &[i64], buckets: usize) -> Option<Histogram> {
        if values.is_empty() || buckets == 0 {
            return None;
        }
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let width = (((max - min) as u64 / buckets as u64) + 1) as i64;
        let mut out: Vec<(i64, i64, usize)> = (0..buckets)
            .map(|b| {
                let lo = min + b as i64 * width;
                (lo, lo + width, 0)
            })
            .collect();
        for &v in values {
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
        assert!(Percentiles::from(&[]).is_none());
        assert!(Histogram::build(&[], 4).is_none());
    }

    #[test]
    fn single_value_sample() {
        let p = Percentiles::from(&[7]).unwrap();
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
        let mut v: Vec<i64> = Vec::new();
        for i in 0..10_000i64 {
            v.push(i % 7);
        }
        for i in 0..100i64 {
            v.push(100 + i * i);
        }
        let t = TailQuantiles::from(&v).unwrap();
        assert_eq!(t.p99, ref_quantile(&v, 99, 100));
        assert_eq!(t.p999, ref_quantile(&v, 999, 1000));
        assert_eq!(t.max, *v.iter().max().unwrap());
        assert_eq!(t.count, v.len());
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
        let one = TailQuantiles::from(&[42]).unwrap();
        assert_eq!((one.p99, one.p999, one.max), (42, 42, 42));
        assert!(TailQuantiles::from(&[]).is_none());
    }

    #[test]
    fn tail_quantiles_small_sample_rule_is_exact() {
        // Pin the defined small-sample behavior at every boundary size.
        // Samples are 1..=n so the i-th order statistic is just i.

        // n = 1: every quantile is the value; nothing is resolvable.
        let t = TailQuantiles::from(&[42]).unwrap();
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
        assert_eq!(relative_delays(&pps, &oq), vec![4, 4]);
    }
}
