//! The yardstick: a fixed piece of work timed beside every rep, so that a
//! rep's wall time can be stated in units the host's mood does not move.
//!
//! The box this benchmark runs on is a small KVM guest whose speed drifts
//! with its neighbours: the same binary on the same seed ran 40 % slower an
//! hour later, and back-to-back 15 s runs of one workload spread (distance
//! between quartiles ÷ median) by 12–35 % in a noisy hour — more than any
//! bound the benchmark is allowed to set. The drift is multiplicative and
//! slow (whole runs shift while their own quartiles stay tight), so no
//! statistic of the reps alone removes it; minimum, lower quartile and
//! trimmed means were all tried and spread as much as the median.
//!
//! What does remove most of it is measuring the host at the same moment:
//! a yardstick run before and after each op (a rep, or one experiment of
//! `registry`), and the op's wall time divided by their mean. On the same noisy hour that took the spreads to
//! 4–13 % (`wide_lockstep` 23 % → 3.6 %, `sparse_skip` 35 % → 13 %). Three
//! kernels were tried on the same runs — random read-modify-write over a
//! table larger than the cache, allocate-fill-sum of a fresh vector, pure
//! ALU — and the first tracked the simulator best, alone better than in
//! any mix.
//!
//! A normalised time is `rep wall ÷ yardstick wall × NOMINAL_S`: seconds
//! on this box when it is quiet. Raw medians are printed beside it.

use std::time::Instant;

/// The yardstick's wall time on the quiet box the committed numbers came
/// from; scales normalised times back to seconds.
pub const NOMINAL_S: f64 = 0.005;

/// Words in the table: 16 MiB, several times the last-level cache slice a
/// 2-vCPU guest can count on.
const TABLE_WORDS: usize = 1 << 21;
/// Read-modify-write steps per run (~5 ms).
const STEPS: usize = 400_000;

/// The reference work, its table, and how long its last run took.
pub struct Yardstick {
    table: Vec<u64>,
    last_s: f64,
}

impl Default for Yardstick {
    fn default() -> Self {
        Self::new()
    }
}

impl Yardstick {
    /// Build the table and run twice: once to pay for the table's page
    /// faults, once to have a first reading.
    pub fn new() -> Self {
        let mut yardstick = Yardstick {
            table: vec![0; TABLE_WORDS],
            last_s: 0.0,
        };
        yardstick.run();
        yardstick.last_s = yardstick.run();
        yardstick
    }

    /// Do the reference work; returns its wall time in seconds.
    fn run(&mut self) -> f64 {
        let start = Instant::now();
        let mask = self.table.len() as u64 - 1;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..STEPS {
            // xorshift64: the next index depends on nothing but the last.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = &mut self.table[(x & mask) as usize];
            *slot = slot.wrapping_add(x) ^ (x >> 3);
        }
        std::hint::black_box(&mut self.table);
        start.elapsed().as_secs_f64()
    }

    /// Time `f` between two yardstick runs: the one that ended the last
    /// call (calls are meant to follow each other closely) and one made
    /// now. Returns `f`'s result, its raw wall time and its normalised wall
    /// time, both in seconds.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let before_s = self.last_s;
        let start = Instant::now();
        let out = f();
        let raw_s = start.elapsed().as_secs_f64();
        self.last_s = self.run();
        let normalised_s = raw_s / ((before_s + self.last_s) / 2.0) * NOMINAL_S;
        (out, raw_s, normalised_s)
    }

    /// Wall time of the most recent yardstick run, in seconds.
    pub fn last_s(&self) -> f64 {
        self.last_s
    }
}
