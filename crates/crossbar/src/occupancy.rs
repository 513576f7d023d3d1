//! The VOQ occupancy index and the bitmap walks the match loops run on it.
//!
//! `Voqs` (crate-private; both switches hold one) owns the `N × N` virtual
//! output queues together with an [`Occupancy`]: the queue-length matrix,
//! per-input row totals, a non-empty bitmap per row and per column, and
//! the total backlog. `push` and `pop` are the only mutators and update
//! both sides, so the index is never rebuilt and cannot drift from the
//! queues (`Voqs::assert_in_sync` re-derives it after every slot in debug
//! builds). Schedulers see `&Occupancy` only.
//!
//! Bitmaps are `u64` word arrays: `ceil(N / 64)` words per port. Bits at
//! or above `N` are never set.

use std::collections::VecDeque;

/// Words needed for a bitmap of `bits` bits.
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// A `bits`-bit bitmap with every valid bit set.
pub(crate) fn fill_ones(map: &mut [u64], bits: usize) {
    map.fill(!0);
    let tail = bits % 64;
    if tail > 0 {
        if let Some(last) = map.last_mut() {
            *last = !(!0 << tail);
        }
    }
}

pub(crate) fn set_bit(map: &mut [u64], bit: usize) {
    map[bit / 64] |= 1 << (bit % 64);
}

pub(crate) fn clear_bit(map: &mut [u64], bit: usize) {
    map[bit / 64] &= !(1 << (bit % 64));
}

pub(crate) fn test_bit(map: &[u64], bit: usize) -> bool {
    map[bit / 64] >> (bit % 64) & 1 == 1
}

/// Set bits of the `n`-bit bitmap `a & b` in round-robin order from a
/// pointer: `start, start + 1, …, n − 1, 0, …, start − 1` (`start < n`).
/// The first item is what a cyclic scan `for off in 0..n { (start + off)
/// % n }` stops at.
pub(crate) fn cyclic_bits<'a>(a: &'a [u64], b: &'a [u64], start: usize) -> CyclicBits<'a> {
    let mut bits = CyclicBits {
        a,
        b,
        start,
        step: 0,
        base: 0,
        cur: 0,
    };
    bits.load();
    bits
}

/// Iterator behind [`cyclic_bits`]: walks the words from the one holding
/// `start` round to it again, the start word split into its bits at or
/// above `start` (first) and those below (last).
pub(crate) struct CyclicBits<'a> {
    a: &'a [u64],
    b: &'a [u64],
    start: usize,
    /// Words loaded before the current one; `a.len()` on the second visit
    /// of the start word.
    step: usize,
    /// Bit index of the current word's bit 0.
    base: usize,
    /// Bits of the current word still to yield.
    cur: u64,
}

impl CyclicBits<'_> {
    /// Load word `step` of the walk, if there is one.
    fn load(&mut self) -> bool {
        let words = self.a.len();
        if self.step > words || words == 0 {
            return false;
        }
        let high = !0 << (self.start % 64);
        let mut k = self.start / 64 + self.step;
        if k >= words {
            k -= words;
        }
        let mask = match self.step {
            0 => high,
            s if s == words => !high,
            _ => !0,
        };
        self.base = k * 64;
        self.cur = self.a[k] & self.b[k] & mask;
        true
    }
}

impl Iterator for CyclicBits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            self.step += 1;
            if !self.load() {
                return None;
            }
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.base + bit)
    }
}

/// Incrementally maintained occupancy of an `N × N` VOQ matrix — what a
/// [`crate::CrossbarScheduler`] is handed each slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Occupancy {
    n: usize,
    /// Words per port bitmap.
    words: usize,
    /// `lens[i * n + j]`: cells queued in VOQ `(i, j)`.
    lens: Vec<usize>,
    /// Cells queued at input `i`, over all outputs.
    row_totals: Vec<usize>,
    /// Row `i` at `i * words ..`: bit `j` set iff VOQ `(i, j)` is non-empty.
    rows: Vec<u64>,
    /// Column `j` at `j * words ..`: bit `i` set iff VOQ `(i, j)` is
    /// non-empty.
    cols: Vec<u64>,
    backlog: usize,
}

impl Occupancy {
    /// The index of an all-empty `n × n` matrix.
    fn new(n: usize) -> Self {
        let words = words_for(n);
        Occupancy {
            n,
            words,
            lens: vec![0; n * n],
            row_totals: vec![0; n],
            rows: vec![0; n * words],
            cols: vec![0; n * words],
            backlog: 0,
        }
    }

    /// The index of a given dense matrix (`lens[i * n + j]`), for tests
    /// that call a scheduler without a switch around it.
    pub fn from_lens(n: usize, lens: &[usize]) -> Self {
        let mut occ = Occupancy::new(n);
        for (at, &l) in lens.iter().enumerate().take(n * n) {
            occ.add(at / n, at % n, l);
        }
        occ
    }

    /// Words per port bitmap (`ceil(n / 64)`).
    pub(crate) fn words(&self) -> usize {
        self.words
    }

    /// Cells queued in VOQ `(i, j)`.
    #[inline]
    pub(crate) fn len(&self, i: usize, j: usize) -> usize {
        self.lens[i * self.n + j]
    }

    /// Whether no VOQ holds a cell.
    pub(crate) fn is_empty(&self) -> bool {
        self.backlog == 0
    }

    /// Cells queued at input `i`.
    #[inline]
    pub(crate) fn row_total(&self, i: usize) -> usize {
        self.row_totals[i]
    }

    /// Bitmap of the outputs input `i` holds cells for.
    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.words..(i + 1) * self.words]
    }

    /// Bitmap of the inputs holding cells for output `j`.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &[u64] {
        &self.cols[j * self.words..(j + 1) * self.words]
    }

    /// The outputs input `i` holds cells for, ascending.
    pub(crate) fn row_outputs(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let row = self.row(i);
        cyclic_bits(row, row, 0)
    }

    /// Cells queued over the whole matrix.
    #[inline]
    pub(crate) fn backlog(&self) -> usize {
        self.backlog
    }

    fn add(&mut self, i: usize, j: usize, cells: usize) {
        if cells == 0 {
            return;
        }
        self.lens[i * self.n + j] += cells;
        self.row_totals[i] += cells;
        self.backlog += cells;
        set_bit(&mut self.rows[i * self.words..], j);
        set_bit(&mut self.cols[j * self.words..], i);
    }

    fn remove_one(&mut self, i: usize, j: usize) {
        let len = &mut self.lens[i * self.n + j];
        *len -= 1;
        if *len == 0 {
            clear_bit(&mut self.rows[i * self.words..], j);
            clear_bit(&mut self.cols[j * self.words..], i);
        }
        self.row_totals[i] -= 1;
        self.backlog -= 1;
    }
}

/// The `N × N` FIFO virtual output queues of a switch plus their
/// [`Occupancy`], kept in step by construction.
#[derive(Clone, Debug)]
pub(crate) struct Voqs<T> {
    queues: Vec<VecDeque<T>>,
    occ: Occupancy,
}

impl<T> Voqs<T> {
    pub(crate) fn new(n: usize) -> Self {
        Voqs {
            queues: (0..n * n).map(|_| VecDeque::new()).collect(),
            occ: Occupancy::new(n),
        }
    }

    pub(crate) fn occupancy(&self) -> &Occupancy {
        &self.occ
    }

    pub(crate) fn push(&mut self, i: usize, j: usize, item: T) {
        self.queues[i * self.occ.n + j].push_back(item);
        self.occ.add(i, j, 1);
    }

    pub(crate) fn front(&self, i: usize, j: usize) -> Option<&T> {
        self.queues[i * self.occ.n + j].front()
    }

    pub(crate) fn pop(&mut self, i: usize, j: usize) -> Option<T> {
        let item = self.queues[i * self.occ.n + j].pop_front()?;
        self.occ.remove_one(i, j);
        Some(item)
    }

    /// Drift guard: the index re-derived from the queues must equal the
    /// maintained one. O(N²); the switches call it after every slot in
    /// debug builds.
    #[cfg(any(debug_assertions, test))]
    pub(crate) fn assert_in_sync(&self) {
        let lens: Vec<usize> = self.queues.iter().map(VecDeque::len).collect();
        assert_eq!(
            self.occ,
            Occupancy::from_lens(self.occ.n, &lens),
            "occupancy index drifted from the VOQs"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cyclic_bits_wrap_like_a_modular_scan() {
        // Off word boundaries and across them: the bitmap walk must visit
        // exactly what `(start + off) % n` visits, in that order.
        for n in [1usize, 5, 63, 64, 65, 130] {
            let words = words_for(n);
            let mut a = vec![0u64; words];
            let mut b = vec![0u64; words];
            fill_ones(&mut b, n);
            for bit in (0..n).filter(|x| x % 3 == 0 || x % 7 == 5) {
                set_bit(&mut a, bit);
            }
            clear_bit(&mut b, n / 2);
            for start in 0..n {
                let want: Vec<usize> = (0..n)
                    .map(|off| (start + off) % n)
                    .filter(|&x| (x % 3 == 0 || x % 7 == 5) && x != n / 2)
                    .collect();
                let got: Vec<usize> = cyclic_bits(&a, &b, start).collect();
                assert_eq!(got, want, "n {n}, start {start}");
            }
        }
    }

    #[test]
    fn fill_ones_sets_exactly_the_valid_bits() {
        for n in [0usize, 1, 63, 64, 65, 128, 130] {
            let mut m = vec![0u64; words_for(n)];
            fill_ones(&mut m, n);
            let ones: u32 = m.iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones as usize, n, "n {n}");
        }
    }

    #[test]
    fn push_and_pop_keep_the_index_equal_to_the_queues() {
        let n = 70;
        let mut v: Voqs<u32> = Voqs::new(n);
        let mut x = 9u64;
        for step in 0..4_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (i, j) = ((x >> 33) as usize % n, (x >> 13) as usize % n);
            if !x.is_multiple_of(3) {
                v.push(i, j, step);
            } else {
                v.pop(i, j);
            }
            v.assert_in_sync();
        }
        assert!(v.occupancy().backlog() > 0);
        assert_eq!(v.front(0, 0).is_some(), v.occupancy().len(0, 0) > 0);
    }

    #[test]
    fn zero_ports_is_an_empty_index() {
        let occ = Occupancy::new(0);
        assert!(occ.is_empty());
        assert_eq!(occ.words(), 0);
        Voqs::<u8>::new(0).assert_in_sync();
    }
}
