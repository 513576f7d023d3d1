//! The fabric's event agenda: a bitmap timing wheel (DESIGN.md §12).
//!
//! The paper's *output constraint* — a plane→output line carries one cell
//! every `r'` slots — bounds how far ahead a plane-service event can lie:
//! every pending `(slot, plane, output)` entry sits in
//! `[now, now + r']`. A bounded look-ahead wants a ring, not a priority
//! queue: the wheel keeps `next_power_of_two(r' + 2)` buckets, one per
//! slot of the window, each a bitmap indexed `plane · N + output`. Walking
//! the earliest bucket with `trailing_zeros` yields entries in ascending
//! `(slot, plane, output)` — exactly the pop order of a min-heap over the
//! same triples — at a few word operations per event instead of a
//! `log(K·N)`-level sift.

use pps_core::prelude::Slot;

/// Per-bucket bookkeeping.
#[derive(Clone, Copy, Debug)]
struct Bucket {
    /// The one slot every entry of this bucket is due at; meaningful while
    /// `count > 0`.
    at: Slot,
    /// Entries in the bucket.
    count: u32,
    /// No word below this index has a bit set, so a wide, sparse fabric pays
    /// one pass over the bucket per drain, not one per event.
    cursor: u32,
}

/// Pending plane-service events `(slot, plane, output)` of one fabric, at
/// most one per `(plane, output)`.
///
/// A bucket holds the entries of exactly one slot. Slots that are a
/// multiple of the wheel size apart share a bucket, so two *distinct*
/// pending slots may never alias: [`push`](Self::push) panics if they
/// would. With service called in every slot an entry is due — what both
/// engines, dense or skipping, guarantee — the live slots span at most
/// `r' + 1` buckets and cannot alias; a caller that services late is
/// served in slot order until the span outgrows the wheel, and is then
/// stopped loudly instead of being mis-ordered.
#[derive(Clone, Debug)]
pub struct Agenda {
    n: u32,
    /// Bitmap words per bucket: `ceil(K · N / 64)`.
    words: usize,
    /// Bucket count − 1 (the count is a power of two).
    mask: Slot,
    buckets: Box<[Bucket]>,
    /// `buckets × words` bitmap words, bucket-major.
    bits: Box<[u64]>,
    /// Which `(plane, output)` pairs have an entry in some bucket.
    armed: Box<[u64]>,
    len: usize,
    /// Earliest pending slot; meaningful while `len > 0`.
    head: Slot,
}

impl Agenda {
    /// An empty wheel for planes `0..k` of an `n`-output fabric whose lines
    /// are busy `r_prime` slots per cell.
    pub fn new(n: usize, k: usize, r_prime: usize) -> Self {
        assert!(
            u32::try_from(k * n).is_ok(),
            "K·N = {} does not fit the agenda's 32-bit indices",
            k * n
        );
        let words = (k * n).div_ceil(64);
        let buckets = (r_prime + 2).next_power_of_two();
        Agenda {
            n: n as u32,
            words,
            mask: buckets as Slot - 1,
            buckets: vec![
                Bucket {
                    at: 0,
                    count: 0,
                    cursor: words as u32,
                };
                buckets
            ]
            .into_boxed_slice(),
            bits: vec![0; buckets * words].into_boxed_slice(),
            armed: vec![0; words].into_boxed_slice(),
            len: 0,
            head: 0,
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// The earliest pending slot, if any. O(1).
    #[inline]
    pub fn peek(&self) -> Option<Slot> {
        (self.len > 0).then_some(self.head)
    }

    /// Arm `(plane, output)` for service at slot `at`; a no-op if the pair
    /// already has an entry (its earlier slot stands).
    ///
    /// # Panics
    ///
    /// If `at` aliases a different pending slot (see the type's docs).
    // Forced inline, like `pop_due`: left out of line, the pair cost a
    // near-empty agenda (one cell in flight, `sparse_skip`) 20 ns a cell —
    // more than the heap they replace.
    #[inline(always)]
    pub fn push(&mut self, at: Slot, plane: usize, output: usize) {
        let idx = plane * self.n as usize + output;
        let (word, bit) = (idx / 64, 1u64 << (idx % 64));
        if self.armed[word] & bit != 0 {
            return;
        }
        self.armed[word] |= bit;
        let b = (at & self.mask) as usize;
        let bucket = &mut self.buckets[b];
        if bucket.count == 0 {
            bucket.at = at;
        } else {
            assert!(
                bucket.at == at,
                "agenda window exceeded: slot {at} aliases pending slot {} on a {}-bucket wheel \
                 (service ran late by more than the wheel tolerates)",
                bucket.at,
                self.mask + 1
            );
        }
        bucket.count += 1;
        bucket.cursor = bucket.cursor.min(word as u32);
        self.bits[b * self.words + word] |= bit;
        if self.len == 0 || at < self.head {
            self.head = at;
        }
        self.len += 1;
    }

    /// Remove and return the least `(slot, plane, output)` entry with
    /// `slot <= now`, if any.
    #[inline(always)]
    pub fn pop_due(&mut self, now: Slot) -> Option<(Slot, u32, u32)> {
        if self.len == 0 || self.head > now {
            return None;
        }
        let at = self.head;
        let b = (at & self.mask) as usize;
        let bucket = &mut self.buckets[b];
        let words = &mut self.bits[b * self.words..(b + 1) * self.words];
        // `count > 0` guarantees a set bit at or after the cursor.
        let mut word = bucket.cursor as usize;
        while words[word] == 0 {
            word += 1;
        }
        let bit = words[word].trailing_zeros();
        words[word] &= words[word] - 1;
        self.armed[word] &= !(1u64 << bit);
        bucket.count -= 1;
        self.len -= 1;
        if bucket.count > 0 {
            bucket.cursor = word as u32;
        } else {
            bucket.cursor = self.words as u32;
            if self.len > 0 {
                // Eight-odd buckets: a scan per emptied bucket, not per event.
                self.head = self
                    .buckets
                    .iter()
                    .filter(|b| b.count > 0)
                    .map(|b| b.at)
                    .min()
                    .expect("len > 0: some bucket is non-empty");
            }
        }
        let idx = word as u32 * 64 + bit;
        Some((at, idx / self.n, idx % self.n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_slot_plane_output_order() {
        let mut a = Agenda::new(3, 2, 4);
        for &(at, p, j) in &[(7, 1, 2), (5, 1, 0), (5, 0, 2), (9, 0, 0), (5, 0, 1)] {
            a.push(at, p, j);
        }
        assert_eq!(a.len(), 5);
        assert_eq!(a.peek(), Some(5));
        assert_eq!(a.pop_due(4), None);
        let mut got = Vec::new();
        while let Some(e) = a.pop_due(8) {
            got.push(e);
        }
        assert_eq!(got, [(5, 0, 1), (5, 0, 2), (5, 1, 0), (7, 1, 2)]);
        assert_eq!(a.peek(), Some(9));
        assert_eq!(a.pop_due(9), Some((9, 0, 0)));
        assert_eq!(a.len(), 0);
        assert_eq!(a.peek(), None);
    }

    #[test]
    fn one_entry_per_line_and_the_earlier_slot_stands() {
        let mut a = Agenda::new(2, 2, 2);
        a.push(3, 1, 1);
        a.push(4, 1, 1);
        assert_eq!(a.len(), 1);
        assert_eq!(a.pop_due(10), Some((3, 1, 1)));
        // Popped means disarmed: the line can be armed again.
        a.push(4, 1, 1);
        assert_eq!(a.pop_due(10), Some((4, 1, 1)));
    }

    #[test]
    fn a_push_below_the_drain_cursor_is_still_found() {
        // 130 lines = 3 words; drain the high word first, then arm a line
        // in word 0 of the same slot.
        let mut a = Agenda::new(130, 1, 1);
        a.push(2, 0, 129);
        a.push(2, 0, 128);
        assert_eq!(a.pop_due(2), Some((2, 0, 128)));
        a.push(2, 0, 1);
        assert_eq!(a.pop_due(2), Some((2, 0, 1)));
        assert_eq!(a.pop_due(2), Some((2, 0, 129)));
    }

    #[test]
    fn works_at_the_top_of_the_slot_range() {
        let mut a = Agenda::new(4, 4, 4);
        let top = Slot::MAX - 4;
        a.push(top + 4, 3, 3);
        a.push(top, 0, 0);
        assert_eq!(a.peek(), Some(top));
        assert_eq!(a.pop_due(top), Some((top, 0, 0)));
        assert_eq!(a.pop_due(top + 3), None);
        assert_eq!(a.pop_due(Slot::MAX), Some((Slot::MAX, 3, 3)));
    }

    #[test]
    #[should_panic(expected = "agenda window exceeded")]
    fn aliasing_slots_fail_loudly() {
        // r' = 2: four buckets, so slots 1 and 5 share one.
        let mut a = Agenda::new(2, 2, 2);
        a.push(1, 0, 0);
        a.push(5, 1, 1);
    }
}
