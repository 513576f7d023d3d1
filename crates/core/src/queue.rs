//! Per-key FIFO queues in one slab, with occupancy accounting.
//!
//! Plane buffers and output resequencing buffers are the places where
//! relative queuing delay physically accumulates; the paper notes that large
//! relative delays imply correspondingly large buffers ("large relative
//! queuing delays usually imply that the buffer sizes at the middle-stage
//! switches or at the external ports should be large as well"). Tracking the
//! high-water mark per queue lets the experiments report that implication
//! directly.
//!
//! A switch buffers per destination, so its queues are many and mostly
//! short: a plane of a 512-port switch keeps 512 of them. [`FifoSlab`] holds
//! all of one switch's (or plane's) queues in one slab of entries linked by
//! index, with 16 bytes of head, tail, length and high-water mark per key.
//! Popped slots go on a free list and are reused, so the slab never holds
//! more entries than were ever queued at once.

/// The end of the free list.
const NIL: u32 = u32::MAX;

/// One key's queue: the slab indices of its ends, its length, and the
/// highest length it ever reached. The length alone says whether the queue
/// is empty; the ends of an empty queue are stale, so pushing and popping
/// branch on nothing else.
#[derive(Clone, Copy, Debug)]
struct Lane {
    head: u32,
    tail: u32,
    len: u32,
    max: u32,
}

/// A queued item and the slab index of the next one in its queue (stale
/// at the tail), or, on the free list, of the next free slot.
#[derive(Clone, Copy, Debug)]
struct Entry<T> {
    item: T,
    next: u32,
}

/// `keys` FIFO queues sharing one slab; each tracks its high-water mark.
#[derive(Clone, Debug)]
pub struct FifoSlab<T> {
    lanes: Vec<Lane>,
    entries: Vec<Entry<T>>,
    /// Head of the free list of popped slots, linked through `next`.
    free: u32,
    /// Items queued across all keys.
    backlog: usize,
}

impl<T: Copy> FifoSlab<T> {
    /// `keys` empty queues; the slab holds no entry until the first push.
    pub fn new(keys: usize) -> Self {
        FifoSlab {
            lanes: vec![
                Lane {
                    head: 0,
                    tail: 0,
                    len: 0,
                    max: 0,
                };
                keys
            ],
            entries: Vec::new(),
            free: NIL,
            backlog: 0,
        }
    }

    /// Append `item` at the tail of `key`'s queue, in a popped slot if
    /// there is one.
    pub fn push(&mut self, key: usize, item: T) {
        let slot = if self.free != NIL {
            let slot = self.free;
            let entry = &mut self.entries[slot as usize];
            self.free = entry.next;
            entry.item = item;
            slot
        } else {
            let slot = self.entries.len();
            assert!(slot < NIL as usize, "more than 2³²−1 items queued at once");
            self.entries.push(Entry { item, next: NIL });
            slot as u32
        };
        let lane = &mut self.lanes[key];
        if lane.len == 0 {
            lane.head = slot;
        } else {
            self.entries[lane.tail as usize].next = slot;
        }
        lane.tail = slot;
        lane.len += 1;
        lane.max = lane.max.max(lane.len);
        self.backlog += 1;
    }

    /// Remove and return the head of `key`'s queue; its slot goes on the
    /// free list.
    pub fn pop(&mut self, key: usize) -> Option<T> {
        let lane = &mut self.lanes[key];
        if lane.len == 0 {
            return None;
        }
        let slot = lane.head;
        let entry = &mut self.entries[slot as usize];
        lane.head = entry.next;
        lane.len -= 1;
        entry.next = self.free;
        self.free = slot;
        self.backlog -= 1;
        Some(entry.item)
    }

    /// Number of queues.
    pub fn keys(&self) -> usize {
        self.lanes.len()
    }

    /// Occupancy of `key`'s queue.
    pub fn len(&self, key: usize) -> usize {
        self.lanes[key].len as usize
    }

    /// Items queued across all keys.
    pub fn backlog(&self) -> usize {
        self.backlog
    }

    /// Highest occupancy any one queue ever reached.
    pub fn max_occupancy(&self) -> usize {
        self.lanes.iter().map(|l| l.max).max().unwrap_or(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn fifo_order() {
        // Per key, under interleaved pushes and pops across keys.
        let mut q = FifoSlab::new(3);
        q.push(0, 1);
        q.push(2, 10);
        q.push(0, 2);
        assert_eq!(q.pop(0), Some(1));
        q.push(2, 11);
        q.push(1, 20);
        q.push(0, 3);
        assert_eq!(q.pop(2), Some(10));
        assert_eq!(q.pop(0), Some(2));
        assert_eq!(q.pop(1), Some(20));
        assert_eq!(q.pop(1), None);
        assert_eq!(q.pop(0), Some(3));
        assert_eq!(q.pop(2), Some(11));
        assert_eq!((q.pop(0), q.pop(2), q.backlog()), (None, None, 0));
    }

    #[test]
    fn a_popped_slot_is_reused() {
        // Never more than four items queued at once across the keys: the
        // slab stays at four entries however many pass through.
        let mut q = FifoSlab::new(4);
        let mut peak = 0;
        for round in 0..100u32 {
            let key = round as usize % 4;
            q.push(key, round);
            q.push((key + 1) % 4, round);
            if round % 3 == 0 {
                q.push((key + 2) % 4, round);
            }
            peak = peak.max(q.backlog());
            while q.backlog() > 1 {
                let key = (0..4).find(|&k| q.len(k) > 0).unwrap();
                q.pop(key);
            }
        }
        assert_eq!(peak, 4);
        assert!(
            q.entries.len() <= peak,
            "slab {} > peak {peak}",
            q.entries.len()
        );
    }

    #[test]
    fn high_water_mark_survives_drain() {
        let mut q = FifoSlab::new(2);
        for i in 0..5 {
            q.push(1, i);
        }
        q.push(0, 9);
        while q.pop(1).is_some() {}
        q.push(1, 99);
        assert_eq!(q.max_occupancy(), 5);
        assert_eq!((q.len(0), q.len(1), q.backlog()), (1, 1, 2));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Any script of pushes and pops reads as a `VecDeque` per key,
        /// with the same lengths, backlog and high-water mark.
        #[test]
        fn matches_a_vecdeque_per_key(
            keys in 1usize..6,
            script in proptest::collection::vec((0usize..6, 0u8..3), 0..200),
        ) {
            let mut q = FifoSlab::new(keys);
            let mut model: Vec<VecDeque<usize>> = vec![VecDeque::new(); keys];
            let (mut peak, mut live) = (0, 0usize);
            // Two pushes to one pop, so queues grow and drain.
            for (step, (key, op)) in script.into_iter().enumerate() {
                let key = key % keys;
                if op < 2 {
                    q.push(key, step);
                    model[key].push_back(step);
                    peak = peak.max(model[key].len());
                } else {
                    proptest::prop_assert_eq!(q.pop(key), model[key].pop_front());
                }
                live = live.max(model.iter().map(VecDeque::len).sum());
                for (k, m) in model.iter().enumerate() {
                    proptest::prop_assert_eq!(q.len(k), m.len());
                }
                proptest::prop_assert_eq!(q.backlog(), model.iter().map(VecDeque::len).sum::<usize>());
                proptest::prop_assert_eq!(q.max_occupancy(), peak);
            }
            proptest::prop_assert!(q.entries.len() <= live);
        }
    }
}
