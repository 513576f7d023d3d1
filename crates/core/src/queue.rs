//! FIFO queues with occupancy accounting.
//!
//! Plane buffers and output resequencing buffers are the places where
//! relative queuing delay physically accumulates; the paper notes that large
//! relative delays imply correspondingly large buffers ("large relative
//! queuing delays usually imply that the buffer sizes at the middle-stage
//! switches or at the external ports should be large as well"). Tracking the
//! high-water mark per queue lets the experiments report that implication
//! directly.

use std::collections::VecDeque;

/// A FIFO queue that tracks its high-water mark.
#[derive(Clone, Debug)]
pub struct FifoQueue<T> {
    items: VecDeque<T>,
    max_occupancy: usize,
}

impl<T> Default for FifoQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> FifoQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        FifoQueue {
            items: VecDeque::new(),
            max_occupancy: 0,
        }
    }

    /// Append an item at the tail.
    pub fn push(&mut self, item: T) {
        self.items.push_back(item);
        self.max_occupancy = self.max_occupancy.max(self.items.len());
    }

    /// Remove and return the head item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Highest occupancy ever reached.
    pub fn max_occupancy(&self) -> usize {
        self.max_occupancy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = FifoQueue::new();
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn high_water_mark_survives_drain() {
        let mut q = FifoQueue::new();
        for i in 0..5 {
            q.push(i);
        }
        while q.pop().is_some() {}
        q.push(99);
        assert_eq!(q.max_occupancy(), 5);
        assert_eq!(q.len(), 1);
    }
}
