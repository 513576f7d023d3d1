//! Center-stage planes.
//!
//! Each of the `K` planes is an `N × N` output-queued switch operating at
//! the internal rate `r`: it buffers cells per destination output and feeds
//! the plane→output lines, each of which carries at most one cell every
//! `r'` slots (the *output constraint* — enforced by the engine's
//! [`pps_core::LinkBank`], not here). The plane's internal scheduling is
//! greedy FIFO per destination queue, which the paper's Lemma 4 explicitly
//! allows to be *optimal*: the lower bounds do not depend on plane
//! scheduling, only on the line-rate bottleneck.
//!
//! Queues hold bare [`CellId`]s; what a cell is lives in the trace's
//! [`CellTable`], so a plane hop moves one word, not a whole `Cell`.

use pps_core::prelude::*;

/// One center-stage plane: per-output FIFO buffers plus carry statistics.
#[derive(Clone, Debug)]
pub(crate) struct Plane {
    /// Per-destination FIFO queues of cell ids.
    queues: Vec<FifoQueue<CellId>>,
    /// Cells ever accepted by this plane.
    carried: u64,
    /// Whether the plane has failed (fault-injection experiments): a failed
    /// plane black-holes cells handed to it.
    failed: bool,
}

impl Plane {
    /// An idle plane for an `n`-port switch.
    pub(crate) fn new(n: usize) -> Self {
        Plane {
            queues: (0..n).map(|_| FifoQueue::new()).collect(),
            carried: 0,
            failed: false,
        }
    }

    /// Accept cell `id` for destination queue `output`. Returns `false` if
    /// the plane has failed and the cell was lost.
    pub(crate) fn accept(&mut self, id: CellId, output: usize) -> bool {
        if self.failed {
            return false;
        }
        self.queues[output].push(id);
        self.carried += 1;
        true
    }

    /// Pop the head cell queued for `output`.
    pub(crate) fn pop_for(&mut self, output: usize) -> Option<CellId> {
        self.queues[output].pop()
    }

    /// Occupancy of the queue for `output`.
    pub(crate) fn queue_len(&self, output: usize) -> usize {
        self.queues[output].len()
    }

    /// Total queued cells across outputs.
    pub(crate) fn backlog(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    /// Cells ever accepted.
    pub(crate) fn carried(&self) -> u64 {
        self.carried
    }

    /// Highest occupancy any destination queue ever reached — the buffer
    /// provisioning the paper ties to relative queuing delay.
    pub(crate) fn max_queue_occupancy(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.max_occupancy())
            .max()
            .unwrap_or(0)
    }

    /// Mark the plane failed (fault-injection); subsequent cells are lost.
    /// Cells already queued inside the plane are lost with it — they are
    /// drained and returned as `(output, id)`, output by output, so the
    /// fabric can account for them (live counters, straggler
    /// registrations, drop statistics).
    pub(crate) fn fail(&mut self) -> Vec<(usize, CellId)> {
        self.failed = true;
        let mut flushed = Vec::new();
        for (output, q) in self.queues.iter_mut().enumerate() {
            while let Some(id) = q.pop() {
                flushed.push((output, id));
            }
        }
        flushed
    }

    /// Bring a failed plane back into service (fault-injection recovery).
    /// It restarts empty — the flushed cells are gone, not restored.
    pub(crate) fn recover(&mut self) {
        self.failed = false;
    }

    /// Whether the plane is failed.
    pub(crate) fn is_failed(&self) -> bool {
        self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_output_fifo() {
        let mut p = Plane::new(2);
        assert!(p.accept(CellId(0), 1));
        assert!(p.accept(CellId(1), 0));
        assert!(p.accept(CellId(2), 1));
        assert_eq!(p.queue_len(1), 2);
        assert_eq!(p.pop_for(1), Some(CellId(0)));
        assert_eq!(p.pop_for(1), Some(CellId(2)));
        assert_eq!(p.pop_for(1), None);
        assert_eq!(p.backlog(), 1);
        assert_eq!(p.carried(), 3);
    }

    #[test]
    fn failed_plane_black_holes() {
        let mut p = Plane::new(1);
        assert!(p.fail().is_empty());
        assert!(!p.accept(CellId(0), 0));
        assert_eq!(p.backlog(), 0);
        assert_eq!(p.carried(), 0);
    }

    #[test]
    fn failure_flushes_queued_cells_and_recovery_restarts_empty() {
        let mut p = Plane::new(2);
        assert!(p.accept(CellId(0), 0));
        assert!(p.accept(CellId(1), 1));
        let flushed = p.fail();
        assert_eq!(flushed, vec![(0, CellId(0)), (1, CellId(1))]);
        assert_eq!(p.backlog(), 0);
        assert!(p.is_failed());
        p.recover();
        assert!(!p.is_failed());
        assert!(p.accept(CellId(2), 0));
        assert_eq!(p.queue_len(0), 1);
    }

    #[test]
    fn occupancy_high_water_mark() {
        let mut p = Plane::new(1);
        for i in 0..4 {
            p.accept(CellId(i), 0);
        }
        p.pop_for(0);
        p.pop_for(0);
        assert_eq!(p.max_queue_occupancy(), 4);
    }
}
