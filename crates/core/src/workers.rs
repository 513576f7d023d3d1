//! Process-wide worker budget of the sweep executor.
//!
//! One budget ([`set_jobs`]) caps the *total* number of threads making
//! progress at any instant across every concurrently running
//! [`SweepPlan`](crate::sweep::SweepPlan) — an experiment's points, the
//! registry-level sweep `ppslab` runs, a chaos campaign's cases. Each
//! sweep keeps its calling thread and holds a [`WorkerLease`] per extra
//! worker only while that worker runs, so nested sweeps (an experiment
//! inside the registry sweep) never oversubscribe.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide worker budget (see [`set_jobs`]). The default of 1 keeps
/// library users (tests, doc examples) serial until a driver opts in.
static JOBS: AtomicUsize = AtomicUsize::new(1);
/// Extra workers currently leased across all live parallel regions.
static LEASED: AtomicUsize = AtomicUsize::new(0);

/// Set the process-wide parallelism budget: the maximum number of threads
/// (callers + leased workers) simultaneously making progress. `n = 1`
/// means fully serial execution on calling threads.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::SeqCst);
}

/// The current process-wide parallelism budget.
pub fn jobs() -> usize {
    JOBS.load(Ordering::SeqCst)
}

/// Ignored; kept until the ROADMAP 1(a) benchmark PR drops the call.
#[doc(hidden)]
pub fn set_intra_jobs(_n: usize) {}

/// RAII worker lease: holds one slot of the shared budget, released on
/// drop (including on panic unwind out of a sweep worker).
#[derive(Debug)]
pub struct WorkerLease(());

impl WorkerLease {
    /// Try to take one worker slot; `None` when the budget is exhausted.
    pub fn try_new() -> Option<WorkerLease> {
        let budget = jobs().saturating_sub(1);
        LEASED
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur < budget).then_some(cur + 1)
            })
            .ok()
            .map(|_| WorkerLease(()))
    }
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        LEASED.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_respects_budget_and_releases() {
        // Serialized against other tests by touching only this module's
        // statics from one test (cargo runs tests in one process; keep the
        // invariant simple: restore jobs=1 at the end).
        set_jobs(3);
        let a = WorkerLease::try_new();
        let b = WorkerLease::try_new();
        assert!(a.is_some() && b.is_some(), "budget 3 = caller + 2 leases");
        assert!(WorkerLease::try_new().is_none(), "third lease over budget");
        drop(a);
        let c = WorkerLease::try_new();
        assert!(c.is_some(), "released slot is leasable again");
        drop(b);
        drop(c);
        set_jobs(1);
        assert!(
            WorkerLease::try_new().is_none(),
            "serial budget leases none"
        );
    }
}
