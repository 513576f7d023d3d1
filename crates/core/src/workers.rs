//! Worker leases of the sweep executor.
//!
//! A run's worker budget ([`RunSpec::jobs`](crate::run::RunSpec::jobs))
//! caps the *total* number of threads making progress at any instant
//! across every sweep of the run — an experiment's points, the
//! registry-level sweep `ppslab` runs, a chaos campaign's cases. Each
//! sweep keeps its calling thread and holds a `WorkerLease` per extra
//! worker only while that worker runs; the run's sinks share one lease
//! count, so nested sweeps (an experiment inside the registry sweep) never
//! oversubscribe.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Set the process default's worker budget: a shim of the benchmark seam
/// (DESIGN.md, "The benchmark's surface").
pub fn set_jobs(n: usize) {
    crate::process::update(|spec| spec.jobs = n.max(1));
}

/// Ignored; kept until the ROADMAP 1(a) benchmark PR drops the call.
#[doc(hidden)]
pub fn set_intra_jobs(_n: usize) {}

/// RAII worker lease: holds one slot of a run's budget, released on drop
/// (including on panic unwind out of a sweep worker).
#[derive(Debug)]
pub(crate) struct WorkerLease(Arc<AtomicUsize>);

impl WorkerLease {
    /// Take one slot of `leased` if fewer than `jobs - 1` are out.
    pub(crate) fn try_new(leased: &Arc<AtomicUsize>, jobs: usize) -> Option<WorkerLease> {
        let budget = jobs.saturating_sub(1);
        leased
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |cur| {
                (cur < budget).then_some(cur + 1)
            })
            .ok()
            .map(|_| WorkerLease(Arc::clone(leased)))
    }
}

impl Drop for WorkerLease {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use crate::run::{RunSpec, Sink};

    #[test]
    fn lease_respects_budget_and_releases() {
        let sink = Sink::new(RunSpec {
            jobs: 3,
            ..RunSpec::default()
        });
        let a = sink.lease();
        let b = sink.lease();
        assert!(a.is_some() && b.is_some(), "budget 3 = caller + 2 leases");
        assert!(sink.lease().is_none(), "third lease over budget");
        drop(a);
        let c = sink.lease();
        assert!(c.is_some(), "released slot is leasable again");
        drop(b);
        drop(c);
        assert!(
            Sink::default().lease().is_none(),
            "serial budget leases none"
        );
    }
}
