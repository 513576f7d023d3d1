//! A panicking sweep point must hand its worker's budget slot back.
//!
//! Alone in its test binary: the budget is process-wide, and the lease
//! count below is exact only while nothing else leases.

use pps_core::sweep::SweepPlan;
use pps_core::workers::{set_jobs, WorkerLease};

#[test]
fn a_panicking_point_returns_its_workers_lease() {
    let jobs = 3;
    set_jobs(jobs);
    // Every point panics, so each of the two leased workers (and the
    // calling thread) unwinds out of its first point.
    let plan = SweepPlan::new("lease-leak", (0..8usize).collect());
    let swept =
        std::panic::catch_unwind(|| plan.run(|pt| -> usize { panic!("point {}", pt.index) }));
    assert!(swept.is_err(), "the panic reaches the caller");
    let leases: Vec<WorkerLease> = std::iter::from_fn(WorkerLease::try_new).collect();
    assert_eq!(leases.len(), jobs - 1, "every slot is back in the budget");
}
