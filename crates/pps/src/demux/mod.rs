//! The demultiplexing-algorithm zoo.
//!
//! One implementation per algorithm class the paper discusses:
//!
//! | Module | Algorithm | Class | Paper role |
//! |---|---|---|---|
//! | `round_robin` | per-input round robin | fully distributed, unpartitioned | Corollary 7 victim; the flavour of Iyer–McKeown's practical algorithm |
//! | `per_flow_rr` | per-flow round robin | fully distributed, unpartitioned | Iyer–McKeown \[15\] mimicking algorithm (upper bound N·R/r) |
//! | `random` | uniform over free planes | fully distributed, randomized | shows the lower bound's reach onto randomized algorithms (Section 6) |
//! | `static_partition` | fixed plane subsets | fully distributed, d-partitioned | Theorem 6 / Theorem 8 victim; fault-tolerance ablation |
//! | `ftd` | fractional traffic dispatch | fully distributed | Khotimsky–Krishnan \[17\] + the Section 5 extension (Theorem 14) |
//! | `stale_least_loaded` | least-loaded by `u`-old info | `u`-RT | Theorem 10 / Corollary 11 victim |
//! | `cpa` | centralized plane assignment | centralized | Iyer et al. \[14\] zero-delay upper bound (S ≥ 2) |
//! | `buffered` | buffered RR; the hold rule `HoldThen` (hold, then dispatch by a bufferless policy) over `cpa` and `stale_least_loaded`: delayed CPA, buffered stale, arbitrated crossbar | input-buffered | Section 4: Theorems 12 & 13, the small-buffer regime |
//! | `local_heuristics` | per-flow hashing, local least-loaded (the `OwnLoad` estimator) | fully distributed | ablation victims for Theorem 8's universality |
//! | `load_balanced` | two-stage LB rotation, power-of-`d` sampling | fully distributed | literature transplants (Chang–Lee; Mitzenmacher) still bound by Theorem 8 |
//! | `fault_aware` | mask-aware round robin | centralized / `u`-RT | fail→recover ablation: reroute around planes believed down |

mod buffered;
mod cpa;
mod fault_aware;
mod ftd;
mod load_balanced;
mod local_heuristics;
mod per_flow_rr;
mod random;
mod round_robin;
mod stale_least_loaded;
mod static_partition;

pub use buffered::{
    ArbitratedCrossbarDemux, BufferedRoundRobinDemux, BufferedStaleDemux, DelayedCpaDemux,
};
pub use cpa::CpaDemux;
pub use fault_aware::FaultAwareRoundRobinDemux;
pub use ftd::FtdDemux;
pub use load_balanced::{LeastLoadedOfDDemux, TwoStageLbDemux};
pub use local_heuristics::{HashFlowDemux, LeastLoadedLocalDemux};
pub use per_flow_rr::PerFlowRoundRobinDemux;
pub use random::RandomDemux;
pub use round_robin::RoundRobinDemux;
pub use stale_least_loaded::StaleLeastLoadedDemux;
pub use static_partition::StaticPartitionDemux;
