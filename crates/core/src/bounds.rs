//! The paper's closed-form bounds, in one place.
//!
//! Every theorem's bound is a small arithmetic expression over the switch
//! geometry; collecting them here keeps the experiment suite, the tests
//! and the docs telling the same story. Each function documents the exact
//! statement it encodes, and the `*_exact` variants re-derive the bound
//! under this model's timing convention (a plane's first delivery
//! completes in its starting slot — see DESIGN.md §4 "Deviations"), which
//! subtracts one `(R/r − 1)` term. Asymptotics are identical.

use crate::config::PpsConfig;

/// Theorem 6: a bufferless PPS with a d-partitioned fully-distributed
/// demultiplexing algorithm has relative queuing delay and relative delay
/// jitter at least `(R/r − 1)·d`, under burst-free leaky-bucket traffic.
pub fn theorem6(r_prime: usize, d: usize) -> u64 {
    (r_prime as u64 - 1) * d as u64
}

/// Model-exact realization of [`theorem6`]: `(R/r − 1)·(d − 1)`.
pub fn theorem6_exact(r_prime: usize, d: usize) -> u64 {
    (r_prime as u64 - 1) * (d as u64).saturating_sub(1)
}

/// Corollary 7: with an *unpartitioned* fully-distributed algorithm the
/// concentration reaches every input, so the bound is `(R/r − 1)·N`.
pub fn corollary7(cfg: &PpsConfig) -> u64 {
    theorem6(cfg.r_prime, cfg.n)
}

/// Model-exact realization of [`corollary7`].
pub fn corollary7_exact(cfg: &PpsConfig) -> u64 {
    theorem6_exact(cfg.r_prime, cfg.n)
}

/// Theorem 8: *every* fully-distributed algorithm concentrates at least
/// `r'·N/K = N/S` inputs on some plane, hence `(R/r − 1)·N/S`.
pub fn theorem8(cfg: &PpsConfig) -> u64 {
    (cfg.r_prime as u64 - 1) * cfg.n_over_s()
}

/// Effective window `u' = min(u, r'/2)` of Theorem 10 (floored at 1).
pub fn u_effective(r_prime: usize, u: u64) -> u64 {
    u.min(r_prime as u64 / 2).max(1)
}

/// The coordinated-set size `m = ⌊u'·N/K⌋` of the Theorem 10 burst.
pub fn theorem10_m(cfg: &PpsConfig, u: u64) -> u64 {
    u_effective(cfg.r_prime, u) * cfg.n as u64 / cfg.k as u64
}

/// Theorem 10: a bufferless u-RT algorithm suffers at least
/// `(1 − u'·r/R)·u'·N/S = m·(r' − u')` under burstiness `u'²·N/K − u'`.
pub fn theorem10(cfg: &PpsConfig, u: u64) -> u64 {
    let u_eff = u_effective(cfg.r_prime, u);
    theorem10_m(cfg, u) * (cfg.r_prime as u64 - u_eff)
}

/// Model-exact realization of [`theorem10`]: `(m − 1)·(r' − u')`.
pub fn theorem10_exact(cfg: &PpsConfig, u: u64) -> u64 {
    let u_eff = u_effective(cfg.r_prime, u);
    theorem10_m(cfg, u).saturating_sub(1) * (cfg.r_prime as u64 - u_eff)
}

/// The burstiness premise of Theorem 10: `u'²·N/K − u'`.
pub fn theorem10_burstiness(cfg: &PpsConfig, u: u64) -> u64 {
    let u_eff = u_effective(cfg.r_prime, u);
    u_eff * u_eff * cfg.n as u64 / cfg.k as u64 - u_eff
}

/// Theorem 12 (upper bound): an input-buffered PPS with buffers ≥ `u` and
/// `S ≥ 2` supports a u-RT algorithm with relative delay at most `u`.
pub fn theorem12_upper(u: u64) -> u64 {
    u
}

/// Theorem 13: an input-buffered fully-distributed PPS suffers
/// `(1 − r/R)·N/S` for *any* buffer size.
pub fn theorem13(cfg: &PpsConfig) -> u64 {
    // (1 - r/R) * N/S = ((r'-1)/r') * N*r'/K = N(r'-1)/K, floored like N/S.
    (cfg.r_prime as u64 - 1) * cfg.n_over_s() / cfg.r_prime as u64
}

/// The any-traffic envelope `r'·(N + K + B) + 64`, with `B` the *measured*
/// minimal burstiness of the trace. Not a theorem of the paper: a generous
/// ceiling over its Section 3–4 worst cases (`Θ(N·r')` for fully-distributed
/// algorithms under burstiness `B`) plus slack, sound for any traffic — the
/// chaos harness's relative-delay oracle and the sanity column of the
/// stochastic-tail reports (E19, `ppslab --workload`).
pub fn traffic_envelope(cfg: &PpsConfig, burstiness: u64) -> u64 {
    cfg.r_prime as u64 * (cfg.n as u64 + cfg.k as u64 + burstiness) + 64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize, k: usize, r_prime: usize) -> PpsConfig {
        PpsConfig::bufferless(n, k, r_prime)
    }

    #[test]
    fn theorem6_family() {
        assert_eq!(theorem6(4, 16), 48);
        assert_eq!(theorem6_exact(4, 16), 45);
        assert_eq!(corollary7(&cfg(128, 8, 4)), 384);
        assert_eq!(corollary7_exact(&cfg(128, 8, 4)), 381);
    }

    #[test]
    fn theorem8_scales_inversely_in_s() {
        // N = 64, r' = 4: S = 1 -> 192, S = 2 -> 96, S = 16 -> 12.
        assert_eq!(theorem8(&cfg(64, 4, 4)), 192);
        assert_eq!(theorem8(&cfg(64, 8, 4)), 96);
        assert_eq!(theorem8(&cfg(64, 64, 4)), 12);
    }

    #[test]
    fn theorem10_matches_the_papers_example_numbers() {
        // N = 32, K = 8, r' = 8 (S = 1), u = 4: u' = 4, m = 16, bound 64.
        let c = cfg(32, 8, 8);
        assert_eq!(u_effective(8, 4), 4);
        assert_eq!(theorem10_m(&c, 4), 16);
        assert_eq!(theorem10(&c, 4), 64);
        assert_eq!(theorem10_exact(&c, 4), 60);
        assert_eq!(theorem10_burstiness(&c, 4), 60);
        // u caps at r'/2.
        assert_eq!(theorem10(&c, 100), theorem10(&c, 4));
    }

    #[test]
    fn theorem13_closed_form() {
        // N = 32, K = 8, r' = 4 (S = 2): (3/4) * 16 = 12.
        assert_eq!(theorem13(&cfg(32, 8, 4)), 12);
    }

    #[test]
    fn traffic_envelope_closed_form() {
        // E19's geometry with a measured burstiness of 5: 4·(16 + 8 + 5) + 64.
        assert_eq!(traffic_envelope(&cfg(16, 8, 4), 5), 180);
    }

    #[test]
    fn degenerate_r_prime_one_means_no_bound() {
        // r = R: the PPS planes run at line rate and the bounds vanish.
        assert_eq!(theorem6(1, 100), 0);
        assert_eq!(theorem8(&cfg(64, 8, 1)), 0);
    }
}
