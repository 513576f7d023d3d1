//! Section 5 of the paper: during *congested periods* the extended
//! fractional-traffic-dispatch (FTD) algorithm introduces no relative
//! queuing delay — and the traffic that sustains congestion is provably
//! not leaky-bucket (Proposition 15).
//!
//! ```text
//! cargo run --release --example congested_ftd
//! ```

use pps_analysis::Table;
use pps_core::run::Sink;
use pps_experiments::e08_ftd_congestion;
use pps_traffic::adversary::congestion_traffic;
use pps_traffic::min_burstiness;

fn main() {
    let (n, k, r_prime) = (16, 8, 2); // S = 4

    println!("-- Theorem 14: work conservation under congestion --\n");
    let mut t14 = Table::new(
        format!("extended FTD at N={n}, K={k}, r'={r_prime}, overload S+1 cells/slot on output 0"),
        &[
            "h (block = h*r')",
            "warm-up",
            "idle slots in congestion",
            "max rank delta",
        ],
    );
    for h in [2usize, 3, 4] {
        let out = e08_ftd_congestion::point(n, k, r_prime, h, 1_000, &Sink::default());
        t14.row_display(&[
            h.to_string(),
            out.congestion_start
                .map_or("never".into(), |w| w.to_string()),
            out.wc_violations.to_string(),
            out.max_rank_delta.to_string(),
        ]);
    }
    println!("{}", t14.render());

    println!("-- Proposition 15: that traffic cannot be (R, B) leaky-bucket --\n");
    let mut t15 = Table::new(
        "minimal burstiness of the congestion traffic grows with its duration",
        &["duration", "B_min"],
    );
    for duration in [100u64, 400, 1600] {
        let c = congestion_traffic(n, 0, k / r_prime + 1, duration);
        t15.row_display(&[
            duration.to_string(),
            min_burstiness(&c.trace, n).overall().to_string(),
        ]);
    }
    println!("{}", t15.render());
    println!(
        "no fixed B covers every duration, so the zero-delay congested regime never \
         contradicts the leaky-bucket lower bounds of Theorems 6-13."
    );
}
