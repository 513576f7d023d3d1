//! Claims as data: what an experiment asserts about its tables.
//!
//! Every result the suite reproduces reads "for every algorithm in class X,
//! admissible traffic forces ≥ f", or cites an upper bound. A [`Claim`] is
//! that sentence over one table, in the table's own words: a measured
//! column, a relation, and a bound (another column or a number), as in
//! `measured delay = bound (exact)`. It holds at every point of the table
//! it is checked at and keeps the first point where it failed. An
//! experiment passes when all of its claims hold
//! ([`crate::ExperimentOutput`]), a failing run prints each failed claim
//! with the measured value against the bound, and the Summary in
//! EXPERIMENTS.md is generated from the claims ([`crate::summary`]).

use std::fmt;

/// One claim of an experiment: `<measured> <relation> <bound>`, where the
/// relation is ` = `, ` ≤ `, ` ≥ `, ` < `, ` > ` or ` within ε of `.
#[derive(Clone, Debug)]
pub struct Claim {
    what: String,
    /// `(point, measured, bound)` where it first failed.
    failed: Option<(String, String, String)>,
}

impl Claim {
    /// Whether the claim held at every point it was checked at.
    pub fn holds(&self) -> bool {
        self.failed.is_none()
    }

    /// `claim failed: <claim> at <point>: measured M, bound B`, if it failed.
    pub(crate) fn failure(&self) -> Option<String> {
        let (point, m, b) = self.failed.as_ref()?;
        let what = &self.what;
        Some(format!(
            "claim failed: {what} at {point}: measured {m}, bound {b}"
        ))
    }

    /// Whether `m` stands to `b` as the claim's first relation word says.
    fn relates(&self, m: f64, b: f64) -> bool {
        let relations = ["=", "≤", "≥", "<", ">", "within"];
        let mut words = self.what.split(' ').skip_while(|w| !relations.contains(w));
        match words.next().expect("a relation") {
            "=" => m == b,
            "≤" => m <= b,
            "≥" => m >= b,
            "<" => m < b,
            ">" => m > b,
            _ => (m - b).abs() < words.next().and_then(|e| e.parse().ok()).expect("ε"),
        }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.what)
    }
}

/// A number a claim compares: shown as written, compared as `f64`.
pub(crate) trait Value: Copy + fmt::Display {
    fn get(self) -> f64;
}

macro_rules! value {
    ($($t:ty)*) => { $(impl Value for $t { fn get(self) -> f64 { self as f64 } })* };
}
value!(i32 i64 u64 usize f64);

/// The claims of one experiment, stated while it walks its tables.
#[derive(Default)]
pub(crate) struct Claims {
    point: String,
    pub(crate) list: Vec<Claim>,
}

impl Claims {
    /// Name the point the next checks are made at, in the table's words
    /// (`d = 4`).
    pub(crate) fn at(&mut self, point: impl fmt::Display) -> &mut Self {
        self.point = point.to_string();
        self
    }

    /// Check `what` with measured value `m` and bound `b` at the current
    /// point; `true` when it holds. One `what` is one claim however often
    /// it is checked, listed in the order it was first stated.
    pub(crate) fn check(&mut self, what: &str, m: impl Value, b: impl Value) -> bool {
        if self.list.iter().all(|c| c.what != what) {
            let (what, failed) = (what.to_string(), None);
            self.list.push(Claim { what, failed });
        }
        let claim = self
            .list
            .iter_mut()
            .find(|c| c.what == what)
            .expect("stated");
        let holds = claim.relates(m.get(), b.get());
        if !holds && claim.failed.is_none() {
            claim.failed = Some((self.point.clone(), m.to_string(), b.to_string()));
        }
        holds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn holds(what: &str, m: impl Value, b: impl Value) -> bool {
        Claims::default().check(what, m, b)
    }

    #[test]
    fn every_relation_word_compares_as_it_reads() {
        assert!(holds("a = b", 3, 3u64) && !holds("a = b", 3, 4) && !holds("a = b", 4, 3));
        assert!(holds("a ≤ b", 3, 3) && !holds("a ≤ b", 4, 3));
        assert!(holds("a ≥ b", 3, 3) && !holds("a ≥ b", 2, 3));
        assert!(holds("a < b", 2, 3) && !holds("a < b", 3, 3));
        assert!(holds("a > b", 4, 3) && !holds("a > b", 3, 3));
        assert!(holds("a within 0.2 of b", 3.1, 3) && !holds("a within 0.2 of b", 3.2, 3));
        // Negative measured values stay negative (no unsigned wrap).
        assert!(!holds("delay ≥ bound", -1i64, 5u64));
    }

    #[test]
    fn the_first_relation_word_is_the_relation() {
        // The bound's own words may hold a relation: `premise B = N/K-1`.
        assert!(holds("traffic B ≤ premise B = N/K-1", 3, 7));
        // Glued or ASCII spellings are words of a name, not relations.
        assert!(holds("max rel delay at s>=2 ≤ 1", 1, 1));
        assert!(holds("T=8 mean ≤ 1.05 T=1 mean + 0.05", 1.0, 2.0));
    }

    #[test]
    fn a_claim_keeps_its_first_failure_and_its_first_statement_order() {
        let mut claims = Claims::default();
        claims.at("N = 8").check("delay ≥ bound", 5, 4);
        claims.at("N = 16").check("jitter = bound", 2, 2);
        claims.at("N = 16").check("delay ≥ bound", 3, 9);
        claims.at("N = 32").check("delay ≥ bound", 1, 20);
        let [delay, jitter] = [&claims.list[0], &claims.list[1]];
        assert_eq!(delay.to_string(), "delay ≥ bound");
        assert!(!delay.holds() && jitter.holds());
        assert_eq!(
            delay.failure().unwrap(),
            "claim failed: delay ≥ bound at N = 16: measured 3, bound 9"
        );
        assert_eq!(jitter.failure(), None);
    }
}
