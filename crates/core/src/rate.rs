//! Rates and speedup arithmetic.
//!
//! The paper normalizes the external rate to `R` = 1 cell/slot and assumes
//! `R/r` is an integer, writing `r' = R/r` (so the internal lines carry at
//! most one cell every `r'` slots). The speedup of the switch is
//! `S = K·r/R = K/r'`, a rational number; we keep it exact as a [`Ratio`]
//! because theorem predicates like `S ≥ 2` and bounds like `N/S` must not
//! suffer float fuzz.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An exact non-negative rational number.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Ratio {
    num: u64,
    den: u64,
}

impl Ratio {
    /// Construct `num/den`, reduced to lowest terms.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: u64, den: u64) -> Self {
        assert!(den != 0, "Ratio denominator must be non-zero");
        let g = gcd(num.max(1), den);
        Ratio {
            num: num / g,
            den: den / g,
        }
    }

    /// Numerator in lowest terms.
    pub fn num(self) -> u64 {
        self.num
    }

    /// Denominator in lowest terms.
    pub fn den(self) -> u64 {
        self.den
    }

    /// The ratio as `f64`, for reporting only.
    pub fn to_f64(self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Exact comparison with another ratio (`self >= rhs`).
    pub fn ge(self, rhs: Ratio) -> bool {
        (self.num as u128) * (rhs.den as u128) >= (rhs.num as u128) * (self.den as u128)
    }

    /// `floor(x / self)` for an integer `x` — e.g. `N/S` in the bounds.
    pub fn div_int_floor(self, x: u64) -> u64 {
        // x / (num/den) = x*den/num
        (x as u128 * self.den as u128 / self.num as u128) as u64
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl fmt::Debug for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.num, self.den)
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// Speedup `S = K / r'` of a PPS with `k` planes and internal slowdown
/// `r_prime = R/r`.
pub(crate) fn speedup(k: usize, r_prime: usize) -> Ratio {
    Ratio::new(k as u64, r_prime as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduces_to_lowest_terms() {
        let r = Ratio::new(8, 4);
        assert_eq!((r.num(), r.den()), (2, 1));
        assert_eq!(format!("{r}"), "2");
        assert_eq!(format!("{}", Ratio::new(10, 4)), "5/2");
    }

    #[test]
    fn speedup_matches_paper_examples() {
        // 5x5 PPS with 2 planes at r = R/2 (Figure 1 flavour): S = 2/2 = 1.
        assert_eq!(speedup(2, 2), Ratio::new(1, 1));
        // K = 8, r' = 4 => S = 2, the CPA threshold.
        assert!(speedup(8, 4).ge(Ratio::new(2, 1)));
        assert!(!speedup(7, 4).ge(Ratio::new(2, 1)));
    }

    #[test]
    fn division_by_ratio() {
        // N/S with N = 64, S = 8/4 = 2 => 32.
        assert_eq!(speedup(8, 4).div_int_floor(64), 32);
        // Non-integral case floors: N = 10, S = 3/2 => 6.66 -> 6.
        assert_eq!(Ratio::new(3, 2).div_int_floor(10), 6);
    }

    #[test]
    fn exact_ordering() {
        assert!(Ratio::new(3, 2).ge(Ratio::new(4, 3)));
        assert!(!Ratio::new(4, 3).ge(Ratio::new(3, 2)));
        assert!(Ratio::new(2, 1).ge(Ratio::new(4, 2)));
    }

    #[test]
    #[should_panic(expected = "denominator")]
    fn zero_denominator_panics() {
        let _ = Ratio::new(1, 0);
    }
}
