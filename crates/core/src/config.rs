//! User-facing configuration of an AB index.
//!
//! The paper exposes two ways to pick parameters (contribution 3):
//! cap the size and get the best precision, or demand a precision and
//! use the least space. [`Sizing`] adds the direct `α` knob used by the
//! experiments (§5.4 sweeps α over powers of two from 2 to 16).

use crate::analysis::{self, AbParams, Level};
use hashkit::HashFamily;
use serde::{Deserialize, Serialize};

/// How each AB's size (and hash count) is chosen.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Sizing {
    /// Allocate `α` bits per set bit, rounded up to a power of two
    /// (the experimental knob of §5.4/§6.1).
    Alpha(
        /// Space multiplier α.
        u64,
    ),
    /// Cap each AB at `2^m_max` bits and use the `k` maximizing
    /// precision ("setting a maximum size", §3 contribution 3).
    MaxBits(
        /// Maximum AB size exponent `m_max`.
        u32,
    ),
    /// Use the least space achieving at least this precision
    /// ("setting a minimum precision", §3 contribution 3).
    MinPrecision(
        /// Target precision in `(0, 1)`.
        f64,
    ),
}

impl Sizing {
    /// Resolves the `(n, k)` parameters for one AB covering `s` set
    /// bits. `k_override` pins `k` regardless of the optimum (the
    /// Figure 10(b)/11(b)/13 sweeps).
    pub fn params(&self, s: u64, k_override: Option<usize>) -> AbParams {
        let mut p = match *self {
            Sizing::Alpha(alpha) => {
                assert!(alpha > 0, "alpha must be positive");
                let n_bits = analysis::ab_bits(s, alpha);
                let k = analysis::optimal_k(n_bits as f64 / s.max(1) as f64);
                AbParams { n_bits, k }
            }
            Sizing::MaxBits(m_max) => analysis::params_for_max_size(s, m_max),
            Sizing::MinPrecision(p_min) => analysis::params_for_min_precision(s, p_min),
        };
        if let Some(k) = k_override {
            assert!(k > 0, "k must be positive");
            p.k = k;
        }
        p
    }
}

/// Full configuration for building an [`crate::AbIndex`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AbConfig {
    /// Encoding level (paper contribution 4).
    pub level: Level,
    /// Size selection policy.
    pub sizing: Sizing,
    /// Optional fixed number of hash functions; `None` uses the
    /// FP-minimizing `k` for the resolved `α`.
    pub k: Option<usize>,
    /// Hash family (paper §3.2.2 / §5.2).
    pub family: HashFamily,
}

impl AbConfig {
    /// The served default: per-attribute ABs with α = 8 and double
    /// hashing, whose measured false-positive rate tracks §4's
    /// `(1 − e^{−k/α})^k` (DESIGN.md §6). Paper-figure reproductions
    /// pin [`HashFamily::default_independent`] with
    /// [`Self::with_family`].
    pub fn new(level: Level) -> Self {
        AbConfig {
            level,
            sizing: Sizing::Alpha(8),
            k: None,
            family: HashFamily::DoubleHashing,
        }
    }

    /// Sets the `α` multiplier.
    pub fn with_alpha(mut self, alpha: u64) -> Self {
        self.sizing = Sizing::Alpha(alpha);
        self
    }

    /// Caps each AB at `2^m_max` bits.
    pub fn with_max_bits(mut self, m_max: u32) -> Self {
        self.sizing = Sizing::MaxBits(m_max);
        self
    }

    /// Demands a minimum precision.
    pub fn with_min_precision(mut self, p: f64) -> Self {
        self.sizing = Sizing::MinPrecision(p);
        self
    }

    /// Pins the number of hash functions.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = Some(k);
        self
    }

    /// Selects the hash family.
    pub fn with_family(mut self, family: HashFamily) -> Self {
        self.family = family;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_sizing_rounds_up() {
        let p = Sizing::Alpha(8).params(100_000, None);
        assert_eq!(p.n_bits, 1 << 20); // 800,000 → 2^20
        assert_eq!(p.k, analysis::optimal_k((1u64 << 20) as f64 / 100_000.0));
    }

    #[test]
    fn k_override_wins() {
        let p = Sizing::Alpha(8).params(1000, Some(3));
        assert_eq!(p.k, 3);
    }

    #[test]
    fn max_bits_sizing() {
        let p = Sizing::MaxBits(16).params(5000, None);
        assert_eq!(p.n_bits, 1 << 16);
    }

    #[test]
    fn min_precision_sizing_hits_target() {
        let p = Sizing::MinPrecision(0.9).params(10_000, None);
        assert!(p.expected_precision(10_000) >= 0.9 - 1e-9);
    }

    #[test]
    fn builder_chain() {
        let c = AbConfig::new(Level::PerColumn)
            .with_alpha(16)
            .with_k(5)
            .with_family(HashFamily::DoubleHashing);
        assert_eq!(c.level, Level::PerColumn);
        assert_eq!(c.sizing, Sizing::Alpha(16));
        assert_eq!(c.k, Some(5));
        assert_eq!(c.family, HashFamily::DoubleHashing);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_alpha_rejected() {
        Sizing::Alpha(0).params(10, None);
    }
}
