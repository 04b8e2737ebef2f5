//! Exact stepping of serial f64 folds: `count` repetitions of an add, or
//! of a short cycle of adds, in O(1) work per binade the accumulator
//! crosses — bit for bit the value the plain loop returns.
//!
//! # The rule
//!
//! A *binade* is the range [2^e, 2^(e+1)) of f64 magnitudes sharing one
//! exponent. Inside it every value is an integer multiple `m` of one
//! step `u = 2^(e−52)`, the *ulp*, with `m` in [2^52, 2^53). Take an
//! accumulator `s = ±m·u` and an operand `v`, and let `r = round(|v|/u)`.
//! Round-to-nearest-even then gives
//!
//! ```text
//! fl(s + v) = ±(m ± r)·u
//! ```
//!
//! (`+r` when `v` points away from zero, like `s`; `−r` when it points
//! toward zero) under two conditions:
//!
//! * **no crossing** — `m ± r` lies in [2^52 + 1, 2^53 − 1], at least
//!   one ulp inside the binade. The exact sum is within half an ulp of
//!   `(m ± r)·u`, so it lies in the binade too and is rounded at spacing
//!   `u`. (Exactly on the lower edge the exact sum may fall just below
//!   2^e, where the spacing halves and the rule fails.)
//! * **no tie** — `|v|/u` does not end in exactly ½. At a tie,
//!   round-half-even reads the last bit of `m`; anywhere else `r`
//!   depends on `v` and `u` alone.
//!
//! So while both hold, `r` does not depend on `s`, and k serial adds of
//! `v` are one integer sum, `m ± k·r`. A cycle of operands that all
//! point the same way is the same: its partial sums are monotone, so if
//! the end of k whole cycles is inside the binade, every intermediate
//! result is. [`add_cycle_n`] jumps as many whole cycles as fit, takes
//! the cycle that crosses the binade edge (or holds a tie) with real
//! f64 adds, and continues in the new binade at its new ulp. A tie
//! belongs to one binade only — one binade down `|v|/u` is an integer,
//! one up it ends in ¼ or ¾ — so ties cost real adds only while the
//! accumulator stays in that binade.
//!
//! Accumulators that no binade covers (zero, subnormals, infinities,
//! NaN) and cycles that mix directions are always stepped with real
//! adds, so every input returns the loop's value; only the speed
//! differs.
//!
//! # Example
//!
//! ```
//! use ami_sim::exact;
//!
//! let mut looped = 50.0_f64;
//! for _ in 0..10_000 {
//!     looped -= 1.2e-3;
//!     looped -= 7.5e-6;
//! }
//! assert_eq!(
//!     exact::sub_cycle_n(50.0, [1.2e-3, 7.5e-6], 10_000).to_bits(),
//!     looped.to_bits()
//! );
//! ```

const FRACTION_BITS: u32 = 52;
const FRACTION_MASK: u64 = (1 << FRACTION_BITS) - 1;
/// Sign and exponent bits of an f64, the part a binade fixes.
const BINADE_MASK: u64 = !FRACTION_MASK;
const EXPONENT_MAX: u64 = 0x7FF;
/// The implicit leading bit: the smallest mantissa of a binade.
const LEADING: u64 = 1 << FRACTION_BITS;
/// Mantissas at least one ulp inside a binade: the results the rule
/// covers.
const INTERIOR_LO: u64 = LEADING + 1;
const INTERIOR_HI: u64 = 2 * LEADING - 1;

/// The binade of a normal f64, sign included: the values `±m·u` with
/// `m` in [2^52, 2^53) for one ulp `u`. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binade {
    /// The sign and biased-exponent bits of the binade's values.
    bits: u64,
}

impl Binade {
    /// The binade holding `x`, or `None` for zero, subnormals,
    /// infinities and NaN, which no binade step covers.
    #[inline]
    pub fn of(x: f64) -> Option<Self> {
        let exponent = (x.to_bits() >> FRACTION_BITS) & EXPONENT_MAX;
        (exponent != 0 && exponent != EXPONENT_MAX).then_some(Self {
            bits: x.to_bits() & BINADE_MASK,
        })
    }

    #[inline]
    fn exponent(self) -> u64 {
        (self.bits >> FRACTION_BITS) & EXPONENT_MAX
    }

    /// Whether the binade's values are negative.
    #[inline]
    fn is_negative(self) -> bool {
        self.bits >> 63 == 1
    }

    /// `|x|` in ulps of this binade, in [2^52, 2^53).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x` is not in this binade.
    #[inline]
    pub fn ulps(self, x: f64) -> u64 {
        debug_assert_eq!(Self::of(x), Some(self), "{x} is not in {self:?}");
        (x.to_bits() & FRACTION_MASK) | LEADING
    }

    /// The value `±m·u` of this binade.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `m` is outside [2^52, 2^53).
    #[inline]
    pub fn value(self, m: u64) -> f64 {
        debug_assert!((LEADING..2 * LEADING).contains(&m), "{m} ulps");
        f64::from_bits(self.bits | (m & FRACTION_MASK))
    }

    /// `round(|v| / u)` at this binade's ulp `u` — how many ulps adding
    /// or subtracting `v` moves an accumulator inside the binade — or
    /// `None` when no step inside the binade can take `v`: `|v| / u`
    /// ends in exactly ½ (a tie), is 2^53 or more, or `v` is not finite.
    #[inline]
    pub fn units(self, v: f64) -> Option<u64> {
        let bits = v.to_bits();
        let biased = (bits >> FRACTION_BITS) & EXPONENT_MAX;
        if biased == EXPONENT_MAX {
            return None;
        }
        // |v| = mantissa · 2^(exponent − 1075); u = 2^(self.exponent() − 1075).
        let (mantissa, exponent) = if biased == 0 {
            (bits & FRACTION_MASK, 1)
        } else {
            ((bits & FRACTION_MASK) | LEADING, biased)
        };
        if mantissa == 0 {
            return Some(0);
        }
        if exponent >= self.exponent() {
            let shift = exponent - self.exponent();
            // A 53-bit mantissa shifted by 11 or more passes 2^53.
            let units = if shift > 10 {
                return None;
            } else {
                mantissa << shift
            };
            return (units < 2 * LEADING).then_some(units);
        }
        let shift = self.exponent() - exponent;
        if shift > u64::from(FRACTION_BITS) + 2 {
            // |v| < u / 4: rounds to zero, no tie.
            return Some(0);
        }
        let half = 1 << (shift - 1);
        let rest = mantissa & ((1 << shift) - 1);
        if rest == half {
            return None;
        }
        Some((mantissa >> shift) + u64::from(rest > half))
    }

    /// Whether adding `v` moves a value of this binade away from zero.
    /// Meaningless for `v == 0.0`, which moves nothing.
    #[inline]
    fn grows_by(self, v: f64) -> bool {
        v.is_sign_negative() == self.is_negative()
    }

    /// `m` moved `by` ulps away from zero, if the result stays at least
    /// one ulp inside the binade (so every step of a monotone run that
    /// ends there obeys the rule).
    #[inline]
    pub fn grow(self, m: u64, by: u64) -> Option<u64> {
        m.checked_add(by).filter(|&end| end <= INTERIOR_HI)
    }

    /// `m` moved `by` ulps toward zero, if the result stays at least one
    /// ulp inside the binade.
    #[inline]
    pub fn shrink(self, m: u64, by: u64) -> Option<u64> {
        m.checked_sub(by).filter(|&end| end >= INTERIOR_LO)
    }
}

/// `s` after `count` serial adds of `v`: bit for bit
/// `for _ in 0..count { s += v }`.
#[inline]
pub fn add_n(s: f64, v: f64, count: u64) -> f64 {
    add_cycle_n(s, [v], count)
}

/// `s` after `count` passes over `cycle`, each subtracting the operands
/// in order: bit for bit `for _ in 0..count { for v in cycle { s -= v } }`.
pub fn sub_cycle_n<const K: usize>(s: f64, cycle: [f64; K], count: u64) -> f64 {
    // IEEE 754 defines `s − v` as `s + (−v)`, signed zeros included.
    add_cycle_n(s, cycle.map(|v| -v), count)
}

/// Runs of at most this many adds are taken with real adds: a jump
/// prices every operand of the cycle, which costs more.
const REAL_RUN: u64 = 16;

/// `s` after `count` passes over `cycle`, each adding the operands in
/// order: bit for bit `for _ in 0..count { for v in cycle { s += v } }`.
/// O(1) per binade crossed when every nonzero operand points the same
/// way and no operand ties in the binades the fold passes; every other
/// pass is taken with real adds.
pub fn add_cycle_n<const K: usize>(mut s: f64, cycle: [f64; K], mut count: u64) -> f64 {
    while count > 0 {
        if count.saturating_mul(K as u64) > REAL_RUN {
            if let Some((binade, end, passes)) = jump(s, &cycle, count) {
                s = binade.value(end);
                count -= passes;
                if count == 0 {
                    break;
                }
            }
        }
        // A short run, or the pass that crosses a binade edge, holds a
        // tie, or starts where no binade covers the accumulator.
        for v in cycle {
            s += v;
        }
        count -= 1;
    }
    s
}

/// How many whole passes over `cycle` (at most `count`) the rule takes
/// from `s`, and the binade and mantissa they end on; `None` when it
/// takes none because `s` is in no binade, an operand ties or is too
/// large, or the operands point both ways.
#[inline]
fn jump(s: f64, cycle: &[f64], count: u64) -> Option<(Binade, u64, u64)> {
    let binade = Binade::of(s)?;
    let m = binade.ulps(s);
    let mut grows = None;
    let mut per_pass = 0u64;
    for &v in cycle {
        if v == 0.0 {
            // `s ± 0` is `s` for any nonzero `s`.
            continue;
        }
        let away = binade.grows_by(v);
        if grows.is_some_and(|g| g != away) {
            return None;
        }
        grows = Some(away);
        per_pass = per_pass.checked_add(binade.units(v)?)?;
    }
    let Some(grows) = grows else {
        return Some((binade, m, count));
    };
    // Even a zero-ulp step toward zero needs the interior: on the lower
    // edge a tiny subtraction lands in the finer binade below.
    let room = if grows {
        INTERIOR_HI - m
    } else {
        m.checked_sub(INTERIOR_LO)?
    };
    let passes = match count.checked_mul(per_pass) {
        Some(moved) if moved <= room => count,
        // Here `per_pass` > 0: zero ulps per pass always fit.
        _ => room / per_pass,
    };
    let moved = passes * per_pass;
    let end = if grows { m + moved } else { m - moved };
    Some((binade, end, passes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn looped<const K: usize>(mut s: f64, cycle: [f64; K], count: u64) -> f64 {
        for _ in 0..count {
            for v in cycle {
                s += v;
            }
        }
        s
    }

    #[test]
    fn units_round_to_nearest_and_flag_ties() {
        let one = Binade::of(1.0).unwrap();
        let u = f64::EPSILON; // the ulp of [1, 2)
        assert_eq!(one.units(3.0 * u), Some(3));
        assert_eq!(one.units(2.5 * u), None);
        assert_eq!(one.units(2.75 * u), Some(3));
        assert_eq!(one.units(2.25 * u), Some(2));
        assert_eq!(one.units(0.5 * u), None);
        assert_eq!(one.units(0.0), Some(0));
        assert_eq!(one.units(-0.0), Some(0));
        assert_eq!(one.units(f64::MIN_POSITIVE), Some(0));
        assert_eq!(one.units(-4.0 * u), Some(4));
        assert_eq!(one.units(2.0), None);
        assert_eq!(one.units(f64::INFINITY), None);
        assert_eq!(one.units(f64::NAN), None);
    }

    #[test]
    fn binades_round_trip_their_values() {
        for x in [1.0, -1.5, 3.75e-300, -2.0f64.powi(1000), f64::MAX] {
            let binade = Binade::of(x).unwrap();
            assert_eq!(binade.value(binade.ulps(x)).to_bits(), x.to_bits());
            assert_eq!(binade.is_negative(), x < 0.0);
        }
        for x in [0.0, -0.0, 5e-324, f64::INFINITY, f64::NAN] {
            assert_eq!(Binade::of(x), None);
        }
    }

    #[test]
    fn a_run_across_many_binades_matches_the_loop() {
        assert_eq!(
            add_n(0.0, 0.1, 100_000).to_bits(),
            looped(0.0, [0.1], 100_000).to_bits()
        );
        assert_eq!(
            sub_cycle_n(1.0, [1e-3, 3e-7], 5_000).to_bits(),
            looped(1.0, [-1e-3, -3e-7], 5_000).to_bits()
        );
        // Mixed directions are stepped, never jumped.
        assert_eq!(
            add_cycle_n(10.0, [0.25, -0.125], 1_000).to_bits(),
            looped(10.0, [0.25, -0.125], 1_000).to_bits()
        );
    }
}
