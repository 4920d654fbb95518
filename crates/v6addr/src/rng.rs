//! `SmallRng`: the workspace's one seeded random stream.
//!
//! xoshiro256++ (Blackman & Vigna, 2019) seeded with the first four outputs
//! of [`SplitMix64::new`]`(seed)`. Every table, digest and golden stream is
//! a function of these exact sequences, so the tests below pin them; if
//! they ever change, every committed expectation shifts with them.

use std::ops::{Bound, RangeBounds};

use crate::SplitMix64;

/// Small fast seeded generator: xoshiro256++.
pub struct SmallRng {
    s: [u64; 4],
}

/// A type [`SmallRng::gen`] draws uniformly over its whole domain
/// (`[0, 1)` for `f64`).
pub trait Draw {
    fn draw(rng: &mut SmallRng) -> Self;
}

/// A type [`SmallRng::gen_range`] draws uniformly between two bounds.
pub trait Uniform: Copy + PartialOrd {
    /// A value in `[low, high)`, or `[low, high]` when `inclusive`.
    fn between(rng: &mut SmallRng, low: Self, high: Self, inclusive: bool) -> Self;
}

impl SmallRng {
    /// The generator for `seed`.
    pub fn seed_from_u64(seed: u64) -> SmallRng {
        let mut sm = SplitMix64::new(seed);
        SmallRng { s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()] }
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// A value drawn uniformly over `T`'s domain.
    pub fn gen<T: Draw>(&mut self) -> T {
        T::draw(self)
    }

    /// A value drawn uniformly from `range` (`a..b` or `a..=b`). Panics
    /// when the range is empty or open-ended.
    pub fn gen_range<T: Uniform, R: RangeBounds<T>>(&mut self, range: R) -> T {
        let (low, high, inclusive) = match (range.start_bound(), range.end_bound()) {
            (Bound::Included(&low), Bound::Excluded(&high)) => (low, high, false),
            (Bound::Included(&low), Bound::Included(&high)) => (low, high, true),
            // sos-lint: allow(panic-macro) an open-ended range is a caller bug, like an empty one
            _ => panic!("gen_range needs a range with a start and an end"),
        };
        assert!(if inclusive { low <= high } else { low < high }, "cannot sample empty range");
        T::between(self, low, high, inclusive)
    }

    /// `true` with probability `p`: one draw below `p * 2^64`, none when
    /// `p == 1`. Panics when `p` is outside `[0, 1]`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside range [0.0, 1.0]");
        p >= 1.0 || self.next_u64() < (p * 2f64.powi(64)) as u64
    }
}

/// Integers of 64 bits or less: one draw, truncated.
macro_rules! draw_ints {
    ($($t:ty),*) => {$(
        impl Draw for $t {
            #[inline]
            fn draw(rng: &mut SmallRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
draw_ints!(u8, u16, u32, u64);

/// Integers of 64 bits or less: widening-multiply rejection over the `u64`
/// span. `as u64` sign-extends signed bounds, so the wrapping difference is
/// the span for every type, and an `i32` range draws exactly as `u32` does.
macro_rules! uniform_ints {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn between(rng: &mut SmallRng, low: $t, high: $t, inclusive: bool) -> $t {
                let span = (high as u64).wrapping_sub(low as u64).wrapping_add(u64::from(inclusive));
                if span == 0 {
                    return rng.next_u64() as $t; // the full 64-bit domain
                }
                let zone = (span << span.leading_zeros()).wrapping_sub(1);
                loop {
                    let m = u128::from(rng.next_u64()) * u128::from(span);
                    if (m as u64) <= zone {
                        return low.wrapping_add((m >> 64) as $t);
                    }
                }
            }
        }
    )*};
}
uniform_ints!(u8, u32, u64, usize, i32);

/// Two draws, the second in the high half.
impl Draw for u128 {
    #[inline]
    fn draw(rng: &mut SmallRng) -> u128 {
        u128::from(rng.next_u64()) | u128::from(rng.next_u64()) << 64
    }
}

/// Modulo rejection over two draws, the *first* in the high half.
impl Uniform for u128 {
    fn between(rng: &mut SmallRng, low: u128, high: u128, inclusive: bool) -> u128 {
        let span = high.wrapping_sub(low).wrapping_add(u128::from(inclusive));
        loop {
            let v = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
            if span == 0 {
                return v; // the full 128-bit domain
            }
            if v < span * (u128::MAX / span) {
                return low.wrapping_add(v % span);
            }
        }
    }
}

/// The top 53 bits of one draw, scaled into `[0, 1)`.
impl Draw for f64 {
    #[inline]
    fn draw(rng: &mut SmallRng) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every expected value below was recorded from the previous
    // `rand::rngs::SmallRng` stand-in; the streams must stay equal to it.

    #[test]
    fn next_u64_is_pinned() {
        let mut r = SmallRng::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(got, [0x5317_5d61_490b_23df, 0x61da_6f3d_c380_d507, 0x5c0f_df91_ec9a_7bfc, 0x02ee_bf8c_3bbe_5e1a]);
        let mut r = SmallRng::seed_from_u64(0xC0FFEE);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(got, [0x8c76_15e9_af6b_4ae5, 0xd175_fd6e_7f59_7969, 0xac82_3e0a_e898_e8ec, 0x6712_78cc_5016_3c69]);
    }

    #[test]
    fn seed_is_four_splitmix_outputs() {
        let mut sm = SplitMix64::new(0xC0FFEE);
        let s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        assert_eq!(SmallRng::seed_from_u64(0xC0FFEE).s, s);
    }

    #[test]
    fn gen_range_is_pinned() {
        let mut r = SmallRng::seed_from_u64(7);
        let got: Vec<u64> = (0..6).map(|_| r.gen_range(10u64..1_000_003)).collect();
        assert_eq!(got, [55_370, 172_124, 717_581, 427_216, 963_662, 465_710]);
        let mut r = SmallRng::seed_from_u64(7);
        let got: Vec<usize> = (0..12).map(|_| r.gen_range(2..=8usize)).collect();
        assert_eq!(got, [2, 3, 7, 8, 5, 7, 4, 2, 2, 3, 7, 2]);
        let mut r = SmallRng::seed_from_u64(7);
        let got: Vec<u128> = (0..6).map(|_| r.gen_range(0..4096u128)).collect();
        assert_eq!(got, [3604, 316, 1161, 1320, 493, 3710]);
    }

    #[test]
    fn untyped_literal_range_draws_as_u32() {
        let (mut a, mut b) = (SmallRng::seed_from_u64(9), SmallRng::seed_from_u64(9));
        for _ in 0..1000 {
            let x = a.gen_range(0..37);
            assert_eq!(x as u32, b.gen_range(0u32..37));
        }
    }

    #[test]
    fn gen_is_pinned() {
        let mut r = SmallRng::seed_from_u64(7);
        let got: Vec<f64> = (0..3).map(|_| r.gen::<f64>()).collect();
        assert_eq!(got, [0.055_360_436_478_333_11, 0.172_115_854_448_117_72, 0.717_576_128_358_659_4]);
        let mut r = SmallRng::seed_from_u64(7);
        assert_eq!(r.gen::<u128>(), 0x2c0f_c8dd_fa4e_9e14_0e2c_1a00_2aae_913d);
        assert_eq!(r.gen::<u128>(), 0x6d5d_9f6a_6318_013c_b7b3_11b3_b0d4_5872);
    }

    #[test]
    fn gen_bool_is_pinned() {
        let mut r = SmallRng::seed_from_u64(7);
        let got: String = (0..32).map(|_| if r.gen_bool(0.37) { '1' } else { '0' }).collect();
        assert_eq!(got, "11000001011101011110000001110101");
    }

    #[test]
    #[should_panic(expected = "cannot sample empty range")]
    fn empty_range_panics() {
        SmallRng::seed_from_u64(1).gen_range(5u32..5);
    }

    #[test]
    #[should_panic(expected = "outside range")]
    fn gen_bool_rejects_p_above_one() {
        SmallRng::seed_from_u64(1).gen_bool(1.5);
    }
}
