//! Result hashing (Section IV-A of the paper).
//!
//! RSEP identifies pairs of instructions that produce the same result by
//! comparing *hashes* of the 64-bit results rather than full values: a false
//! positive only causes a (recoverable) misprediction, so accuracy can be
//! traded for comparator width and power. The paper uses a simple folding
//! function that XORs n-bit chunks of the value together, and recommends a
//! width that is *not* a power of two (14 bits) so that common values such
//! as `0` and `-1` do not collide.

use std::fmt;

/// Default hash width used throughout the paper (14 bits).
// lint: exempt(dead-pub-api, architectural constant from the paper; part of the public contract)
pub const DEFAULT_HASH_WIDTH: u8 = 14;

/// The folding hash of Section IV-A.
///
/// For a width `n`, the 64-bit value is split into `ceil(64 / n)` chunks of
/// `n` bits (the last chunk being narrower) and all chunks are XORed
/// together. With `n = 14` this reproduces the function given in the paper:
///
/// ```text
/// Hash[13..0] = val[13..0] ^ val[27..14] ^ val[41..28] ^ val[55..42] ^ val[63..56]
/// ```
///
/// # Examples
///
/// ```
/// use rsep_isa::FoldHash;
///
/// let h = FoldHash::new(14);
/// assert_eq!(h.hash(0), 0);
/// // Equal values always hash equal.
/// assert_eq!(h.hash(0xdead_beef), h.hash(0xdead_beef));
/// // -1 and 0 must not collide with a 14-bit fold (the motivation for
/// // avoiding power-of-two widths).
/// assert_ne!(h.hash(u64::MAX), h.hash(0));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FoldHash {
    width: u8,
}

impl FoldHash {
    /// Creates a folding hash of the given width in bits.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= width <= 64`.
    pub fn new(width: u8) -> FoldHash {
        assert!((1..=64).contains(&width), "hash width must be between 1 and 64 bits, got {width}");
        FoldHash { width }
    }

    /// The paper's default 14-bit configuration.
    pub fn paper_default() -> FoldHash {
        FoldHash::new(DEFAULT_HASH_WIDTH)
    }

    /// Width of the produced hash in bits.
    #[inline]
    pub fn width(self) -> u8 {
        self.width
    }

    /// Mask selecting the low `width` bits.
    #[inline]
    pub fn mask(self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// Hashes a 64-bit result value down to `width` bits.
    #[inline]
    pub fn hash(self, value: u64) -> u16 {
        if self.width >= 64 {
            // Degenerate "full comparison" configuration used in ablations;
            // fold to 16 bits of mixing is meaningless, so collapse via
            // XOR-fold to 16 bits only when asked to report as u16. To keep
            // a total order with wider configurations we still fold, but the
            // `hash64` accessor exposes the unfolded value.
            let v = value ^ (value >> 32);
            let v = v ^ (v >> 16);
            return (v & 0xffff) as u16;
        }
        let mask = self.mask();
        let mut acc = 0u64;
        let mut v = value;
        while v != 0 {
            acc ^= v & mask;
            v >>= self.width;
        }
        debug_assert!(acc <= mask);
        acc as u16
    }

    /// Hashes a value without folding past 64 bits (used when `width == 64`
    /// to model exact comparison in ablation studies).
    #[inline]
    pub fn hash64(self, value: u64) -> u64 {
        if self.width >= 64 {
            value
        } else {
            u64::from(self.hash(value))
        }
    }

    /// Probability that two uniformly random distinct values collide, i.e.
    /// `1 / 2^width` (used by the hash-width ablation to report the expected
    /// false-positive rate).
    pub fn collision_probability(self) -> f64 {
        if self.width >= 64 {
            0.0
        } else {
            1.0 / (self.mask() as f64 + 1.0)
        }
    }
}

impl fmt::Debug for FoldHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FoldHash").field("width", &self.width).finish()
    }
}

impl Default for FoldHash {
    fn default() -> Self {
        FoldHash::paper_default()
    }
}

impl crate::Fingerprint for FoldHash {
    fn fingerprint(&self, h: &mut crate::Fnv) {
        let Self { width } = self;
        h.write_str("FoldHash");
        h.write_u64(u64::from(*width));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_paper_formula_for_14_bits() {
        let h = FoldHash::new(14);
        for &val in &[0u64, 1, 0xdead_beef_cafe_f00d, u64::MAX, 0x0123_4567_89ab_cdef, 1 << 63] {
            let expected = (val & 0x3fff)
                ^ ((val >> 14) & 0x3fff)
                ^ ((val >> 28) & 0x3fff)
                ^ ((val >> 42) & 0x3fff)
                ^ ((val >> 56) & 0x3fff);
            assert_eq!(u64::from(h.hash(val)), expected, "value {val:#x}");
        }
    }

    #[test]
    fn zero_hashes_to_zero() {
        for width in 1..=63u8 {
            assert_eq!(FoldHash::new(width).hash(0), 0);
        }
    }

    #[test]
    fn minus_one_collides_with_zero_only_for_power_of_two_widths() {
        // The motivation given in the paper for picking n = 14: with an 8- or
        // 16-bit fold, -1 (all ones) folds to 0 because 64 is a multiple of
        // the width and XOR of an even number of all-ones chunks cancels.
        assert_eq!(FoldHash::new(16).hash(u64::MAX), 0);
        assert_eq!(FoldHash::new(8).hash(u64::MAX), 0);
        assert_ne!(FoldHash::new(14).hash(u64::MAX), 0);
        assert_ne!(FoldHash::new(10).hash(u64::MAX), 0);
    }

    #[test]
    fn hash_fits_in_width() {
        for width in 1..=16u8 {
            let h = FoldHash::new(width);
            for &val in &[0u64, 1, 42, u64::MAX, 0x8000_0000_0000_0001] {
                assert!(u64::from(h.hash(val)) <= h.mask());
            }
        }
    }

    #[test]
    fn width_64_is_exact() {
        let h = FoldHash::new(64);
        assert_eq!(h.hash64(0xdead_beef), 0xdead_beef);
        assert_eq!(h.collision_probability(), 0.0);
    }

    #[test]
    fn collision_probability_halves_per_bit() {
        let p8 = FoldHash::new(8).collision_probability();
        let p9 = FoldHash::new(9).collision_probability();
        assert!((p8 / p9 - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "between 1 and 64")]
    fn zero_width_is_rejected() {
        let _ = FoldHash::new(0);
    }
}
