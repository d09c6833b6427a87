//! Structural fingerprinting for configuration types.
//!
//! The campaign engine identifies every simulation cell by a
//! *content-addressed key*: a deterministic hash over the full
//! configuration that produced it (benchmark profile, mechanism, core
//! parameters, checkpoint scale, sub-seed). Config types across the
//! workspace implement [`Fingerprint`] by feeding each field into an
//! [`Fnv`] hasher, so tweaking any parameter changes exactly the keys of
//! the affected cells — the basis for the crash-resumable campaign stores
//! in `rsep-campaign`.
//!
//! Unlike `std::hash::Hash`, the result is **stable across processes,
//! platforms and compiler versions**: FNV-1a over a defined byte encoding,
//! with no randomised state. That stability is what allows stored cell
//! results written by one run to be served to the run that resumes it.

/// 64-bit FNV-1a hasher with a defined, platform-independent encoding.
///
/// Values are folded in little-endian byte order; strings are
/// length-prefixed so `("ab", "c")` and `("a", "bc")` hash differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv {
    state: u64,
}

/// The standard FNV-1a 64-bit offset basis.
pub const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fnv {
    /// A hasher starting from the standard FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv { state: FNV_OFFSET_BASIS }
    }

    /// A hasher starting from a caller-chosen basis (used to derive several
    /// independent hashes of the same value, e.g. for a 128-bit key).
    pub fn with_basis(basis: u64) -> Fnv {
        Fnv { state: basis }
    }

    /// Folds raw bytes into the state.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one `u64` (little-endian).
    pub fn write_u64(&mut self, value: u64) {
        self.write_bytes(&value.to_le_bytes());
    }

    /// Folds a length-prefixed string.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Deterministic structural hashing of configuration values.
///
/// Implementations must feed **every field that affects simulation
/// results** into the hasher, in a fixed order, and should start with a
/// short type tag (`h.write_str("TypeName")`) so two structurally similar
/// types never collide. Fields that are pure presentation (labels already
/// covered elsewhere, derived storage numbers) may be skipped only when
/// they cannot change the simulated outcome.
///
/// Struct impls in this workspace open with an exhaustive
/// `let Self { a, b, .. } = self;` that names every field (no `..` rest
/// pattern), binding a skipped one as `field: _`. A field added later is
/// then a compile error until the impl binds it, and a bound field that is
/// never hashed is an `unused variable` warning.
pub trait Fingerprint {
    /// Feeds this value into the hasher.
    fn fingerprint(&self, h: &mut Fnv);

    /// Convenience: the FNV-1a hash of this value alone.
    fn fingerprint_value(&self) -> u64 {
        let mut h = Fnv::new();
        self.fingerprint(&mut h);
        h.finish()
    }
}

macro_rules! impl_fingerprint_uint {
    ($($t:ty),*) => {$(
        impl Fingerprint for $t {
            fn fingerprint(&self, h: &mut Fnv) {
                h.write_u64(*self as u64);
            }
        }
    )*};
}

impl_fingerprint_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_fingerprint_int {
    ($($t:ty),*) => {$(
        impl Fingerprint for $t {
            fn fingerprint(&self, h: &mut Fnv) {
                h.write_u64(*self as i64 as u64);
            }
        }
    )*};
}

impl_fingerprint_int!(i8, i16, i32, i64);

impl Fingerprint for bool {
    fn fingerprint(&self, h: &mut Fnv) {
        h.write_u64(u64::from(*self));
    }
}

impl Fingerprint for f64 {
    fn fingerprint(&self, h: &mut Fnv) {
        // Bit pattern, so -0.0 and 0.0 (or two NaN payloads) hash as what
        // they are: the exact value the simulation would consume.
        h.write_u64(self.to_bits());
    }
}

impl Fingerprint for str {
    fn fingerprint(&self, h: &mut Fnv) {
        h.write_str(self);
    }
}

impl Fingerprint for String {
    fn fingerprint(&self, h: &mut Fnv) {
        h.write_str(self);
    }
}

impl<T: Fingerprint + ?Sized> Fingerprint for &T {
    fn fingerprint(&self, h: &mut Fnv) {
        (*self).fingerprint(h);
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn fingerprint(&self, h: &mut Fnv) {
        match self {
            None => h.write_u64(0),
            Some(value) => {
                h.write_u64(1);
                value.fingerprint(h);
            }
        }
    }
}

impl<T: Fingerprint> Fingerprint for [T] {
    fn fingerprint(&self, h: &mut Fnv) {
        h.write_u64(self.len() as u64);
        for item in self {
            item.fingerprint(h);
        }
    }
}

impl<T: Fingerprint> Fingerprint for Vec<T> {
    fn fingerprint(&self, h: &mut Fnv) {
        self.as_slice().fingerprint(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        let mut h = Fnv::new();
        h.write_bytes(b"");
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::new();
        h.write_bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.write_bytes(b"foobar");
        assert_eq!(h.finish(), 0x85944171f73967e8);
    }

    #[test]
    fn strings_are_length_prefixed() {
        let a = ("ab".to_string(), "c".to_string());
        let b = ("a".to_string(), "bc".to_string());
        let hash = |pair: &(String, String)| {
            let mut h = Fnv::new();
            pair.0.fingerprint(&mut h);
            pair.1.fingerprint(&mut h);
            h.finish()
        };
        assert_ne!(hash(&a), hash(&b));
    }

    #[test]
    fn option_discriminates_none_from_zero() {
        assert_ne!(None::<u64>.fingerprint_value(), Some(0u64).fingerprint_value());
    }

    #[test]
    fn vec_is_length_prefixed() {
        let a: Vec<u64> = vec![];
        let b: Vec<u64> = vec![0];
        assert_ne!(a.fingerprint_value(), b.fingerprint_value());
    }

    #[test]
    fn distinct_bases_give_independent_hashes() {
        let mut a = Fnv::new();
        let mut b = Fnv::with_basis(0x1234_5678_9abc_def0);
        a.write_u64(42);
        b.write_u64(42);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn f64_hashes_by_bit_pattern() {
        assert_ne!(0.0f64.fingerprint_value(), (-0.0f64).fingerprint_value());
        assert_eq!(1.5f64.fingerprint_value(), 1.5f64.fingerprint_value());
    }
}
