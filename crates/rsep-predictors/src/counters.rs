//! Saturating and probabilistic confidence counters.
//!
//! The paper (following Perais & Seznec \[7\] and Riley & Zilles \[32\]) uses
//! 3-bit *probabilistic* confidence counters: each successful prediction
//! only increments the counter with a small probability, so a 3-bit counter
//! behaves like a much wider one (the paper trains for ~255 occurrences
//! before the counter saturates). Prediction is only used when the counter
//! is saturated, keeping the misprediction rate very low (>99.5% accuracy in
//! Section VI-B).

/// A classic saturating counter in `0..=max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SaturatingCounter {
    value: u16,
    max: u16,
}

impl SaturatingCounter {
    /// Creates a counter saturating at `max`, starting at 0.
    pub fn new(max: u16) -> SaturatingCounter {
        SaturatingCounter { value: 0, max }
    }

    /// Creates a counter with an initial value.
    pub fn with_value(max: u16, value: u16) -> SaturatingCounter {
        SaturatingCounter { value: value.min(max), max }
    }

    /// Current value.
    #[inline]
    pub fn value(&self) -> u16 {
        self.value
    }

    /// Maximum value.
    #[inline]
    pub fn max(&self) -> u16 {
        self.max
    }

    /// Increments, saturating at the maximum.
    #[inline]
    pub fn increment(&mut self) {
        if self.value < self.max {
            self.value += 1;
        }
    }

    /// Decrements, saturating at zero.
    #[inline]
    pub fn decrement(&mut self) {
        self.value = self.value.saturating_sub(1);
    }

    /// Resets to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.value = 0;
    }

    /// Returns `true` when the counter has reached its maximum.
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.value == self.max
    }
}

/// A small xorshift PRNG used by probabilistic counters.
///
/// Hardware implementations use an LFSR shared by all counters; a xorshift
/// generator gives the same statistical behaviour and keeps this crate free
/// of external dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lfsr {
    state: u64,
}

impl Lfsr {
    /// Creates a generator from a non-zero seed.
    pub fn new(seed: u64) -> Lfsr {
        Lfsr { state: seed | 1 }
    }

    /// Returns the next pseudo-random 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Returns `true` with probability `1 / denominator`.
    #[inline]
    pub fn one_in(&mut self, denominator: u32) -> bool {
        debug_assert!(denominator > 0);
        self.next_u64().is_multiple_of(u64::from(denominator))
    }
}

impl Default for Lfsr {
    fn default() -> Self {
        Lfsr::new(0x9e37_79b9_7f4a_7c15)
    }
}

/// A probabilistic (forward probabilistic counter, FPC) confidence counter.
///
/// The counter holds `bits` bits; increments only happen with probability
/// `1 / inc_denominator`, so saturating requires on average
/// `(2^bits - 1) * inc_denominator` successful predictions. Any failure
/// resets the counter, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbabilisticCounter {
    value: u8,
    max: u8,
    inc_denominator: u32,
}

impl ProbabilisticCounter {
    /// Creates a probabilistic counter with the given width and increment
    /// probability denominator.
    pub fn new(bits: u8, inc_denominator: u32) -> ProbabilisticCounter {
        assert!((1..=7).contains(&bits), "counter width must be 1..=7 bits");
        assert!(inc_denominator >= 1);
        ProbabilisticCounter { value: 0, max: (1 << bits) - 1, inc_denominator }
    }

    /// The paper's configuration: 3-bit counter, increment with probability
    /// 1/36, so saturation takes about 255 correct outcomes on average
    /// (Section IV-B3 trains for ~255 occurrences).
    pub fn paper_default() -> ProbabilisticCounter {
        ProbabilisticCounter::new(3, 36)
    }

    /// Current raw counter value.
    #[inline]
    pub fn value(&self) -> u8 {
        self.value
    }

    /// Maximum raw counter value.
    #[inline]
    pub fn max(&self) -> u8 {
        self.max
    }

    /// Expected number of correct outcomes needed to saturate from zero.
    pub fn expected_training_length(&self) -> u64 {
        u64::from(self.max) * u64::from(self.inc_denominator)
    }

    /// Records a correct outcome; increments with the configured
    /// probability using the shared `lfsr`.
    #[inline]
    pub fn record_correct(&mut self, lfsr: &mut Lfsr) {
        if self.value < self.max && lfsr.one_in(self.inc_denominator) {
            self.value += 1;
        }
    }

    /// Records an incorrect outcome; resets the counter (the conservative
    /// policy used for value/distance prediction where mispredictions are
    /// very expensive).
    #[inline]
    pub fn record_incorrect(&mut self) {
        self.value = 0;
    }

    /// Returns `true` when the counter is saturated (prediction allowed).
    #[inline]
    pub fn is_saturated(&self) -> bool {
        self.value == self.max
    }

    /// Returns `true` when the counter is at or above the given raw
    /// threshold (used for the `start_train` sampling threshold of
    /// Section IV-B3).
    #[inline]
    pub fn at_least(&self, threshold: u8) -> bool {
        self.value >= threshold
    }

    /// Storage cost of this counter in bits.
    pub fn storage_bits(&self) -> u32 {
        8 - self.max.leading_zeros()
    }
}

/// The shared parameters of a *table* of probabilistic counters.
///
/// The SoA predictor tables store each entry's confidence as a raw byte
/// (the counter value) instead of a full [`ProbabilisticCounter`] per
/// entry — the width and increment probability are uniform across a
/// table, so they live once in the predictor. The update rules are
/// bit-for-bit those of [`ProbabilisticCounter`], including the
/// short-circuit order of the saturation check and the LFSR draw (the
/// draw only happens below saturation, which keeps the shared LFSR
/// sequence identical to the per-entry representation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfidenceParams {
    max: u8,
    inc_denominator: u32,
}

impl ConfidenceParams {
    /// Parameters for `bits`-wide counters incrementing with probability
    /// `1 / inc_denominator`.
    pub fn new(bits: u8, inc_denominator: u32) -> ConfidenceParams {
        assert!((1..=7).contains(&bits), "counter width must be 1..=7 bits");
        assert!(inc_denominator >= 1);
        ConfidenceParams { max: (1 << bits) - 1, inc_denominator }
    }

    /// Saturation value.
    #[inline]
    pub fn max(&self) -> u8 {
        self.max
    }

    /// Records a correct outcome on a raw counter value.
    #[inline]
    pub fn record_correct(&self, value: &mut u8, lfsr: &mut Lfsr) {
        if *value < self.max && lfsr.one_in(self.inc_denominator) {
            *value += 1;
        }
    }

    /// Records an incorrect outcome (reset, the conservative policy).
    #[inline]
    pub fn record_incorrect(&self, value: &mut u8) {
        *value = 0;
    }

    /// Returns `true` when the raw value is saturated.
    #[inline]
    pub fn is_saturated(&self, value: u8) -> bool {
        value == self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_counter_saturates_both_ways() {
        let mut c = SaturatingCounter::new(3);
        assert_eq!(c.value(), 0);
        c.decrement();
        assert_eq!(c.value(), 0);
        for _ in 0..10 {
            c.increment();
        }
        assert_eq!(c.value(), 3);
        assert!(c.is_saturated());
        c.decrement();
        assert_eq!(c.value(), 2);
        c.reset();
        assert_eq!(c.value(), 0);
        assert_eq!(c.max(), 3);
    }

    #[test]
    fn with_value_clamps() {
        let c = SaturatingCounter::with_value(3, 9);
        assert_eq!(c.value(), 3);
    }

    #[test]
    fn lfsr_produces_varied_values() {
        let mut l = Lfsr::new(42);
        let a = l.next_u64();
        let b = l.next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn lfsr_one_in_statistics() {
        let mut l = Lfsr::new(7);
        let hits = (0..100_000).filter(|_| l.one_in(8)).count();
        let expected = 100_000 / 8;
        assert!((hits as i64 - expected as i64).abs() < expected as i64 / 4, "hits = {hits}");
    }

    #[test]
    fn probabilistic_counter_needs_many_corrects_to_saturate() {
        let mut lfsr = Lfsr::new(3);
        let mut lengths = Vec::new();
        for _ in 0..50 {
            let mut c = ProbabilisticCounter::paper_default();
            let mut n = 0u64;
            while !c.is_saturated() {
                c.record_correct(&mut lfsr);
                n += 1;
            }
            lengths.push(n);
        }
        let mean = lengths.iter().sum::<u64>() as f64 / lengths.len() as f64;
        let expected = ProbabilisticCounter::paper_default().expected_training_length() as f64;
        assert!(
            (mean - expected).abs() < expected * 0.4,
            "mean training length {mean}, expected about {expected}"
        );
    }

    #[test]
    fn incorrect_resets_probabilistic_counter() {
        let mut lfsr = Lfsr::new(3);
        let mut c = ProbabilisticCounter::new(2, 1);
        for _ in 0..10 {
            c.record_correct(&mut lfsr);
        }
        assert!(c.is_saturated());
        c.record_incorrect();
        assert_eq!(c.value(), 0);
        assert!(!c.is_saturated());
    }

    #[test]
    fn at_least_threshold() {
        let mut lfsr = Lfsr::new(3);
        let mut c = ProbabilisticCounter::new(3, 1);
        assert!(c.at_least(0));
        assert!(!c.at_least(1));
        c.record_correct(&mut lfsr);
        assert!(c.at_least(1));
    }

    #[test]
    #[should_panic(expected = "counter width")]
    fn counter_width_is_validated() {
        let _ = ProbabilisticCounter::new(0, 4);
    }

    #[test]
    fn storage_bits() {
        assert_eq!(ProbabilisticCounter::new(3, 4).storage_bits(), 3);
        assert_eq!(ProbabilisticCounter::new(1, 4).storage_bits(), 1);
    }

    #[test]
    fn confidence_params_match_the_per_entry_counter_bit_for_bit() {
        // Same seed, same outcome stream: the raw-byte representation must
        // track the per-entry counter exactly (including the shared LFSR
        // sequence, i.e. the draw must happen iff the counter draws).
        let mut lfsr_a = Lfsr::new(77);
        let mut lfsr_b = Lfsr::new(77);
        let mut counter = ProbabilisticCounter::new(3, 4);
        let params = ConfidenceParams::new(3, 4);
        let mut raw = 0u8;
        let mut pattern = 0x9e37_79b9u64;
        for _ in 0..10_000 {
            pattern = pattern.wrapping_mul(6364136223846793005).wrapping_add(1);
            if pattern.is_multiple_of(5) {
                counter.record_incorrect();
                params.record_incorrect(&mut raw);
            } else {
                counter.record_correct(&mut lfsr_a);
                params.record_correct(&mut raw, &mut lfsr_b);
            }
            assert_eq!(counter.value(), raw);
            assert_eq!(counter.is_saturated(), params.is_saturated(raw));
            assert_eq!(lfsr_a, lfsr_b, "LFSR sequences must stay in lockstep");
        }
    }
}
