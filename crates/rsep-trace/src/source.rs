//! The [`TraceSource`] abstraction: anything that can feed the core.
//!
//! The simulator's cycle loop (`Core::run`) consumes a plain
//! `Iterator<Item = DynInst>`; a [`TraceSource`] is such an iterator plus
//! the metadata the trace tooling needs — where the stream comes from
//! (for headers and diagnostics) and, when known, how many instructions
//! remain (for progress reporting and pre-sizing). Both the live
//! [`TraceGenerator`] and the `rsep-tracefile`
//! reader implement it, which is what lets `rsep trace record` drain any
//! source into a file and `rsep trace replay` drive the core from one
//! interchangeably.

use crate::generator::TraceGenerator;
use rsep_isa::DynInst;

/// An instruction stream the simulator, recorder or analyzer can drain.
///
/// Implementations must be deterministic: two sources constructed with
/// the same parameters yield identical streams, which is the property the
/// record/replay equivalence tests pin.
pub trait TraceSource: Iterator<Item = DynInst> {
    /// A human-readable description of where the stream comes from
    /// (profile name, file path, ...), used in trace-file headers and
    /// error messages.
    fn origin(&self) -> String;

    /// Number of instructions left in the stream, when the source knows
    /// it. Unbounded or streaming sources return `None`.
    fn remaining(&self) -> Option<u64> {
        None
    }
}

impl TraceSource for TraceGenerator {
    fn origin(&self) -> String {
        format!("generator:{}", self.profile_name())
    }
}

/// Forward through mutable references so `&mut dyn TraceSource` /
/// `&mut impl TraceSource` can be passed down call chains that take
/// `impl TraceSource` by value.
impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn origin(&self) -> String {
        (**self).origin()
    }

    fn remaining(&self) -> Option<u64> {
        (**self).remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BenchmarkProfile;

    #[test]
    fn generator_reports_its_profile_as_origin() {
        let profile = BenchmarkProfile::by_name("gcc").unwrap();
        let generator = TraceGenerator::new(&profile, 42);
        assert_eq!(generator.origin(), "generator:gcc");
        assert_eq!(generator.remaining(), None);
    }

    #[test]
    fn mutable_references_forward_the_metadata() {
        let profile = BenchmarkProfile::by_name("mcf").unwrap();
        let mut generator = TraceGenerator::new(&profile, 1);
        let by_ref: &mut TraceGenerator = &mut generator;
        assert_eq!(by_ref.origin(), "generator:mcf");
    }
}
