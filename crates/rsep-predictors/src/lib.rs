//! # rsep-predictors
//!
//! Prediction structures used by the RSEP reproduction. Every family has
//! the same inherent `predict` / `train` / `storage_bits` / `stats` shape
//! and reports the shared [`PredictorStats`] counters (see [`predictor`]):
//!
//! * [`Tage`] — the TAGE conditional branch predictor of the Table I front
//!   end (1 + 12 components, ~15K entries).
//! * [`DistancePredictor`] — the TAGE-like instruction-distance predictor of
//!   Section IV-C, in its *ideal* (42.6 KB) and *realistic* (10.1 KB)
//!   configurations.
//! * [`Dvtage`] — the D-VTAGE value predictor (≈256 KB) used as the paper's
//!   VP baseline.
//! * [`ZeroPredictor`] — the zero predictor of Section III.
//! * [`Btb`] / [`ReturnAddressStack`] — front-end target prediction.
//! * [`PredictorStack`] — TAGE + BTB + RAS + global history resolved one
//!   fetch block at a time through [`PredictorStack::predict_block`].
//! * [`ProbabilisticCounter`] — 3-bit probabilistic (FPC) confidence
//!   counters shared by the value/distance/zero predictors.
//!
//! Every table is stored struct-of-arrays (flat tag arrays plus packed
//! counter/useful bytes), and all predictors are deterministic given their
//! internal LFSR seeds, so simulations are reproducible.

// `deny`, not `forbid`: the AVX2 build of the fold advance loop
// (`history::FoldStateSoa::advance_values`) needs one scoped
// `#[allow(unsafe_code)]` for its runtime-feature-gated call. That is the
// only unsafe in the workspace.
#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod btb;
pub mod counters;
pub mod distance;
pub mod dvtage;
pub mod history;
pub mod predictor;
pub mod stack;
pub mod tage;
pub mod zero;

pub use btb::{Btb, BtbConfig, ReturnAddressStack};
pub use counters::{ConfidenceParams, Lfsr, ProbabilisticCounter};
pub use distance::{DistancePrediction, DistancePredictor, DistancePredictorConfig};
pub use dvtage::{Dvtage, DvtageConfig, ValuePrediction};
pub use history::{FoldStateSoa, FoldedHistory, GlobalHistory};
pub use predictor::PredictorStats;
pub use stack::{PredictRequest, PredictorStack};
pub use tage::{Tage, TageConfig, TagePrediction};
pub use zero::{ZeroPrediction, ZeroPredictor, ZeroPredictorConfig};
