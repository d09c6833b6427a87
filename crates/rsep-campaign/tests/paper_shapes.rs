//! Shape tests against the paper's qualitative claims, at a reduced scale.
//! These assert directional relationships (who has more redundancy, which
//! structures cost more storage), not absolute numbers.

use rsep_core::{
    IsrbConfig, MechanismConfig, RedundancyAnalyzer, RedundancyConfig, RsepConfig, VpConfig,
};
use rsep_predictors::DistancePredictorConfig;
use rsep_trace::{BenchmarkProfile, TraceGenerator};

fn redundancy(name: &str) -> rsep_core::RedundancyReport {
    let profile = BenchmarkProfile::by_name(name).unwrap();
    let trace = TraceGenerator::new(&profile, 13).take(60_000);
    RedundancyAnalyzer::analyze(RedundancyConfig::default(), trace)
}

#[test]
fn figure1_zero_heavy_benchmarks() {
    // zeusmp and cactusADM stand out in Figure 1 for zero results.
    let zeusmp = redundancy("zeusmp");
    let cactus = redundancy("cactusADM");
    let sjeng = redundancy("sjeng");
    for (name, r) in [("zeusmp", &zeusmp), ("cactusADM", &cactus)] {
        let zero = r.zero_load_fraction() + r.zero_other_fraction();
        let sjeng_zero = sjeng.zero_load_fraction() + sjeng.zero_other_fraction();
        assert!(zero > 2.0 * sjeng_zero, "{name}: {zero} vs sjeng {sjeng_zero}");
        assert!(zero > 0.08, "{name}: zero fraction {zero}");
    }
}

#[test]
fn figure1_redundancy_is_widespread() {
    // "In most cases, the ratio is around or greater than 5%."
    let mut above_5_percent = 0;
    let names =
        ["mcf", "hmmer", "libquantum", "omnetpp", "xalancbmk", "dealII", "perlbench", "gcc"];
    for name in names {
        let r = redundancy(name);
        if r.prf_load_fraction() + r.prf_other_fraction() > 0.05 {
            above_5_percent += 1;
        }
    }
    assert!(
        above_5_percent >= 6,
        "only {above_5_percent} of {} RSEP-relevant profiles show >5% redundancy",
        names.len()
    );
}

#[test]
fn figure1_mcf_redundancy_is_load_dominated_dealii_is_not() {
    let mcf = redundancy("mcf");
    let dealii = redundancy("dealII");
    assert!(mcf.prf_load_fraction() > mcf.prf_other_fraction());
    assert!(dealii.prf_other_fraction() > dealii.prf_load_fraction());
}

#[test]
fn storage_comparison_rsep_is_an_order_of_magnitude_below_dvtage() {
    // Section VI-B: ~10.8 KB for RSEP vs 256 KB (16-32 KB minimum) for VP.
    let rsep = RsepConfig::realistic().storage_kb();
    let vp = VpConfig::paper().storage_kb();
    assert!(vp / rsep > 10.0, "vp {vp:.1} KB vs rsep {rsep:.1} KB");
}

#[test]
fn predictor_configurations_match_section_vi() {
    assert!((DistancePredictorConfig::ideal().storage_kb() - 42.6).abs() < 1.0);
    assert!((DistancePredictorConfig::realistic().storage_kb() - 10.1).abs() < 0.7);
    let isrb_bytes = IsrbConfig::paper().storage_bits() as f64 / 8.0;
    assert!((isrb_bytes - 63.0).abs() < 6.0);
}

#[test]
fn figure4_mechanism_suite_composition() {
    // RSEP configurations subsume move elimination (Section IV-H1) and the
    // combination enables both predictors.
    let combo = MechanismConfig::rsep_plus_vp();
    assert!(combo.rsep.is_some() && combo.vp.is_some() && combo.move_elim);
    let vp_only = MechanismConfig::value_pred();
    assert!(vp_only.rsep.is_none() && vp_only.vp.is_some());
}

#[test]
fn calibrated_profiles_separate_rsep_winners_from_unstable_redundancy() {
    // The paper's RSEP winners have regular (distance-stable) redundancy;
    // zeusmp/cactusADM have potential (Figure 1) without regularity.
    for name in ["mcf", "dealII", "hmmer", "libquantum", "omnetpp", "xalancbmk"] {
        let p = BenchmarkProfile::by_name(name).unwrap();
        assert!(p.distance_stability >= 0.85, "{name}");
    }
    for name in ["zeusmp", "cactusADM"] {
        let p = BenchmarkProfile::by_name(name).unwrap();
        assert!(p.distance_stability < 0.5, "{name}");
    }
}
