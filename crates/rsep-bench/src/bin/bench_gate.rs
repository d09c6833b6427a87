//! Bench regression gate: compares a freshly measured `BENCH_*.json`
//! record against the committed baseline and fails (exit 1) when any
//! throughput figure dropped by more than the threshold.
//!
//! ```text
//! bench_gate <baseline.json> <current.json>
//! ```
//!
//! Every object in each record's `results` array is matched by its label
//! (the first string-valued field: `scheduler`, `path`, `mode`, ...), and
//! every numeric field named `*_per_sec` is compared. A drop of more than
//! `RSEP_BENCH_GATE_PCT` percent (default 10) fails the gate, as does a
//! result present in the baseline but missing from the current record.
//! Schema-v1 records (no `schema_version`) are accepted as baselines so
//! the gate works across the v1→v2 transition.
//!
//! One cross-path rule rides on top of the per-label comparisons: in the
//! `predictor_stack` record, the current `batched` path must not trail
//! the *baseline* `per_branch` path (the committed sequential-probe
//! reference) by more than the threshold — the batched front end exists
//! to beat the per-branch walk, so falling behind the figure it replaced
//! is a regression even if the batched path's own baseline was slower.
//! The rule applies whenever both labels are present and disappears with
//! the per-branch path once it is deleted.

#![forbid(unsafe_code)]

use rsep_stats::json::Json;
use std::process::ExitCode;

/// Default allowed throughput drop, percent.
const DEFAULT_THRESHOLD_PCT: f64 = 10.0;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [baseline_path, current_path] = args.as_slice() else {
        eprintln!("usage: bench_gate <baseline.json> <current.json>");
        eprintln!("       (threshold: RSEP_BENCH_GATE_PCT, default {DEFAULT_THRESHOLD_PCT})");
        return ExitCode::from(2);
    };
    let threshold = std::env::var("RSEP_BENCH_GATE_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_THRESHOLD_PCT);
    let baseline = match load(baseline_path) {
        Ok(json) => json,
        Err(error) => {
            eprintln!("bench_gate: cannot load baseline {baseline_path}: {error}");
            return ExitCode::from(2);
        }
    };
    let current = match load(current_path) {
        Ok(json) => json,
        Err(error) => {
            eprintln!("bench_gate: cannot load current {current_path}: {error}");
            return ExitCode::from(2);
        }
    };
    let report = compare(&baseline, &current, threshold);
    print!("{}", report.render());
    if report.failures.is_empty() {
        println!("bench_gate: OK ({} comparisons, threshold {threshold}%)", report.compared);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "bench_gate: FAIL — {} regression(s) beyond {threshold}% (override with \
             RSEP_BENCH_GATE_PCT)",
            report.failures.len()
        );
        ExitCode::FAILURE
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    Json::parse(&text).map_err(|e| format!("{e:?}"))
}

/// Outcome of one gate run.
struct Report {
    /// Human-readable comparison lines.
    lines: Vec<String>,
    /// Descriptions of the comparisons beyond the threshold.
    failures: Vec<String>,
    /// Number of numeric comparisons made.
    compared: usize,
}

impl Report {
    fn render(&self) -> String {
        let mut out = String::new();
        for line in &self.lines {
            out.push_str(line);
            out.push('\n');
        }
        out
    }
}

/// The result entry's label: the first string-valued field (`scheduler`,
/// `path`, `mode`, ...), key and value.
fn label_of(entry: &Json) -> Option<(String, String)> {
    let Json::Object(pairs) = entry else {
        return None;
    };
    pairs.iter().find_map(|(k, v)| v.as_str().map(|label| (k.clone(), label.to_string())))
}

fn compare(baseline: &Json, current: &Json, threshold_pct: f64) -> Report {
    let mut report = Report { lines: Vec::new(), failures: Vec::new(), compared: 0 };
    let empty: [Json; 0] = [];
    let baseline_results = baseline.get("results").and_then(Json::as_array).unwrap_or(&empty);
    let current_results = current.get("results").and_then(Json::as_array).unwrap_or(&empty);
    if baseline_results.is_empty() {
        report.failures.push("baseline has no results array".to_string());
        return report;
    }
    for entry in baseline_results {
        let Some((label_key, label)) = label_of(entry) else {
            continue;
        };
        let matched = current_results
            .iter()
            .find(|c| c.get(&label_key).and_then(Json::as_str) == Some(label.as_str()));
        let Some(matched) = matched else {
            report.failures.push(format!("result '{label}' missing from current record"));
            report.lines.push(format!("  {label:<24} MISSING from current record"));
            continue;
        };
        let Json::Object(pairs) = entry else {
            continue;
        };
        for (field, value) in pairs {
            if !field.ends_with("_per_sec") {
                continue;
            }
            let Some(base) = value.as_f64() else {
                continue;
            };
            let Some(cur) = matched.get(field).and_then(Json::as_f64) else {
                report.failures.push(format!("'{label}' lost field {field}"));
                continue;
            };
            report.compared += 1;
            let drop_pct = if base > 0.0 { (base - cur) / base * 100.0 } else { 0.0 };
            let verdict = if drop_pct > threshold_pct { "REGRESSED" } else { "ok" };
            report.lines.push(format!(
                "  {label:<24} {field:<20} {base:>10.2} -> {cur:>10.2}  ({drop_pct:+6.1}% drop) {verdict}"
            ));
            if drop_pct > threshold_pct {
                report.failures.push(format!(
                    "'{label}' {field} dropped {drop_pct:.1}% ({base:.2} -> {cur:.2})"
                ));
            }
        }
    }
    cross_path_rule(baseline_results, current_results, threshold_pct, &mut report);
    report
}

/// The `mbranches_per_sec` figure of the result labelled `path: <label>`.
fn path_throughput(results: &[Json], label: &str) -> Option<f64> {
    results
        .iter()
        .find(|entry| entry.get("path").and_then(Json::as_str) == Some(label))
        .and_then(|entry| entry.get("mbranches_per_sec"))
        .and_then(Json::as_f64)
}

/// Cross-path rule (see the module docs): the current `batched` path must
/// not trail the committed `per_branch` reference beyond the threshold.
fn cross_path_rule(
    baseline_results: &[Json],
    current_results: &[Json],
    threshold_pct: f64,
    report: &mut Report,
) {
    let (Some(reference), Some(batched)) = (
        path_throughput(baseline_results, "per_branch"),
        path_throughput(current_results, "batched"),
    ) else {
        return;
    };
    report.compared += 1;
    let trail_pct = if reference > 0.0 { (reference - batched) / reference * 100.0 } else { 0.0 };
    let verdict = if trail_pct > threshold_pct { "REGRESSED" } else { "ok" };
    report.lines.push(format!(
        "  batched vs per_branch    mbranches_per_sec    {reference:>10.2} -> {batched:>10.2}  \
         ({trail_pct:+6.1}% drop) {verdict}"
    ));
    if trail_pct > threshold_pct {
        report.failures.push(format!(
            "batched path trails the committed per-branch reference by {trail_pct:.1}% \
             ({batched:.2} vs {reference:.2} Mbranches/s)"
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(entries: &[(&str, f64)]) -> Json {
        Json::Object(vec![(
            "results".to_string(),
            Json::Array(
                entries
                    .iter()
                    .map(|(label, value)| {
                        Json::Object(vec![
                            ("scheduler".to_string(), Json::Str(label.to_string())),
                            ("mcycles_per_sec".to_string(), Json::Num(*value)),
                            ("ms_per_run".to_string(), Json::Num(1.0)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn within_threshold_passes() {
        let baseline = record(&[("event_driven", 15.0), ("polling", 5.0)]);
        let current = record(&[("event_driven", 14.0), ("polling", 5.2)]);
        let report = compare(&baseline, &current, 10.0);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn drop_beyond_threshold_fails() {
        // An injected >10% regression must fail the gate — the CI
        // acceptance criterion, demonstrated perpetually here.
        let baseline = record(&[("event_driven", 15.0)]);
        let current = record(&[("event_driven", 13.0)]); // −13.3%
        let report = compare(&baseline, &current, 10.0);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("dropped 13.3%"), "{}", report.failures[0]);
    }

    #[test]
    fn threshold_is_tunable() {
        let baseline = record(&[("event_driven", 15.0)]);
        let current = record(&[("event_driven", 13.0)]);
        assert!(compare(&baseline, &current, 20.0).failures.is_empty());
        assert_eq!(compare(&baseline, &current, 5.0).failures.len(), 1);
    }

    #[test]
    fn missing_result_fails() {
        let baseline = record(&[("event_driven", 15.0), ("polling", 5.0)]);
        let current = record(&[("event_driven", 15.0)]);
        let report = compare(&baseline, &current, 10.0);
        assert_eq!(report.failures.len(), 1);
        assert!(report.failures[0].contains("polling"));
    }

    #[test]
    fn a_written_bench_record_is_read_by_the_gate() {
        // The gate reads what `BenchRecord::to_json` writes: the
        // `results` array, labelled entries and their `*_per_sec` fields.
        let record = rsep_bench::record::BenchRecord {
            bench: "cycle_loop",
            params: vec![("commits", Json::Num(5.0))],
            results: vec![Json::Object(vec![
                ("scheduler".to_string(), Json::Str("event_driven".to_string())),
                ("mcycles_per_sec".to_string(), Json::Num(15.0)),
            ])],
            attribution: Json::Null,
        }
        .to_json();
        let report = compare(&record, &record, 10.0);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn improvements_and_extra_results_pass() {
        let baseline = record(&[("event_driven", 15.0)]);
        let current = record(&[("event_driven", 30.0), ("polling", 1.0)]);
        assert!(compare(&baseline, &current, 10.0).failures.is_empty());
    }

    fn stack_record(entries: &[(&str, f64)]) -> Json {
        Json::Object(vec![(
            "results".to_string(),
            Json::Array(
                entries
                    .iter()
                    .map(|(label, value)| {
                        Json::Object(vec![
                            ("path".to_string(), Json::Str(label.to_string())),
                            ("mbranches_per_sec".to_string(), Json::Num(*value)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    #[test]
    fn batched_path_trailing_the_committed_per_branch_reference_fails() {
        // The batched path improved over its own baseline yet still trails
        // the committed per-branch figure — exactly the regression the
        // per-label comparisons cannot see.
        let baseline = stack_record(&[("batched", 4.0), ("per_branch", 9.16)]);
        let current = stack_record(&[("batched", 6.0), ("per_branch", 9.2)]);
        let report = compare(&baseline, &current, 10.0);
        assert_eq!(report.failures.len(), 1, "{:?}", report.failures);
        assert!(
            report.failures[0].contains("trails the committed per-branch reference"),
            "{}",
            report.failures[0]
        );
    }

    #[test]
    fn batched_path_matching_the_per_branch_reference_passes() {
        let baseline = stack_record(&[("batched", 9.0), ("per_branch", 9.16)]);
        let current = stack_record(&[("batched", 9.5), ("per_branch", 9.2)]);
        let report = compare(&baseline, &current, 10.0);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        // Two per-label comparisons plus the cross-path rule.
        assert_eq!(report.compared, 3);
    }

    #[test]
    fn cross_path_rule_disappears_with_the_per_branch_path() {
        // Once the sequential-probe path is deleted the rule must not
        // fire (and must not fail on the missing label either — the
        // per-label MISSING check still covers baseline-only labels).
        let baseline = stack_record(&[("batched", 9.0)]);
        let current = stack_record(&[("batched", 9.5)]);
        let report = compare(&baseline, &current, 10.0);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn v1_schema_baseline_is_accepted() {
        // A committed v1 record: no schema_version, same results shape.
        let v1 = Json::parse(
            r#"{"bench": "cycle_loop", "results": [
                {"scheduler": "event_driven", "ms_per_run": 13.9, "mcycles_per_sec": 15.31}
            ]}"#,
        )
        .unwrap();
        let current = record(&[("event_driven", 15.0)]);
        let report = compare(&v1, &current, 10.0);
        assert!(report.failures.is_empty(), "{:?}", report.failures);
        assert_eq!(report.compared, 1);
    }
}
