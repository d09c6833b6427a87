//! Machine-readable bench records (`BENCH_*.json`, schema v2).
//!
//! Every throughput bench in `benches/` writes its numbers through
//! [`BenchRecord`], which wraps them in a self-documenting envelope:
//!
//! * `schema_version` — bumped whenever the envelope shape changes;
//! * `host` — CPU model, core count, rustc version and a UTC timestamp, so
//!   cross-machine comparisons are self-documenting (the "PR 5 quieter
//!   machine" ambiguity cannot recur);
//! * `max_rss_kb` — peak resident set size from `/proc/self/status`
//!   (`VmHWM`), `null` where procfs is unavailable;
//! * bench-specific parameters and a `results` array (one labelled object
//!   per measured variant, throughput fields named `*_per_sec`);
//! * `attribution` — the per-stage cycle attribution of an instrumented
//!   run when built with the `obs` feature, `null` otherwise.
//!
//! The `results` entries are what `bench_gate` (the CI regression gate)
//! compares against the committed copy of the record.

use rsep_stats::json::Json;
use std::hint::black_box;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// Version of the record envelope written by [`BenchRecord::to_json`].
// lint: exempt(dead-pub-api, schema contract for external consumers of bench JSON records)
pub const SCHEMA_VERSION: u64 = 2;

/// One bench's machine-readable throughput record.
#[derive(Debug)]
pub struct BenchRecord {
    /// Bench name (`cycle_loop`, `predictor_stack`, `trace_gen`).
    pub bench: &'static str,
    /// Bench-specific parameters (profile, commit target, ...), emitted in
    /// order after the envelope fields.
    pub params: Vec<(&'static str, Json)>,
    /// One labelled object per measured variant; throughput fields must be
    /// named `*_per_sec` for the regression gate to compare them.
    pub results: Vec<Json>,
    /// Per-stage cycle attribution of an instrumented run (`Json::Null`
    /// when the workspace is built without the `obs` feature).
    pub attribution: Json,
}

impl BenchRecord {
    /// Builds the full schema-v2 envelope.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("schema_version".to_string(), Json::Num(SCHEMA_VERSION as f64)),
            ("bench".to_string(), Json::Str(self.bench.to_string())),
            ("host".to_string(), host_metadata()),
            (
                "max_rss_kb".to_string(),
                max_rss_kb().map(|kb| Json::Num(kb as f64)).unwrap_or(Json::Null),
            ),
        ];
        for (key, value) in &self.params {
            pairs.push((key.to_string(), value.clone()));
        }
        pairs.push(("results".to_string(), Json::Array(self.results.clone())));
        pairs.push(("attribution".to_string(), self.attribution.clone()));
        Json::Object(pairs)
    }

    /// Writes the record to `env_var`'s path if set, else `default_path`,
    /// reporting the outcome on stdout/stderr like the v1 writers did.
    pub fn write(&self, env_var: &str, default_path: &str) {
        let path = std::env::var(env_var).unwrap_or_else(|_| default_path.to_string());
        let mut body = self.to_json().to_string_pretty();
        body.push('\n');
        match std::fs::write(&path, body) {
            Ok(()) => println!("{}/throughput written to {path}", self.bench),
            Err(error) => eprintln!("{}/throughput: cannot write {path}: {error}", self.bench),
        }
    }
}

/// Runs `run` once and returns its wall-clock seconds with its result,
/// which passes through [`black_box`] so the work cannot be optimised
/// away. This is the benches' one clock read.
pub fn timed<T>(run: impl FnOnce() -> T) -> (f64, T) {
    #[expect(
        clippy::disallowed_methods,
        reason = "bench measures wall-clock throughput; timings never enter simulation results"
    )]
    let start = Instant::now();
    let out = black_box(run());
    (start.elapsed().as_secs_f64(), out)
}

/// Host metadata: CPU model, core count, rustc version, UTC timestamp.
// lint: exempt(dead-pub-api, building block for external tooling that assembles its own records)
pub fn host_metadata() -> Json {
    Json::Object(vec![
        ("cpu_model".to_string(), cpu_model().map(Json::Str).unwrap_or(Json::Null)),
        ("cores".to_string(), online_cpus().map(Json::Int).unwrap_or(Json::Null)),
        ("rustc".to_string(), Json::Str(env!("RSEP_RUSTC_VERSION").to_string())),
        ("timestamp_utc".to_string(), Json::Str(utc_now())),
    ])
}

/// Number of online CPUs: `processor` entries in `/proc/cpuinfo` (the
/// host's real online count), falling back to `available_parallelism`
/// (which cgroup limits and affinity masks can clamp) where procfs is
/// unavailable. `None` when neither source answers.
fn online_cpus() -> Option<i64> {
    let procfs = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .map(|cpuinfo| cpuinfo.lines().filter(|line| line.starts_with("processor")).count() as i64)
        .filter(|&n| n > 0);
    procfs.or_else(|| std::thread::available_parallelism().ok().map(|n| n.get() as i64))
}

/// The CPU model name from `/proc/cpuinfo`, `None` where unavailable.
fn cpu_model() -> Option<String> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    cpuinfo
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
        .filter(|model| !model.is_empty())
}

/// Peak resident set size in kB from `/proc/self/status` (`VmHWM`).
/// `None` where procfs is unavailable (graceful `null` in the record).
// lint: exempt(dead-pub-api, building block for external tooling that assembles its own records)
pub fn max_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|line| line.starts_with("VmHWM:"))
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
}

/// Current time as `YYYY-MM-DDTHH:MM:SSZ`.
fn utc_now() -> String {
    #[expect(
        clippy::disallowed_methods,
        reason = "bench-record host metadata; records are not simulation results"
    )]
    let now = SystemTime::now();
    format_utc(now.duration_since(UNIX_EPOCH).map(|d| d.as_secs()).unwrap_or_default())
}

/// Formats seconds-since-epoch as an ISO-8601 UTC timestamp (hand-rolled —
/// no chrono in the offline workspace).
fn format_utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let tod = secs % 86_400;
    let (year, month, day) = civil_from_days(days);
    format!(
        "{year:04}-{month:02}-{day:02}T{:02}:{:02}:{:02}Z",
        tod / 3600,
        (tod / 60) % 60,
        tod % 60
    )
}

/// Gregorian date from days since 1970-01-01 (Howard Hinnant's
/// `civil_from_days` algorithm).
fn civil_from_days(z: i64) -> (i64, u32, u32) {
    let z = z + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let year_of_era = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let day = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let month = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    (if month <= 2 { year_of_era + 1 } else { year_of_era }, month, day)
}

/// The per-stage attribution of `attribution` as record JSON. Exposed for
/// the instrumented benches; callers without the `obs` feature pass
/// [`Json::Null`] directly.
pub fn attribution_json(attribution: &rsep_uarch::StageAttribution) -> Json {
    let mut stages: Vec<(String, Vec<(String, Json)>)> = Vec::new();
    for (stage, class, cycles) in attribution.stage_rows() {
        match stages.iter_mut().find(|(name, _)| name == stage) {
            Some((_, classes)) => classes.push((class.to_string(), Json::Num(cycles as f64))),
            None => stages
                .push((stage.to_string(), vec![(class.to_string(), Json::Num(cycles as f64))])),
        }
    }
    let mut pairs = vec![("cycles".to_string(), Json::Num(attribution.cycles as f64))];
    for (stage, classes) in stages {
        pairs.push((stage, Json::Object(classes)));
    }
    pairs.push((
        "commit_slots".to_string(),
        Json::Array(attribution.commit_slots.iter().map(|&n| Json::Num(n as f64)).collect()),
    ));
    pairs.push((
        "work".to_string(),
        Json::Object(
            attribution
                .work_rows()
                .into_iter()
                .map(|(name, count)| (name.to_string(), Json::Num(count as f64)))
                .collect(),
        ),
    ));
    Json::Object(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_formatting_matches_known_dates() {
        assert_eq!(format_utc(0), "1970-01-01T00:00:00Z");
        // 2000-03-01T00:00:00Z (leap-century boundary).
        assert_eq!(format_utc(951_868_800), "2000-03-01T00:00:00Z");
        // 2026-08-07T12:34:56Z.
        assert_eq!(format_utc(1_786_106_096), "2026-08-07T12:34:56Z");
    }

    #[test]
    fn envelope_carries_schema_and_host_fields() {
        let record = BenchRecord {
            bench: "cycle_loop",
            params: vec![("commits", Json::Num(5.0))],
            results: vec![Json::Object(vec![
                ("scheduler".to_string(), Json::Str("event_driven".to_string())),
                ("mcycles_per_sec".to_string(), Json::Num(15.0)),
            ])],
            attribution: Json::Null,
        };
        let json = record.to_json();
        assert_eq!(json.get("schema_version").and_then(Json::as_f64), Some(2.0));
        assert_eq!(json.get("bench").and_then(Json::as_str), Some("cycle_loop"));
        let host = json.get("host").expect("host metadata");
        assert!(host.get("rustc").and_then(Json::as_str).is_some());
        // The core count is the real online-CPU count, as an integer — the
        // record must say `"cores": 8`, never `8.0`.
        #[cfg(target_os = "linux")]
        assert!(
            host.get("cores").and_then(Json::as_i64).is_some_and(|n| n > 0),
            "cores must be a positive integer"
        );
        let stamp = host.get("timestamp_utc").and_then(Json::as_str).expect("timestamp");
        assert_eq!(stamp.len(), 20, "ISO-8601 Zulu: {stamp}");
        assert_eq!(json.get("commits").and_then(Json::as_f64), Some(5.0));
        assert_eq!(json.get("results").and_then(Json::as_array).map(<[Json]>::len), Some(1));
        // On Linux the RSS must resolve; elsewhere null is acceptable.
        #[cfg(target_os = "linux")]
        assert!(json.get("max_rss_kb").and_then(Json::as_f64).is_some());
        // Round-trips through the parser.
        let parsed = Json::parse(&json.to_string_pretty()).expect("valid JSON");
        assert_eq!(parsed, json);
    }

    #[test]
    fn attribution_json_mirrors_the_stage_rows() {
        let mut a =
            rsep_uarch::StageAttribution { cycles: 3, ..rsep_uarch::StageAttribution::default() };
        a.record_commit(0);
        a.record_commit(2);
        a.record_commit(2);
        let json = attribution_json(&a);
        assert_eq!(json.get("cycles").and_then(Json::as_f64), Some(3.0));
        let slots = json.get("commit_slots").and_then(Json::as_array).expect("histogram");
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[2].as_f64(), Some(2.0));
        assert!(json.get("fetch").is_some());
        assert!(json.get("work").and_then(|w| w.get("insts_issued")).is_some());
    }
}
