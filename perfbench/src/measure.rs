//! Measurement helpers: percentiles, process counters, timer calibration
//! and the metric list the benchmark prints.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Nearest-rank percentile of `samples` (`p` in 0..=100): the smallest
/// sample with at least `p`% of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Harmonic mean of the positive values (0 when there are none).
pub fn harmonic_mean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    positive.len() as f64 / positive.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of a non-empty list (the mean of the middle two when the count
/// is even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// User + system CPU seconds of this process so far, all threads
/// included (Linux `/proc/self/stat`, in clock ticks of 1/100 s).
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("read /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat.rsplit_once(')').map(|(_, rest)| rest).ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn max_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// What one `Instant::now()` … `elapsed()` pair costs: `inside` is the
/// part a timed span reports on top of the work it encloses, `pair` the
/// whole cost added to the enclosing span. Layer self-times subtract both
/// so that they describe the untraced program.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    pub inside_ns: f64,
    pub pair_ns: f64,
}

impl TimerCost {
    /// Measures the timer on this host (the cheapest of a few rounds).
    pub fn calibrate() -> TimerCost {
        const ROUNDS: usize = 5;
        const PAIRS: u32 = 100_000;
        let mut best = TimerCost { inside_ns: f64::MAX, pair_ns: f64::MAX };
        for _ in 0..ROUNDS {
            let mut inside = Duration::ZERO;
            let start = Instant::now();
            for _ in 0..PAIRS {
                let t = Instant::now();
                inside += black_box(t).elapsed();
            }
            let pair = start.elapsed();
            best.inside_ns = best.inside_ns.min(inside.as_nanos() as f64 / f64::from(PAIRS));
            best.pair_ns = best.pair_ns.min(pair.as_nanos() as f64 / f64::from(PAIRS));
        }
        best
    }
}

/// Metrics in print order: `(name, value, unit)`.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    /// Checks that exactly the declared metrics were produced, each once,
    /// with a valid name, its declared unit and a finite value.
    pub fn check_against(&self, declared: &[(String, &'static str)]) -> Vec<String> {
        let mut problems = Vec::new();
        for (name, value, unit) in &self.entries {
            if !valid_name(name) || !valid_unit(unit) {
                problems.push(format!("metric {name} ({unit}) has an invalid name or unit"));
            }
            match declared.iter().find(|(n, _)| n == name) {
                None => problems.push(format!("metric {name} is not declared")),
                Some((_, u)) if u != unit => {
                    problems.push(format!("metric {name} has unit {unit}, declared {u}"))
                }
                Some(_) => {}
            }
            if !value.is_finite() {
                problems.push(format!("metric {name} is not finite: {value}"));
            }
        }
        for (name, _) in declared {
            match self.entries.iter().filter(|(n, _, _)| n == name).count() {
                0 => problems.push(format!("metric {name} is missing")),
                1 => {}
                k => problems.push(format!("metric {name} appears {k} times")),
            }
        }
        problems
    }

    /// The `metrics` object of the result line. Values print with every
    /// digit Rust's shortest round-trip formatting gives.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .entries
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(*value))
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number for an `f64`: Rust's shortest round-trip form, which is
/// valid JSON for finite values ("60", "0.0123"). Non-finite values were
/// rejected by [`Metrics::check_against`]; they print as 0 so the line
/// stays valid JSON.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

/// Whether `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 50.0);
        assert_eq!(percentile(&samples, 90.0), 90.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(samples_beyond(100, 90.0), 10);
        // Order of the input does not matter.
        let reversed: Vec<f64> = samples.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 90.0), 90.0);
    }

    #[test]
    fn percentiles_of_small_samples() {
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), 2.0);
        // 60 samples: rank 54 is p90, six samples lie beyond it.
        assert_eq!(samples_beyond(60, 90.0), 6);
        assert_eq!(samples_beyond(120, 90.0), 12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn harmonic_mean_skips_non_positive_values() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
        assert!((harmonic_mean(&[2.0, 0.0]) - 2.0).abs() < 1e-12);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn names_and_units() {
        assert!(valid_name("engine.at_commit.ms.rsep-ideal"));
        assert!(valid_name("cache.L1D.miss_ratio"));
        assert!(!valid_name("engine.at_commit.ms.rsep+vpred"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("ms") && valid_unit("1/s") && valid_unit("ns/inst"));
        assert!(!valid_unit("") && !valid_unit("per second"));
    }

    #[test]
    fn metrics_check_and_render() {
        let mut m = Metrics::default();
        m.push("a", 1.5, "ms");
        m.push("b", 60.0, "count");
        let declared = vec![("a".to_string(), "ms"), ("b".to_string(), "count")];
        assert!(m.check_against(&declared).is_empty());
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 60, \"unit\": \"count\"}}"
        );
        let mut bad = Metrics::default();
        bad.push("a", f64::NAN, "s");
        let problems = bad.check_against(&declared);
        assert_eq!(problems.len(), 3, "{problems:?}");
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(max_rss_mb().unwrap() > 0.0);
        let cost = TimerCost::calibrate();
        assert!(cost.inside_ns > 0.0 && cost.pair_ns >= cost.inside_ns);
    }
}
