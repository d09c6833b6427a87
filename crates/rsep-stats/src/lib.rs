//! # rsep-stats
//!
//! Statistics and report formatting for the RSEP reproduction: the
//! harmonic-mean IPC aggregation of Section V, speedup computation, and
//! fixed-width table / JSON / CSV / markdown rendering used by the
//! `rsep-campaign` report emitters.
//!
//! JSON support is provided by the built-in [`json`] module (the container
//! cannot fetch `serde`; see `vendor/README.md`), with [`jsonl`] adding the
//! append-only JSON-Lines helpers the campaign result stores stream cells
//! through. All emitters are deterministic: object keys and rows keep
//! insertion order, so a campaign produces byte-identical reports at any
//! thread count.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod json;
pub mod jsonl;

use json::Json;

/// Harmonic mean of a slice (0.0 for an empty slice). Non-positive entries
/// are ignored, matching how IPC means are computed.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    let positive: Vec<f64> = values.iter().copied().filter(|v| *v > 0.0).collect();
    if positive.is_empty() {
        return 0.0;
    }
    positive.len() as f64 / positive.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// Arithmetic mean of a slice (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Speedup of `value` over `baseline`, expressed as a percentage
/// (`5.0` means 5% faster). Returns 0 for a non-positive baseline.
pub fn speedup_percent(value: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (value / baseline - 1.0) * 100.0
    }
}

/// One data point of an experiment: a benchmark × series value.
#[derive(Debug, Clone, PartialEq)]
pub struct DataPoint {
    /// Benchmark name.
    pub benchmark: String,
    /// Series (mechanism / configuration) name.
    pub series: String,
    /// Value (IPC, speedup %, coverage %, ... depending on the experiment).
    pub value: f64,
}

/// A full experiment result: an id (e.g. "figure4"), a unit label, and the
/// data points.
#[derive(Debug, Clone, PartialEq)]
pub struct Experiment {
    /// Experiment identifier (e.g. `figure4`).
    pub id: String,
    /// What the values mean (e.g. `speedup %`).
    pub unit: String,
    /// All collected points.
    pub points: Vec<DataPoint>,
}

impl Experiment {
    /// Creates an empty experiment.
    pub fn new(id: impl Into<String>, unit: impl Into<String>) -> Experiment {
        Experiment { id: id.into(), unit: unit.into(), points: Vec::new() }
    }

    /// Adds a data point.
    pub fn push(&mut self, benchmark: impl Into<String>, series: impl Into<String>, value: f64) {
        self.points.push(DataPoint { benchmark: benchmark.into(), series: series.into(), value });
    }

    /// Distinct series names, in insertion order.
    pub fn series(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.points {
            if !out.contains(&p.series) {
                out.push(p.series.clone());
            }
        }
        out
    }

    /// Distinct benchmark names, in insertion order.
    pub fn benchmarks(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for p in &self.points {
            if !out.contains(&p.benchmark) {
                out.push(p.benchmark.clone());
            }
        }
        out
    }

    /// Value for a benchmark × series pair.
    pub fn value(&self, benchmark: &str, series: &str) -> Option<f64> {
        self.points.iter().find(|p| p.benchmark == benchmark && p.series == series).map(|p| p.value)
    }

    /// All values of one series, in benchmark order.
    pub fn series_values(&self, series: &str) -> Vec<f64> {
        self.benchmarks().iter().filter_map(|b| self.value(b, series)).collect()
    }

    /// Renders the experiment as a fixed-width text table: one row per
    /// benchmark, one column per series.
    pub fn to_table(&self) -> String {
        let series = self.series();
        let benchmarks = self.benchmarks();
        let mut out = String::new();
        out.push_str(&format!("# {} ({})\n", self.id, self.unit));
        out.push_str(&format!("{:<14}", "benchmark"));
        for s in &series {
            out.push_str(&format!("{:>16}", s));
        }
        out.push('\n');
        for b in &benchmarks {
            out.push_str(&format!("{:<14}", b));
            for s in &series {
                match self.value(b, s) {
                    Some(v) => out.push_str(&format!("{:>16.3}", v)),
                    None => out.push_str(&format!("{:>16}", "-")),
                }
            }
            out.push('\n');
        }
        out.push_str(&format!("{:<14}", "mean"));
        for s in &series {
            out.push_str(&format!("{:>16.3}", mean(&self.series_values(s))));
        }
        out.push('\n');
        out
    }

    /// The experiment as a [`Json`] value (`{id, unit, points: [...]}`),
    /// keys and points in insertion order.
    pub fn to_json_value(&self) -> Json {
        let Self { id, unit, points } = self;
        let points = points
            .iter()
            .map(|p| {
                let DataPoint { benchmark, series, value } = p;
                Json::Object(vec![
                    ("benchmark".into(), Json::Str(benchmark.clone())),
                    ("series".into(), Json::Str(series.clone())),
                    ("value".into(), Json::Num(*value)),
                ])
            })
            .collect();
        Json::Object(vec![
            ("id".into(), Json::Str(id.clone())),
            ("unit".into(), Json::Str(unit.clone())),
            ("points".into(), Json::Array(points)),
        ])
    }

    /// Serialises the experiment as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string_pretty()
    }

    /// Parses an experiment back from [`Experiment::to_json`] output.
    pub fn from_json(text: &str) -> Result<Experiment, json::ParseError> {
        let v = Json::parse(text)?;
        let field = |key: &str| {
            v.get(key).and_then(Json::as_str).map(str::to_string).ok_or(json::ParseError {
                offset: 0,
                message: format!("missing string field '{key}'"),
            })
        };
        let mut exp = Experiment::new(field("id")?, field("unit")?);
        let points = v
            .get("points")
            .and_then(Json::as_array)
            .ok_or(json::ParseError { offset: 0, message: "missing 'points' array".into() })?;
        for p in points {
            let text_of = |key: &str| p.get(key).and_then(Json::as_str).map(str::to_string);
            match (text_of("benchmark"), text_of("series"), p.get("value").and_then(Json::as_f64)) {
                (Some(benchmark), Some(series), Some(value)) => exp.push(benchmark, series, value),
                _ => {
                    return Err(json::ParseError {
                        offset: 0,
                        message: "malformed data point".into(),
                    })
                }
            }
        }
        Ok(exp)
    }

    /// Renders the experiment as CSV: `benchmark,series,value` rows with a
    /// header, values printed with full round-trip precision.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("benchmark,series,value\n");
        for p in &self.points {
            out.push_str(&format!(
                "{},{},{}\n",
                csv_field(&p.benchmark),
                csv_field(&p.series),
                p.value
            ));
        }
        out
    }

    /// Renders the experiment as a GitHub-flavoured markdown table (one row
    /// per benchmark, one column per series, plus a mean row).
    pub fn to_markdown(&self) -> String {
        let series = self.series();
        let benchmarks = self.benchmarks();
        let mut out = format!("### {} ({})\n\n", self.id, self.unit);
        out.push_str("| benchmark |");
        for s in &series {
            out.push_str(&format!(" {s} |"));
        }
        out.push_str("\n|---|");
        for _ in &series {
            out.push_str("---|");
        }
        out.push('\n');
        for b in &benchmarks {
            out.push_str(&format!("| {b} |"));
            for s in &series {
                match self.value(b, s) {
                    Some(v) => out.push_str(&format!(" {v:.3} |")),
                    None => out.push_str(" - |"),
                }
            }
            out.push('\n');
        }
        out.push_str("| **mean** |");
        for s in &series {
            out.push_str(&format!(" {:.3} |", mean(&self.series_values(s))));
        }
        out.push('\n');
        out
    }
}

/// Quotes a CSV field if it contains a delimiter, quote or newline.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_mean_matches_hand_computation() {
        assert_eq!(harmonic_mean(&[]), 0.0);
        assert!((harmonic_mean(&[1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
        assert!((harmonic_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        // Non-positive entries are ignored.
        assert!((harmonic_mean(&[2.0, 0.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_mean() {
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn speedup_percent_computation() {
        assert!((speedup_percent(1.1, 1.0) - 10.0).abs() < 1e-9);
        assert!((speedup_percent(0.9, 1.0) + 10.0).abs() < 1e-9);
        assert_eq!(speedup_percent(1.0, 0.0), 0.0);
    }

    #[test]
    fn experiment_collects_and_queries_points() {
        let mut exp = Experiment::new("figure4", "speedup %");
        exp.push("mcf", "rsep", 8.0);
        exp.push("mcf", "vpred", 3.0);
        exp.push("gcc", "rsep", 1.0);
        assert_eq!(exp.series(), vec!["rsep".to_string(), "vpred".to_string()]);
        assert_eq!(exp.benchmarks(), vec!["mcf".to_string(), "gcc".to_string()]);
        assert_eq!(exp.value("mcf", "rsep"), Some(8.0));
        assert_eq!(exp.value("gcc", "vpred"), None);
        assert_eq!(exp.series_values("rsep"), vec![8.0, 1.0]);
    }

    #[test]
    fn table_rendering_contains_all_cells() {
        let mut exp = Experiment::new("figure7", "speedup %");
        exp.push("mcf", "ideal", 9.5);
        exp.push("mcf", "realistic", 7.5);
        let table = exp.to_table();
        assert!(table.contains("figure7"));
        assert!(table.contains("mcf"));
        assert!(table.contains("9.500"));
        assert!(table.contains("7.500"));
        assert!(table.contains("mean"));
    }

    #[test]
    fn json_round_trip() {
        let mut exp = Experiment::new("figure1", "% committed");
        exp.push("zeusmp", "zero-other", 20.0);
        exp.push("gcc", "zero (load)", 1.625);
        let json = exp.to_json();
        let back = Experiment::from_json(&json).unwrap();
        assert_eq!(back, exp);
    }

    #[test]
    fn csv_has_header_and_one_row_per_point() {
        let mut exp = Experiment::new("figure4", "speedup %");
        exp.push("mcf", "rsep", 8.5);
        exp.push("gcc", "a,b", 1.0);
        let csv = exp.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "benchmark,series,value");
        assert_eq!(lines[1], "mcf,rsep,8.5");
        assert_eq!(lines[2], "gcc,\"a,b\",1");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn markdown_renders_all_cells() {
        let mut exp = Experiment::new("figure7", "speedup %");
        exp.push("mcf", "ideal", 9.5);
        exp.push("mcf", "realistic", 7.5);
        let md = exp.to_markdown();
        assert!(md.contains("### figure7"));
        assert!(md.contains("| mcf | 9.500 | 7.500 |"));
        assert!(md.contains("| **mean** |"));
    }
}
