//! Report emission: one experiment, several formats.
//!
//! All formats are deterministic renderings of an
//! [`Experiment`] (insertion-ordered rows and
//! series), so campaign output is byte-identical at any worker count.

use rsep_stats::Experiment;

/// Output format for a campaign report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// Fixed-width text table (the default human-facing output).
    Table,
    /// Pretty-printed JSON (`{id, unit, points: [...]}`).
    Json,
    /// `benchmark,series,value` CSV.
    Csv,
    /// GitHub-flavoured markdown table.
    Markdown,
}

impl ReportFormat {
    /// Renders the experiment in this format.
    pub fn render(&self, exp: &Experiment) -> String {
        match self {
            ReportFormat::Table => exp.to_table(),
            ReportFormat::Json => exp.to_json(),
            ReportFormat::Csv => exp.to_csv(),
            ReportFormat::Markdown => exp.to_markdown(),
        }
    }

    /// Conventional file extension for this format.
    pub fn extension(&self) -> &'static str {
        match self {
            ReportFormat::Table => "txt",
            ReportFormat::Json => "json",
            ReportFormat::Csv => "csv",
            ReportFormat::Markdown => "md",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Experiment {
        let mut exp = Experiment::new("fig", "speedup %");
        exp.push("mcf", "rsep", 8.25);
        exp
    }

    #[test]
    fn each_format_renders_the_data() {
        let exp = sample();
        assert!(ReportFormat::Table.render(&exp).contains("8.250"));
        assert!(ReportFormat::Json.render(&exp).contains("\"value\": 8.25"));
        assert!(ReportFormat::Csv.render(&exp).contains("mcf,rsep,8.25"));
        assert!(ReportFormat::Markdown.render(&exp).contains("| mcf | 8.250 |"));
    }

    #[test]
    fn extensions_are_conventional() {
        assert_eq!(ReportFormat::Json.extension(), "json");
        assert_eq!(ReportFormat::Table.extension(), "txt");
    }
}
