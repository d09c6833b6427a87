//! `rsep` — the experiment-campaign CLI of the RSEP reproduction.
//!
//! ```text
//! rsep <command> [flags]
//!
//! commands:
//!   run     full evaluation: table1 + fig1 + fig4 + fig6 + fig7
//!   fig1    committed-value redundancy (Figure 1)
//!   fig4    mechanism speedups over baseline (Figure 4)
//!   fig5    per-mechanism coverage (Figure 5)
//!   fig6    validation / sampling variants (Figure 6)
//!   fig7    ideal vs realistic RSEP (Figure 7)
//!   table1  simulated core configuration (Table I)
//!   sweep   sensitivity sweeps (history depth, ISRB size, hash width)
//!   merge   join shard .jsonl files into one report
//!   trace   record / analyze / replay binary trace files:
//!             trace record <fig4|fig5|fig6|fig7> --dir D   freeze every
//!                     profile of the campaign into D/<profile>.rseptrc
//!             trace analyze <file> [--json]   behaviour distributions
//!                     (op mix, branch rates, value locality, working sets)
//!             trace replay <fig4|fig5|fig6|fig7> --dir D   run the grid
//!                     from the recorded corpus; the report is
//!                     byte-identical to the live campaign's
//!
//! flags:
//!   --jobs N         worker threads (default: RSEP_JOBS or all cores)
//!   --smoke          CI-smoke scale: 6 profiles, 1 × (2K + 8K) instructions
//!   --json | --csv | --md   report format (default: fixed-width table)
//!   --benchmarks L   comma-separated profile subset
//!   --seed N         campaign seed        (default: RSEP_SEED or 42)
//!   --checkpoints N  checkpoints/profile  (default: RSEP_CHECKPOINTS or 1)
//!   --warmup N       warm-up instructions (default: RSEP_WARMUP or 100000)
//!   --measure N      measured instructions (default: RSEP_MEASURE or 60000)
//!   --store jsonl:P  stream cells to an append-only JSONL file; re-running
//!                    with an existing file resumes, simulating only
//!                    missing cells (fig4/fig5/fig6/fig7)
//!   --shard I/N      run only cells I mod N of the grid (requires --store;
//!                    join the shard files with `rsep merge`)
//!   --cache-dir D    memoise cells on disk keyed by their content hash
//!   --cache          same, in the conventional target/rsep-cache directory
//!   --storage        with `run`: print the per-mechanism storage-budget
//!                    report (Table II: RSEP ≈10.1 KB vs D-VTAGE ≈256 KB)
//!                    and exit without simulating
//!   --attribution    with `run`: simulate the baseline core instrumented
//!                    (needs a build with the `obs` feature) and print the
//!                    per-stage cycle-attribution table instead of the
//!                    evaluation reports; honours --benchmarks / --seed /
//!                    --checkpoints / --warmup / --measure / --smoke
//!   --progress       heartbeat on stderr: `[done/total] cells  N cells/s
//!                    ETA Ts` (off by default; stdout is byte-identical
//!                    with or without it)
//!   --dir D          corpus directory for `trace record` / `trace replay`
//!   --raw-addresses  with `trace record`: store data addresses verbatim
//!                    instead of applying the keyed block translation
//!   --quiet          suppress progress and timing on stderr
//!   --version        print the version and exit
//! ```
//!
//! Reports go to stdout; progress and timing go to stderr, so piping stdout
//! yields byte-identical output at any `--jobs` value — and a sharded run
//! merged with `rsep merge` is byte-identical to an unsharded run.
//!
//! Exit codes: 0 success, 1 runtime failure (store I/O, corrupt or
//! mismatched files), 2 usage error, 3 when a report was emitted in full
//! but some of its cells failed (each is named by a `warning:` line on
//! stderr).

#![forbid(unsafe_code)]

use rsep_campaign::{
    merge_stored, presets, CachedStore, Campaign, CampaignResult, CampaignSpec, Executor,
    JsonlStore, ReportFormat, Shard,
};
use rsep_core::MechanismConfig;
use rsep_predictors::{BtbConfig, TageConfig};
use rsep_stats::json::Json;
use rsep_stats::Experiment;
use rsep_trace::CheckpointSpec;
use rsep_tracefile::AnonScheme;
use rsep_uarch::CoreConfig;
use std::cell::Cell;
use std::process::ExitCode;

/// Exit code of a run whose report includes failed cells.
const CELLS_FAILED: u8 = 3;

/// A CLI failure: what to print and which exit code to use (2 for usage
/// errors, 1 for runtime failures).
struct Failure {
    message: String,
    code: u8,
}

fn usage_error(message: impl Into<String>) -> Failure {
    Failure { message: message.into(), code: 2 }
}

fn runtime_error(message: impl Into<String>) -> Failure {
    Failure { message: message.into(), code: 1 }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum StoreChoice {
    Memory,
    Jsonl(String),
    Cached(String),
}

#[derive(Debug)]
struct Cli {
    command: String,
    /// Positional arguments after the command (shard files for `merge`,
    /// action and target for `trace`).
    files: Vec<String>,
    jobs: Option<usize>,
    smoke: bool,
    format: ReportFormat,
    quiet: bool,
    benchmarks: Option<String>,
    seed: Option<u64>,
    checkpoints: Option<usize>,
    warmup: Option<u64>,
    measure: Option<u64>,
    store: StoreChoice,
    shard: Option<Shard>,
    storage: bool,
    attribution: bool,
    progress: bool,
    dir: Option<String>,
    raw_addresses: bool,
    /// Failed cells in the reports emitted so far.
    failed_cells: Cell<usize>,
}

fn usage() -> &'static str {
    "usage: rsep <run|fig1|fig4|fig5|fig6|fig7|table1|sweep|merge|trace> \
     [--jobs N] [--smoke] [--json|--csv|--md] [--benchmarks list] \
     [--seed N] [--checkpoints N] [--warmup N] [--measure N] \
     [--store jsonl:path] [--shard i/n] [--cache-dir dir | --cache] [--storage] \
     [--attribution] [--progress] [--quiet] [--version]\n\
     trace subcommands: rsep trace record <campaign> --dir D | \
     rsep trace analyze <file> [--json] | rsep trace replay <campaign> --dir D"
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: String::new(),
        files: Vec::new(),
        jobs: None,
        smoke: false,
        format: ReportFormat::Table,
        quiet: false,
        benchmarks: None,
        seed: None,
        checkpoints: None,
        warmup: None,
        measure: None,
        store: StoreChoice::Memory,
        shard: None,
        storage: false,
        attribution: false,
        progress: false,
        dir: None,
        raw_addresses: false,
        failed_cells: Cell::new(0),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_of =
            |flag: &str| it.next().map(|v| v.to_string()).ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--jobs" => {
                cli.jobs = Some(
                    value_of("--jobs")?.parse().map_err(|_| "--jobs: not a number".to_string())?,
                )
            }
            "--smoke" => cli.smoke = true,
            "--json" => cli.format = ReportFormat::Json,
            "--csv" => cli.format = ReportFormat::Csv,
            "--md" | "--markdown" => cli.format = ReportFormat::Markdown,
            "--quiet" | "-q" => cli.quiet = true,
            "--benchmarks" => cli.benchmarks = Some(value_of("--benchmarks")?),
            "--seed" => {
                cli.seed = Some(
                    value_of("--seed")?.parse().map_err(|_| "--seed: not a number".to_string())?,
                )
            }
            "--checkpoints" => {
                cli.checkpoints = Some(
                    value_of("--checkpoints")?
                        .parse()
                        .map_err(|_| "--checkpoints: not a number".to_string())?,
                )
            }
            "--warmup" => {
                cli.warmup = Some(
                    value_of("--warmup")?
                        .parse()
                        .map_err(|_| "--warmup: not a number".to_string())?,
                )
            }
            "--measure" => {
                cli.measure = Some(
                    value_of("--measure")?
                        .parse()
                        .map_err(|_| "--measure: not a number".to_string())?,
                )
            }
            "--store" => {
                let value = value_of("--store")?;
                let path = value
                    .strip_prefix("jsonl:")
                    .ok_or(format!("--store '{value}' is not supported (expected jsonl:<path>)"))?;
                if path.is_empty() {
                    return Err("--store jsonl: needs a file path".into());
                }
                if !matches!(cli.store, StoreChoice::Memory) {
                    return Err(
                        "only one store may be selected (--store, --cache-dir or --cache)".into()
                    );
                }
                cli.store = StoreChoice::Jsonl(path.to_string());
            }
            "--cache-dir" | "--cache" => {
                let dir = if arg == "--cache-dir" {
                    value_of("--cache-dir")?
                } else {
                    CachedStore::default_dir().display().to_string()
                };
                if !matches!(cli.store, StoreChoice::Memory) {
                    return Err(
                        "only one store may be selected (--store, --cache-dir or --cache)".into()
                    );
                }
                cli.store = StoreChoice::Cached(dir);
            }
            "--shard" => cli.shard = Some(Shard::parse(&value_of("--shard")?)?),
            "--dir" => cli.dir = Some(value_of("--dir")?),
            "--raw-addresses" => cli.raw_addresses = true,
            "--storage" => cli.storage = true,
            "--attribution" => cli.attribution = true,
            "--progress" => cli.progress = true,
            "--help" | "-h" => return Err(usage().to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            command if cli.command.is_empty() => cli.command = command.to_string(),
            file if cli.command == "merge" || cli.command == "trace" => {
                cli.files.push(file.to_string())
            }
            extra => return Err(format!("unexpected argument '{extra}'")),
        }
    }
    if cli.command.is_empty() {
        return Err(usage().to_string());
    }
    Ok(cli)
}

impl Cli {
    /// Applies scale/subset flags on top of a preset spec.
    fn configure(&self, mut spec: CampaignSpec) -> Result<CampaignSpec, Failure> {
        if self.smoke {
            spec = spec.smoke();
        }
        if let Some(list) = &self.benchmarks {
            // An explicit selection picks from the whole suite, not from
            // whatever subset the env filter or --smoke left behind.
            spec = spec
                .with_profiles(rsep_trace::BenchmarkProfile::spec2006())
                .with_benchmark_filter(list);
            if spec.profiles.is_empty() {
                return Err(usage_error(format!(
                    "--benchmarks '{list}' matches no benchmark profile"
                )));
            }
        }
        if let Some(seed) = self.seed {
            spec = spec.with_seed(seed);
        }
        if self.checkpoints.is_some() || self.warmup.is_some() || self.measure.is_some() {
            let current = spec.checkpoints;
            spec = spec.with_checkpoints(CheckpointSpec::scaled(
                self.checkpoints.unwrap_or(current.count),
                self.warmup.unwrap_or(current.warmup),
                self.measure.unwrap_or(current.measure),
            ));
        }
        Ok(spec)
    }

    fn campaign(&self) -> Campaign {
        let jobs = self.jobs.unwrap_or_else(rsep_campaign::jobs_from_env);
        Campaign::new(Executor::new(jobs).with_progress(!self.quiet).with_heartbeat(self.progress))
    }

    fn emit(&self, exp: &Experiment) {
        emit_text(&self.format.render(exp));
        if self.format == ReportFormat::Json {
            // Reports are documents; terminate them.
            emit_text("\n");
        }
    }

    /// Emits a grid campaign's report(s), dispatching on the campaign id
    /// (shared by live runs and `merge`, so both render identically).
    fn emit_grid(&self, result: &CampaignResult) {
        // Failed (wedged) cells are part of the record — surface them even
        // with --quiet; their IPC contribution is zero.
        for (benchmark, mechanism, error) in result.failures() {
            eprintln!("warning: {}/{benchmark}/{mechanism}: {error}", result.id);
            self.failed_cells.set(self.failed_cells.get() + 1);
        }
        match result.id.as_str() {
            "figure5" => self.emit(&presets::figure5_experiment(result)),
            "figure7" => {
                self.emit(&result.speedups());
                self.emit(&presets::figure7_summary(result));
            }
            _ => self.emit(&result.speedups()),
        }
    }

    fn note(&self, message: String) {
        if !self.quiet {
            eprintln!("{message}");
        }
    }

    /// Runs one grid campaign through the selected store and emits its
    /// report (unless the run is a partial shard, whose report comes later
    /// from `rsep merge`).
    fn run_grid(&self, spec: CampaignSpec) -> Result<(), Failure> {
        let campaign = self.campaign();
        match &self.store {
            StoreChoice::Memory => {
                let result = campaign.run(&spec);
                self.emit_grid(&result);
                self.note(result.timing_summary());
            }
            StoreChoice::Jsonl(path) => {
                let mut store = JsonlStore::open(path).map_err(|e| runtime_error(e.to_string()))?;
                let resumed = store.resumed_cells();
                let run = campaign
                    .run_stored(&spec, &mut store, self.shard)
                    .map_err(|e| runtime_error(e.to_string()))?;
                if resumed > 0 {
                    self.note(format!(
                        "{}: resumed {path}: {} cells already stored",
                        spec.id, run.hits
                    ));
                }
                match (&run.result, self.shard) {
                    (Some(result), _) => {
                        self.emit_grid(result);
                        self.note(result.timing_summary());
                    }
                    (None, Some(shard)) => self.note(format!(
                        "{}: shard {}/{} complete: {} cells in {path}; \
                         run the other shards, then `rsep merge`",
                        spec.id,
                        shard.index,
                        shard.count,
                        run.hits + run.executed
                    )),
                    (None, None) => unreachable!("unsharded runs resolve every cell"),
                }
                self.note(run.store_summary(&spec.id));
            }
            StoreChoice::Cached(dir) => {
                let mut store = CachedStore::open(dir).map_err(|e| runtime_error(e.to_string()))?;
                let run = campaign
                    .run_stored(&spec, &mut store, self.shard)
                    .map_err(|e| runtime_error(e.to_string()))?;
                let result = run.result.as_ref().expect("cached runs resolve every cell");
                self.emit_grid(result);
                self.note(result.timing_summary());
                self.note(run.store_summary(&spec.id));
            }
        }
        Ok(())
    }
}

/// Writes report text to stdout, exiting quietly when the reader closed the
/// pipe (`rsep ... | head` must not panic).
fn emit_text(text: &str) {
    use std::io::Write;
    if std::io::stdout().write_all(text.as_bytes()).is_err() {
        std::process::exit(0);
    }
}

/// Renders the per-mechanism storage-budget report (the paper's Table II
/// comparison). The figures are pure functions of the configurations —
/// exactly what each family's `Predictor::storage_bits` delegates to —
/// so nothing allocates a table just to measure it.
fn storage_text() -> String {
    let kb = |bits: u64| bits as f64 / 8.0 / 1024.0;
    let mut out = String::from(
        "Per-mechanism storage budgets (Predictor::storage_bits)\n\n\
         front end (all configurations)\n",
    );
    let tage_bits = TageConfig::table1().storage_bits();
    let btb_bits = BtbConfig::table1().storage_bits();
    let ras_bits = 32 * 64; // Table I: 32 entries of full return addresses
    out.push_str(&format!("  {:<22}{:>9.1} KB\n", "tage", kb(tage_bits)));
    out.push_str(&format!("  {:<22}{:>9.1} KB\n", "btb", kb(btb_bits)));
    out.push_str(&format!("  {:<22}{:>9.1} KB\n", "ras", kb(ras_bits)));
    out.push_str(&format!(
        "  {:<22}{:>9.1} KB\n",
        "front-end total",
        kb(tage_bits + btb_bits + ras_bits)
    ));
    let mut mechanisms = MechanismConfig::figure4_suite();
    mechanisms.push(MechanismConfig::rsep_realistic());
    for mechanism in &mechanisms {
        let rows = mechanism.storage_breakdown();
        if rows.is_empty() {
            continue;
        }
        out.push_str(&format!("\n{}\n", mechanism.label));
        for (component, bits) in &rows {
            out.push_str(&format!("  {component:<22}{:>9.1} KB\n", kb(*bits)));
        }
        if rows.len() > 1 {
            out.push_str(&format!("  {:<22}{:>9.1} KB\n", "total", mechanism.storage_kb()));
        }
    }
    out
}

fn table1_text() -> String {
    let config = CoreConfig::table1();
    let mut out = String::from("TABLE I: Simulator configuration overview\n");
    for (section, value) in config.table1_rows() {
        out.push_str(&format!("{section:<18}{value}\n"));
    }
    out
}

/// Rejects flag combinations that would silently do the wrong thing.
fn validate(cli: &Cli) -> Result<(), Failure> {
    let grid_command = matches!(cli.command.as_str(), "fig4" | "fig5" | "fig6" | "fig7");
    if matches!(cli.store, StoreChoice::Jsonl(_)) && !grid_command {
        return Err(usage_error(format!(
            "--store is only supported for single-grid commands (fig4/fig5/fig6/fig7), \
             not '{}'",
            cli.command
        )));
    }
    if cli.shard.is_some() && !matches!(cli.store, StoreChoice::Jsonl(_)) {
        return Err(usage_error(
            "--shard requires --store jsonl:<path> (each shard writes its own file)",
        ));
    }
    if matches!(cli.store, StoreChoice::Cached(_))
        && !grid_command
        && !matches!(cli.command.as_str(), "run" | "sweep")
    {
        return Err(usage_error(format!(
            "--cache-dir is not supported for '{}' (nothing to memoise)",
            cli.command
        )));
    }
    if cli.command == "merge" && cli.files.is_empty() {
        return Err(usage_error("merge needs at least one shard .jsonl file"));
    }
    if cli.command == "trace" {
        match cli.files.first().map(String::as_str) {
            Some("record") | Some("replay") => {
                if cli.files.len() != 2 {
                    return Err(usage_error(
                        "trace record/replay needs exactly one campaign (fig4|fig5|fig6|fig7)",
                    ));
                }
                if cli.dir.is_none() {
                    return Err(usage_error("trace record/replay needs --dir <directory>"));
                }
            }
            Some("analyze") => {
                if cli.files.len() != 2 {
                    return Err(usage_error("trace analyze needs exactly one trace file"));
                }
            }
            _ => return Err(usage_error("trace needs a subcommand: record, analyze or replay")),
        }
        if !matches!(cli.store, StoreChoice::Memory) || cli.shard.is_some() {
            return Err(usage_error("--store/--shard/--cache are not supported with 'trace'"));
        }
    } else if cli.dir.is_some() || cli.raw_addresses {
        return Err(usage_error("--dir/--raw-addresses are only supported with 'trace'"));
    }
    if cli.storage && cli.command != "run" {
        return Err(usage_error("--storage is only supported with 'run'"));
    }
    if cli.attribution && cli.command != "run" {
        return Err(usage_error("--attribution is only supported with 'run'"));
    }
    Ok(())
}

/// Simulates the baseline core over the configured checkpoint grid with the
/// per-stage attribution counters live, and renders the merged table. The
/// counters describe the *simulator* (where its cycles go), so this report
/// is separate from the evaluation reports and never part of them.
#[cfg(feature = "obs")]
fn attribution_text(cli: &Cli) -> Result<String, Failure> {
    let spec = cli.configure(presets::fig1())?;
    let mut merged = rsep_uarch::StageAttribution::default();
    let mut out = format!(
        "Per-stage cycle attribution (baseline core, {} profile(s) × {} checkpoint(s), \
         {} + {} instructions)\n\n",
        spec.profiles.len(),
        spec.checkpoints.count,
        spec.checkpoints.warmup,
        spec.checkpoints.measure
    );
    for profile in &spec.profiles {
        let mut cycles = 0u64;
        for index in 0..spec.checkpoints.count {
            let mut trace = rsep_trace::TraceGenerator::new(
                profile,
                rsep_core::checkpoint_seed(spec.seed, index),
            );
            let mut core = rsep_uarch::Core::baseline(spec.core_config.clone());
            let fail = |e: &dyn std::fmt::Display| {
                runtime_error(format!("attribution: {}/{index}: {e}", profile.name))
            };
            core.run(&mut trace, spec.checkpoints.warmup).map_err(|e| fail(&e))?;
            core.reset_stats(); // also clears warm-up attribution
            core.run(&mut trace, spec.checkpoints.measure).map_err(|e| fail(&e))?;
            let attribution = core.take_attribution().expect("obs build");
            attribution.validate(core.stats().cycles).map_err(|e| fail(&e))?;
            cycles += attribution.cycles;
            merged.merge(&attribution);
        }
        out.push_str(&format!("  {:<14}{cycles:>12} measured cycles\n", profile.name));
    }
    out.push('\n');
    out.push_str(&merged.render_table());
    Ok(out)
}

/// Without the `obs` feature the counters are compiled out entirely.
#[cfg(not(feature = "obs"))]
fn attribution_text(_cli: &Cli) -> Result<String, Failure> {
    Err(runtime_error(
        "--attribution needs an instrumented build: rebuild with the `obs` feature, e.g.\n  \
         cargo run --release -p rsep-campaign --features obs --bin rsep -- run --attribution",
    ))
}

/// Resolves the campaign preset a trace corpus is recorded for / replayed
/// against.
fn trace_campaign(name: &str) -> Result<CampaignSpec, Failure> {
    match name {
        "fig4" => Ok(presets::fig4()),
        "fig5" => Ok(presets::fig5()),
        "fig6" => Ok(presets::fig6()),
        "fig7" => Ok(presets::fig7()),
        other => Err(usage_error(format!(
            "'{other}' is not a recordable campaign (expected fig4, fig5, fig6 or fig7)"
        ))),
    }
}

/// Renders the analyze report: a header block describing the file, then
/// the behaviour distributions of all segments combined.
fn analyze_text(target: &str, file: &rsep_tracefile::TraceFile) -> String {
    let h = file.header();
    let report = rsep_tracefile::analyze(
        (0..file.segment_count()).flat_map(|i| file.segment(i).expect("validated segment")),
    );
    let mut out = format!("trace {target}\n");
    out.push_str(&format!("profile           {}\n", h.profile));
    out.push_str(&format!(
        "format            v{}.{}\n",
        rsep_tracefile::format::FORMAT_MAJOR,
        h.minor
    ));
    out.push_str(&format!("seed              {}\n", h.seed));
    out.push_str(&format!(
        "checkpoints       {} x ({} warm-up + {} measured + {} slack)\n",
        h.checkpoints, h.warmup, h.measure, h.slack
    ));
    out.push_str(&format!("anonymisation     {}\n", anon_name(h.anon)));
    out.push_str(&format!(
        "payload           {} bytes ({:.2} bytes/instruction)\n\n",
        file.payload_bytes(),
        file.payload_bytes() as f64 / file.instructions().max(1) as f64
    ));
    out.push_str(&report.render_text());
    out
}

fn anon_name(anon: AnonScheme) -> &'static str {
    match anon {
        AnonScheme::None => "none",
        AnonScheme::KeyedBlock => "keyed-block",
    }
}

/// The analyze report as JSON: file metadata plus the behaviour report.
fn analyze_json(target: &str, file: &rsep_tracefile::TraceFile) -> Json {
    let h = file.header();
    let report = rsep_tracefile::analyze(
        (0..file.segment_count()).flat_map(|i| file.segment(i).expect("validated segment")),
    );
    Json::object(vec![
        ("file".into(), Json::Str(target.to_string())),
        ("profile".into(), Json::Str(h.profile.clone())),
        (
            "format".into(),
            Json::Str(format!("{}.{}", rsep_tracefile::format::FORMAT_MAJOR, h.minor)),
        ),
        ("seed".into(), Json::Str(h.seed.to_string())),
        ("checkpoints".into(), Json::Int(h.checkpoints as i64)),
        ("warmup".into(), Json::Int(h.warmup as i64)),
        ("measure".into(), Json::Int(h.measure as i64)),
        ("slack".into(), Json::Int(h.slack as i64)),
        ("anonymisation".into(), Json::Str(anon_name(h.anon).to_string())),
        ("payload_bytes".into(), Json::Int(file.payload_bytes() as i64)),
        ("instructions".into(), Json::Int(file.instructions() as i64)),
        ("report".into(), report.to_json()),
    ])
}

/// `rsep trace <record|analyze|replay>`: the trace-file subsystem.
fn run_trace(cli: &Cli) -> Result<(), Failure> {
    let action = cli.files[0].as_str();
    let target = cli.files[1].as_str();
    match action {
        "record" => {
            let spec = cli.configure(trace_campaign(target)?)?;
            let dir = std::path::PathBuf::from(cli.dir.as_deref().expect("validated"));
            let anon = if cli.raw_addresses { AnonScheme::None } else { AnonScheme::KeyedBlock };
            let written =
                rsep_campaign::record_campaign(&dir, &spec, anon).map_err(runtime_error)?;
            let mut out = String::new();
            for trace in &written {
                out.push_str(&format!(
                    "recorded {}  {} instructions, {} bytes\n",
                    trace.path.display(),
                    trace.instructions,
                    trace.bytes
                ));
            }
            emit_text(&out);
        }
        "analyze" => {
            let file = rsep_tracefile::TraceFile::open(std::path::Path::new(target))
                .map_err(|e| runtime_error(format!("{target}: {e}")))?;
            if cli.format == ReportFormat::Json {
                emit_text(&analyze_json(target, &file).to_string_pretty());
                emit_text("\n");
            } else {
                emit_text(&analyze_text(target, &file));
            }
        }
        "replay" => {
            let spec = cli.configure(trace_campaign(target)?)?;
            let dir = std::path::Path::new(cli.dir.as_deref().expect("validated"));
            let corpus = rsep_campaign::open_corpus(dir, &spec).map_err(runtime_error)?;
            let jobs = cli.jobs.unwrap_or_else(rsep_campaign::jobs_from_env);
            let executor =
                Executor::new(jobs).with_progress(!cli.quiet).with_heartbeat(cli.progress);
            let result =
                rsep_campaign::replay_campaign(&executor, &spec, &corpus).map_err(runtime_error)?;
            cli.emit_grid(&result);
            cli.note(format!(
                "{}: replayed {} cells from {} trace file(s) in {:.2?}",
                result.id,
                result.exec.cells,
                corpus.len(),
                result.exec.wall
            ));
        }
        _ => unreachable!("validated"),
    }
    Ok(())
}

fn run_command(cli: &Cli) -> Result<(), Failure> {
    validate(cli)?;
    if cli.storage {
        emit_text(&storage_text());
        return Ok(());
    }
    if cli.attribution {
        emit_text(&attribution_text(cli)?);
        return Ok(());
    }
    match cli.command.as_str() {
        "table1" => emit_text(&table1_text()),
        "trace" => run_trace(cli)?,
        "merge" => {
            let result = merge_stored(&cli.files).map_err(|e| runtime_error(e.to_string()))?;
            cli.emit_grid(&result);
            cli.note(format!(
                "{}: merged {} cells from {} shard file(s)",
                result.id,
                result.exec.cells,
                cli.files.len()
            ));
        }
        "fig1" => {
            let spec = cli.configure(presets::fig1())?;
            let (exp, exec) = cli.campaign().run_redundancy(&spec);
            cli.emit(&exp);
            cli.note(format!(
                "figure1: {} cells on {} workers in {:.2?}",
                exec.cells, exec.jobs, exec.wall
            ));
        }
        "fig4" | "fig6" | "fig7" | "sweep" | "fig5" | "run" => {
            let specs: Vec<CampaignSpec> = match cli.command.as_str() {
                "fig4" => vec![presets::fig4()],
                "fig5" => vec![presets::fig5()],
                "fig6" => vec![presets::fig6()],
                "fig7" => vec![presets::fig7()],
                "sweep" => presets::sweeps(),
                "run" => vec![presets::fig4(), presets::fig6(), presets::fig7()],
                _ => unreachable!(),
            };
            if cli.command == "run" {
                emit_text(&table1_text());
                emit_text("\n");
                let spec = cli.configure(presets::fig1())?;
                let (exp, _) = cli.campaign().run_redundancy(&spec);
                cli.emit(&exp);
            }
            for spec in specs {
                cli.run_grid(cli.configure(spec)?)?;
            }
        }
        other => return Err(usage_error(format!("unknown command '{other}'\n{}", usage()))),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--version" || a == "-V") {
        println!("rsep {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    let cli = match parse_args(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run_command(&cli) {
        Ok(()) if cli.failed_cells.get() > 0 => {
            eprintln!("{} cell(s) failed", cli.failed_cells.get());
            ExitCode::from(CELLS_FAILED)
        }
        Ok(()) => ExitCode::SUCCESS,
        Err(failure) => {
            eprintln!("{}", failure.message);
            ExitCode::from(failure.code)
        }
    }
}
