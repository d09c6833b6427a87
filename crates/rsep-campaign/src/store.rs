//! Pluggable campaign result stores and content-addressed cell keys.
//!
//! Every simulation cell of a campaign is a pure function of its
//! configuration, so it has a stable *content-addressed identity*: a
//! [`CellKey`], the 128-bit structural hash of
//! `(profile, mechanism, core config, checkpoint scale, sub-seed)`.
//! Tweaking any configuration field changes exactly the keys of the
//! affected cells; everything else keeps its identity — which is what
//! lets a resumed run serve a stored cell only to the configuration that
//! produced it.
//!
//! A [`ResultStore`] receives `(index, key, result)` triples **as cells
//! complete** and answers key lookups before the run starts. Two
//! implementations cover the campaign lifecycles:
//!
//! * [`MemoryStore`] — no persistence; every run simulates everything
//!   (the default).
//! * [`JsonlStore`] — an append-only JSON-Lines file, one line per
//!   completed cell. Reopening a partial file resumes the campaign,
//!   re-simulating only the missing cells.

use crate::spec::CampaignSpec;
use rsep_core::{CheckpointResult, MechanismConfig};
use rsep_isa::fingerprint::FNV_OFFSET_BASIS;
use rsep_isa::{Fingerprint, Fnv};
use rsep_predictors::PredictorStats;
use rsep_stats::json::Json;
use rsep_stats::jsonl;
use rsep_trace::{BenchmarkProfile, CheckpointSpec};
use rsep_uarch::{CacheStats, CoreConfig, CoverageCounts, SimStats};
#[expect(
    clippy::disallowed_types,
    reason = "cell results are keyed by CellKey and emitted in grid order"
)]
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

/// Bumped whenever the key derivation or the stored-cell encoding changes,
/// so stale stores are invalidated instead of misread. Part of the on-disk
/// format: external tooling checks it before reading a store.
pub const STORE_FORMAT_VERSION: u64 = 1;

/// Basis of the second (high) hash lane of a [`CellKey`].
const CELL_KEY_HI_BASIS: u64 = 0x6c62_272e_07bb_0142;

// ------------------------------------------------------------------ CellKey

/// Content-addressed identity of one simulation cell.
///
/// Two cells have the same key iff their benchmark profile, mechanism
/// configuration, core configuration, per-checkpoint instruction budget and
/// sub-seed are structurally identical — independent of where the cell sits
/// in a campaign grid, of the mechanism's display label, and of how many
/// *other* cells the campaign has.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey {
    hi: u64,
    lo: u64,
}

impl CellKey {
    /// Derives the key of one `(profile, mechanism, checkpoint)` cell.
    ///
    /// `sub_seed` must be the cell's actual trace seed
    /// ([`rsep_core::checkpoint_seed`]`(campaign_seed, checkpoint)`), so the
    /// campaign seed and checkpoint index are collapsed into the one value
    /// the simulation consumes.
    pub fn for_cell(
        profile: &BenchmarkProfile,
        mechanism: &MechanismConfig,
        core_config: &CoreConfig,
        checkpoints: CheckpointSpec,
        sub_seed: u64,
    ) -> CellKey {
        let lane = |basis: u64| {
            let mut h = Fnv::with_basis(basis);
            h.write_u64(STORE_FORMAT_VERSION);
            profile.fingerprint(&mut h);
            mechanism.fingerprint(&mut h);
            core_config.fingerprint(&mut h);
            // Only the per-checkpoint instruction budget identifies a cell;
            // `count` just determines how many cells exist.
            h.write_u64(checkpoints.warmup);
            h.write_u64(checkpoints.measure);
            h.write_u64(checkpoints.spacing);
            h.write_u64(sub_seed);
            h.finish()
        };
        CellKey { hi: lane(CELL_KEY_HI_BASIS), lo: lane(FNV_OFFSET_BASIS) }
    }

    /// Parses the 32-hex-digit form produced by `Display`.
    pub fn parse(text: &str) -> Option<CellKey> {
        if text.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&text[..16], 16).ok()?;
        let lo = u64::from_str_radix(&text[16..], 16).ok()?;
        Some(CellKey { hi, lo })
    }
}

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

// --------------------------------------------------------------- StoreError

/// A result-store failure (I/O, corruption, or campaign mismatch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreError {
    /// Path involved, when the failure is file-backed.
    pub path: Option<PathBuf>,
    /// Human-readable description.
    pub message: String,
}

impl StoreError {
    pub(crate) fn new(path: impl Into<PathBuf>, message: impl Into<String>) -> StoreError {
        StoreError { path: Some(path.into()), message: message.into() }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.path {
            Some(path) => write!(f, "{}: {}", path.display(), self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl std::error::Error for StoreError {}

// ---------------------------------------------------------- CampaignHeader

/// Grid metadata persisted alongside stored cells.
///
/// Its spec fingerprint lets a resumed run refuse a file that belongs to a
/// different campaign; the grid's shape (profiles, mechanism labels,
/// checkpoints, cell count) describes the file to a reader that has only
/// the bare cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignHeader {
    /// Campaign identifier (the spec's `id`).
    pub id: String,
    /// Structural fingerprint of the full spec.
    pub spec_fingerprint: u64,
    /// Benchmark names, in spec order.
    pub profiles: Vec<String>,
    /// Mechanism labels in execution order (baseline first when present).
    pub mechanisms: Vec<String>,
    /// Whether the first mechanism is the baseline.
    pub baseline: bool,
    /// Checkpoints per `(profile, mechanism)` pair.
    pub checkpoints: usize,
    /// Total cell count of the grid.
    pub cells: usize,
}

impl CampaignHeader {
    /// Builds the header describing a spec's expanded grid.
    pub fn for_spec(spec: &CampaignSpec) -> CampaignHeader {
        let mechanisms = crate::expand_mechanisms(spec).into_iter().map(|m| m.label).collect();
        CampaignHeader {
            id: spec.id.clone(),
            spec_fingerprint: spec.fingerprint_value(),
            profiles: spec.profiles.iter().map(|p| p.name.to_string()).collect(),
            mechanisms,
            baseline: spec.baseline,
            checkpoints: spec.checkpoints.count,
            cells: spec.cell_count(),
        }
    }

    fn to_json(&self) -> Json {
        let Self { id, spec_fingerprint, profiles, mechanisms, baseline, checkpoints, cells } =
            self;
        let names =
            |list: &[String]| Json::Array(list.iter().map(|n| Json::Str(n.clone())).collect());
        Json::Object(vec![
            ("kind".into(), Json::Str("campaign".into())),
            ("version".into(), Json::Num(STORE_FORMAT_VERSION as f64)),
            ("id".into(), Json::Str(id.clone())),
            ("spec".into(), Json::Str(format!("{spec_fingerprint:016x}"))),
            ("profiles".into(), names(profiles)),
            ("mechanisms".into(), names(mechanisms)),
            ("baseline".into(), Json::Bool(*baseline)),
            ("checkpoints".into(), Json::Num(*checkpoints as f64)),
            ("cells".into(), Json::Num(*cells as f64)),
        ])
    }

    fn from_json(v: &Json) -> Result<CampaignHeader, String> {
        let str_field = |key: &str| {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("header is missing string field '{key}'"))
        };
        let num_field = |key: &str| {
            v.get(key)
                .and_then(Json::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("header is missing numeric field '{key}'"))
        };
        let list_field = |key: &str| -> Result<Vec<String>, String> {
            v.get(key)
                .and_then(Json::as_array)
                .ok_or_else(|| format!("header is missing array field '{key}'"))?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("non-string entry in header '{key}'"))
                })
                .collect()
        };
        if num_field("version")? != STORE_FORMAT_VERSION {
            return Err(format!(
                "store format version {} is not the supported version {STORE_FORMAT_VERSION}",
                num_field("version")?
            ));
        }
        let spec_hex = str_field("spec")?;
        let spec_fingerprint = u64::from_str_radix(&spec_hex, 16)
            .map_err(|_| format!("bad spec fingerprint '{spec_hex}'"))?;
        Ok(CampaignHeader {
            id: str_field("id")?,
            spec_fingerprint,
            profiles: list_field("profiles")?,
            mechanisms: list_field("mechanisms")?,
            baseline: matches!(v.get("baseline"), Some(Json::Bool(true))),
            checkpoints: num_field("checkpoints")? as usize,
            cells: num_field("cells")? as usize,
        })
    }
}

// -------------------------------------------------------------------- codec

fn u64_field(pairs: &mut Vec<(String, Json)>, key: &str, value: u64) {
    debug_assert!(value < (1u64 << 53), "{key} = {value} exceeds f64 integer precision");
    pairs.push((key.into(), Json::Num(value as f64)));
}

fn coverage_to_json(c: &CoverageCounts) -> Json {
    let CoverageCounts {
        zero_idiom_elim,
        move_elim,
        zero_pred,
        load_zero_pred,
        dist_pred,
        load_dist_pred,
        value_pred,
        load_value_pred,
    } = *c;
    let mut pairs = Vec::new();
    u64_field(&mut pairs, "zero_idiom_elim", zero_idiom_elim);
    u64_field(&mut pairs, "move_elim", move_elim);
    u64_field(&mut pairs, "zero_pred", zero_pred);
    u64_field(&mut pairs, "load_zero_pred", load_zero_pred);
    u64_field(&mut pairs, "dist_pred", dist_pred);
    u64_field(&mut pairs, "load_dist_pred", load_dist_pred);
    u64_field(&mut pairs, "value_pred", value_pred);
    u64_field(&mut pairs, "load_value_pred", load_value_pred);
    Json::Object(pairs)
}

fn stats_to_json(s: &SimStats) -> Json {
    let SimStats {
        cycles,
        committed,
        committed_loads,
        committed_stores,
        committed_branches,
        branch_mispredictions,
        prediction_squashes,
        correct_predictions,
        incorrect_predictions,
        eligible_instructions,
        prf_stall_cycles,
        queue_stall_cycles,
        watchdog_flushes,
        validation_issues,
        validation_port_conflicts,
        stlf_forwards,
        coverage,
        cache,
        predictors,
        rob_occupancy_sum,
    } = s;
    let mut pairs = Vec::new();
    u64_field(&mut pairs, "cycles", *cycles);
    u64_field(&mut pairs, "committed", *committed);
    u64_field(&mut pairs, "committed_loads", *committed_loads);
    u64_field(&mut pairs, "committed_stores", *committed_stores);
    u64_field(&mut pairs, "committed_branches", *committed_branches);
    u64_field(&mut pairs, "branch_mispredictions", *branch_mispredictions);
    u64_field(&mut pairs, "prediction_squashes", *prediction_squashes);
    u64_field(&mut pairs, "correct_predictions", *correct_predictions);
    u64_field(&mut pairs, "incorrect_predictions", *incorrect_predictions);
    u64_field(&mut pairs, "eligible_instructions", *eligible_instructions);
    u64_field(&mut pairs, "prf_stall_cycles", *prf_stall_cycles);
    u64_field(&mut pairs, "queue_stall_cycles", *queue_stall_cycles);
    u64_field(&mut pairs, "watchdog_flushes", *watchdog_flushes);
    u64_field(&mut pairs, "validation_issues", *validation_issues);
    u64_field(&mut pairs, "validation_port_conflicts", *validation_port_conflicts);
    u64_field(&mut pairs, "stlf_forwards", *stlf_forwards);
    u64_field(&mut pairs, "rob_occupancy_sum", *rob_occupancy_sum);
    pairs.push(("coverage".into(), coverage_to_json(coverage)));
    let cache = cache
        .iter()
        .map(|(level, c)| {
            let CacheStats { accesses, misses, prefetch_fills } = *c;
            let mut entry = vec![("level".to_string(), Json::Str((*level).into()))];
            u64_field(&mut entry, "accesses", accesses);
            u64_field(&mut entry, "misses", misses);
            u64_field(&mut entry, "prefetch_fills", prefetch_fills);
            Json::Object(entry)
        })
        .collect();
    pairs.push(("cache".into(), Json::Array(cache)));
    let predictors = predictors
        .iter()
        .map(|(family, p)| {
            let PredictorStats { lookups, used, correct, incorrect } = *p;
            let mut entry = vec![("family".to_string(), Json::Str((*family).into()))];
            u64_field(&mut entry, "lookups", lookups);
            u64_field(&mut entry, "used", used);
            u64_field(&mut entry, "correct", correct);
            u64_field(&mut entry, "incorrect", incorrect);
            Json::Object(entry)
        })
        .collect();
    pairs.push(("predictors".into(), Json::Array(predictors)));
    Json::Object(pairs)
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .map(|n| n as u64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

/// Like [`get_u64`] but tolerating an absent field (counters added after
/// store files were written read back as zero).
fn get_u64_or(v: &Json, key: &str, default: u64) -> u64 {
    v.get(key).and_then(Json::as_f64).map(|n| n as u64).unwrap_or(default)
}

fn coverage_from_json(v: &Json) -> Result<CoverageCounts, String> {
    Ok(CoverageCounts {
        zero_idiom_elim: get_u64(v, "zero_idiom_elim")?,
        move_elim: get_u64(v, "move_elim")?,
        zero_pred: get_u64(v, "zero_pred")?,
        load_zero_pred: get_u64(v, "load_zero_pred")?,
        dist_pred: get_u64(v, "dist_pred")?,
        load_dist_pred: get_u64(v, "load_dist_pred")?,
        value_pred: get_u64(v, "value_pred")?,
        load_value_pred: get_u64(v, "load_value_pred")?,
    })
}

/// Maps a stored cache-level name back to the `'static` names the
/// simulator uses.
fn cache_level(name: &str) -> Result<&'static str, String> {
    match name {
        "L1I" => Ok("L1I"),
        "L1D" => Ok("L1D"),
        "L2" => Ok("L2"),
        "L3" => Ok("L3"),
        other => Err(format!("unknown cache level '{other}'")),
    }
}

/// Maps a stored predictor-family name back to the `'static` names the
/// predictors use.
fn predictor_family(name: &str) -> Result<&'static str, String> {
    match name {
        "tage" => Ok("tage"),
        "btb" => Ok("btb"),
        "distance" => Ok("distance"),
        "dvtage" => Ok("dvtage"),
        "zero" => Ok("zero"),
        other => Err(format!("unknown predictor family '{other}'")),
    }
}

fn stats_from_json(v: &Json) -> Result<SimStats, String> {
    let coverage = coverage_from_json(
        v.get("coverage").ok_or_else(|| "missing 'coverage' object".to_string())?,
    )?;
    let cache = v
        .get("cache")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing 'cache' array".to_string())?
        .iter()
        .map(|entry| {
            let level = entry
                .get("level")
                .and_then(Json::as_str)
                .ok_or_else(|| "cache entry without 'level'".to_string())?;
            Ok((
                cache_level(level)?,
                CacheStats {
                    accesses: get_u64(entry, "accesses")?,
                    misses: get_u64(entry, "misses")?,
                    prefetch_fills: get_u64(entry, "prefetch_fills")?,
                },
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Tolerate files written before the unified predictor counters existed:
    // an absent array reads back as empty.
    let predictors = match v.get("predictors").and_then(Json::as_array) {
        None => Vec::new(),
        Some(entries) => entries
            .iter()
            .map(|entry| {
                let family = entry
                    .get("family")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "predictor entry without 'family'".to_string())?;
                Ok((
                    predictor_family(family)?,
                    PredictorStats {
                        lookups: get_u64(entry, "lookups")?,
                        used: get_u64(entry, "used")?,
                        correct: get_u64(entry, "correct")?,
                        incorrect: get_u64(entry, "incorrect")?,
                    },
                ))
            })
            .collect::<Result<Vec<_>, String>>()?,
    };
    Ok(SimStats {
        cycles: get_u64(v, "cycles")?,
        committed: get_u64(v, "committed")?,
        committed_loads: get_u64(v, "committed_loads")?,
        committed_stores: get_u64(v, "committed_stores")?,
        committed_branches: get_u64(v, "committed_branches")?,
        branch_mispredictions: get_u64(v, "branch_mispredictions")?,
        prediction_squashes: get_u64(v, "prediction_squashes")?,
        correct_predictions: get_u64(v, "correct_predictions")?,
        incorrect_predictions: get_u64(v, "incorrect_predictions")?,
        eligible_instructions: get_u64(v, "eligible_instructions")?,
        prf_stall_cycles: get_u64(v, "prf_stall_cycles")?,
        queue_stall_cycles: get_u64(v, "queue_stall_cycles")?,
        watchdog_flushes: get_u64(v, "watchdog_flushes")?,
        validation_issues: get_u64(v, "validation_issues")?,
        validation_port_conflicts: get_u64(v, "validation_port_conflicts")?,
        stlf_forwards: get_u64_or(v, "stlf_forwards", 0),
        rob_occupancy_sum: get_u64(v, "rob_occupancy_sum")?,
        coverage,
        cache,
        predictors,
    })
}

/// Encodes one completed cell as a JSONL record. Failed cells (wedged
/// simulations) carry an `error` field so the failure itself is persisted
/// and a resumed campaign does not silently re-run it as a hole.
fn cell_to_json(index: usize, key: CellKey, result: &CheckpointResult) -> Json {
    let CheckpointResult { index: checkpoint, ipc, stats, error } = result;
    let mut pairs = vec![
        ("kind".into(), Json::Str("cell".into())),
        ("index".into(), Json::Num(index as f64)),
        ("key".into(), Json::Str(key.to_string())),
        ("checkpoint".into(), Json::Num(*checkpoint as f64)),
        ("ipc".into(), Json::Num(*ipc)),
        ("stats".into(), stats_to_json(stats)),
    ];
    if let Some(error) = error {
        pairs.push(("error".into(), Json::Str(error.clone())));
    }
    Json::Object(pairs)
}

fn cell_from_json(v: &Json) -> Result<(usize, CellKey, CheckpointResult), String> {
    let key_text =
        v.get("key").and_then(Json::as_str).ok_or_else(|| "cell without 'key'".to_string())?;
    let key = CellKey::parse(key_text).ok_or_else(|| format!("bad cell key '{key_text}'"))?;
    let ipc =
        v.get("ipc").and_then(Json::as_f64).ok_or_else(|| "cell without 'ipc'".to_string())?;
    let result = CheckpointResult {
        index: get_u64(v, "checkpoint")? as usize,
        ipc,
        stats: stats_from_json(v.get("stats").ok_or_else(|| "cell without 'stats'".to_string())?)?,
        error: v.get("error").and_then(Json::as_str).map(str::to_string),
    };
    Ok((get_u64(v, "index")? as usize, key, result))
}

// -------------------------------------------------------------- ResultStore

/// Where campaign cells come from and go to.
///
/// The executor calls [`ResultStore::lookup`] for every cell key before the
/// run and simulates only the misses, streaming each completed cell into
/// [`ResultStore::record`] *as it finishes* (completion order, not index
/// order), so a crash loses at most the in-flight cells.
pub trait ResultStore {
    /// Announces the campaign about to run. File-backed stores persist or
    /// validate the header here; a mismatching preexisting campaign is an
    /// error, not a silent overwrite.
    fn begin(&mut self, header: &CampaignHeader) -> Result<(), StoreError>;

    /// Returns the stored result for a key, if any.
    fn lookup(&mut self, key: CellKey) -> Option<CheckpointResult>;

    /// Records one completed cell. `index` is the cell's position in the
    /// campaign grid (for reassembly); `key` is its content address.
    fn record(
        &mut self,
        index: usize,
        key: CellKey,
        result: &CheckpointResult,
    ) -> Result<(), StoreError>;

    /// Flushes any buffered state at the end of a run.
    fn finish(&mut self) -> Result<(), StoreError> {
        Ok(())
    }
}

// -------------------------------------------------------------- MemoryStore

/// The no-persistence store: every lookup misses, records are dropped (the
/// executor already collects them in memory). This is the pre-store
/// behaviour of [`crate::Campaign::run`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MemoryStore;

impl ResultStore for MemoryStore {
    fn begin(&mut self, _header: &CampaignHeader) -> Result<(), StoreError> {
        Ok(())
    }

    fn lookup(&mut self, _key: CellKey) -> Option<CheckpointResult> {
        None
    }

    fn record(
        &mut self,
        _index: usize,
        _key: CellKey,
        _result: &CheckpointResult,
    ) -> Result<(), StoreError> {
        Ok(())
    }
}

// --------------------------------------------------------------- JsonlStore

/// Append-only JSON-Lines store: a header line followed by one line per
/// completed cell, flushed as cells finish.
///
/// Reopening an existing file resumes the campaign it belongs to: stored
/// cells are served from [`ResultStore::lookup`] and only missing cells are
/// simulated. A trailing half-written line (crash mid-record) is truncated
/// away on reopen. Opening a file written by a *different* campaign is an
/// error.
#[derive(Debug)]
pub struct JsonlStore {
    path: PathBuf,
    header: Option<CampaignHeader>,
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup cache; reports iterate the grid, never this map"
    )]
    cells: HashMap<CellKey, CheckpointResult>,
    file: Option<fs::File>,
    /// Bytes of the preexisting file covered by complete lines; anything
    /// past this is a torn record and is truncated away in `begin`.
    durable_len: u64,
}

impl JsonlStore {
    /// Opens (or prepares to create) a JSONL store at `path`, loading any
    /// cells a previous run already completed.
    ///
    /// A file that exists but contains **no complete line** (the previous
    /// run died before even the header finished writing) is treated as
    /// fresh, not as corruption — re-running the same command must always
    /// make progress.
    pub fn open(path: impl Into<PathBuf>) -> Result<JsonlStore, StoreError> {
        let path = path.into();
        let mut store = JsonlStore {
            path: path.clone(),
            header: None,
            #[expect(
                clippy::disallowed_types,
                reason = "keyed lookup cache; reports iterate the grid, never this map"
            )]
            cells: HashMap::new(),
            file: None,
            durable_len: 0,
        };
        if path.exists() {
            let text =
                fs::read_to_string(&path).map_err(|e| StoreError::new(&path, e.to_string()))?;
            let durable = jsonl::complete_prefix_len(&text);
            store.durable_len = durable as u64;
            let error = |message: String| StoreError::new(&path, message);
            let records = jsonl::decode_lines(&text[..durable])
                .map_err(|e| error(format!("corrupt store: {e}")))?;
            for record in &records {
                match record.get("kind").and_then(Json::as_str) {
                    Some("campaign") => {
                        let parsed = CampaignHeader::from_json(record).map_err(error)?;
                        if store.header.as_ref().is_some_and(|existing| *existing != parsed) {
                            return Err(error(
                                "file contains two different campaign headers".to_string(),
                            ));
                        }
                        store.header = Some(parsed);
                    }
                    Some("cell") => {
                        let (_, key, result) = cell_from_json(record).map_err(error)?;
                        store.cells.insert(key, result);
                    }
                    _ => return Err(error("record without a known 'kind'".to_string())),
                }
            }
            if store.header.is_none() && !store.cells.is_empty() {
                return Err(error("file has cell records but no campaign header".to_string()));
            }
        }
        Ok(store)
    }

    /// Number of cells loaded from a preexisting file.
    pub fn resumed_cells(&self) -> usize {
        self.cells.len()
    }

    fn io(&self, e: std::io::Error) -> StoreError {
        StoreError::new(&self.path, e.to_string())
    }
}

impl ResultStore for JsonlStore {
    fn begin(&mut self, header: &CampaignHeader) -> Result<(), StoreError> {
        if let Some(existing) = &self.header {
            if existing.spec_fingerprint != header.spec_fingerprint {
                return Err(StoreError::new(
                    &self.path,
                    format!(
                        "file belongs to campaign '{}' (spec {:016x}), not '{}' (spec {:016x}); \
                         delete it or choose another path",
                        existing.id, existing.spec_fingerprint, header.id, header.spec_fingerprint
                    ),
                ));
            }
        }
        // Truncate anything past the durable prefix `open` measured (a torn
        // trailing record — possibly a torn header) before appending, then
        // keep the file open for streamed writes.
        if let Ok(metadata) = fs::metadata(&self.path) {
            if metadata.len() > self.durable_len {
                let file =
                    fs::OpenOptions::new().write(true).open(&self.path).map_err(|e| self.io(e))?;
                file.set_len(self.durable_len).map_err(|e| self.io(e))?;
            }
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| self.io(e))?;
        if self.header.is_none() {
            file.write_all(jsonl::encode_line(&header.to_json()).as_bytes())
                .map_err(|e| self.io(e))?;
            file.flush().map_err(|e| self.io(e))?;
            self.header = Some(header.clone());
        }
        self.file = Some(file);
        Ok(())
    }

    fn lookup(&mut self, key: CellKey) -> Option<CheckpointResult> {
        self.cells.get(&key).cloned()
    }

    fn record(
        &mut self,
        index: usize,
        key: CellKey,
        result: &CheckpointResult,
    ) -> Result<(), StoreError> {
        let file = self
            .file
            .as_mut()
            .ok_or_else(|| StoreError::new(&self.path, "record() before begin()".to_string()))?;
        let line = jsonl::encode_line(&cell_to_json(index, key, result));
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .map_err(|e| StoreError::new(&self.path, e.to_string()))?;
        // `cells` is deliberately not updated: lookups only happen before
        // the run starts, so caching freshly recorded cells in memory would
        // duplicate the executor's own result slots for nothing.
        Ok(())
    }

    fn finish(&mut self) -> Result<(), StoreError> {
        if let Some(file) = self.file.as_mut() {
            file.flush().map_err(|e| StoreError::new(&self.path, e.to_string()))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsep_core::checkpoint_seed;

    fn sample_cell() -> (CellKey, CheckpointResult) {
        let profile = BenchmarkProfile::by_name("mcf").unwrap();
        let key = CellKey::for_cell(
            &profile,
            &MechanismConfig::rsep_ideal(),
            &CoreConfig::small_test(),
            CheckpointSpec::scaled(1, 100, 400),
            checkpoint_seed(7, 0),
        );
        let stats = SimStats {
            cycles: 123,
            committed: 456,
            coverage: CoverageCounts { dist_pred: 9, ..CoverageCounts::default() },
            cache: vec![("L1D", CacheStats { accesses: 10, misses: 2, prefetch_fills: 1 })],
            ..SimStats::default()
        };
        (key, CheckpointResult { index: 0, ipc: 456.0 / 123.0, stats, error: None })
    }

    /// Statistics with every counter set to a distinct non-zero value,
    /// every cache level and every predictor family present, so a writer
    /// that drops, renames or swaps a field fails the round trip.
    fn distinct_stats() -> SimStats {
        let mut next = 0u64;
        let mut n = || {
            next += 1;
            next
        };
        SimStats {
            cycles: n(),
            committed: n(),
            committed_loads: n(),
            committed_stores: n(),
            committed_branches: n(),
            branch_mispredictions: n(),
            prediction_squashes: n(),
            correct_predictions: n(),
            incorrect_predictions: n(),
            eligible_instructions: n(),
            prf_stall_cycles: n(),
            queue_stall_cycles: n(),
            watchdog_flushes: n(),
            validation_issues: n(),
            validation_port_conflicts: n(),
            stlf_forwards: n(),
            coverage: CoverageCounts {
                zero_idiom_elim: n(),
                move_elim: n(),
                zero_pred: n(),
                load_zero_pred: n(),
                dist_pred: n(),
                load_dist_pred: n(),
                value_pred: n(),
                load_value_pred: n(),
            },
            cache: ["L1I", "L1D", "L2", "L3"]
                .into_iter()
                .map(|level| {
                    (level, CacheStats { accesses: n(), misses: n(), prefetch_fills: n() })
                })
                .collect(),
            predictors: ["tage", "btb", "distance", "dvtage", "zero"]
                .into_iter()
                .map(|family| {
                    let stats =
                        PredictorStats { lookups: n(), used: n(), correct: n(), incorrect: n() };
                    (family, stats)
                })
                .collect(),
            rob_occupancy_sum: n(),
        }
    }

    #[test]
    fn cell_key_is_deterministic_and_sensitive() {
        let profile = BenchmarkProfile::by_name("mcf").unwrap();
        let spec = CheckpointSpec::scaled(3, 100, 400);
        let base = |mechanism: &MechanismConfig| {
            CellKey::for_cell(&profile, mechanism, &CoreConfig::table1(), spec, 42)
        };
        assert_eq!(base(&MechanismConfig::rsep_ideal()), base(&MechanismConfig::rsep_ideal()));
        assert_ne!(base(&MechanismConfig::rsep_ideal()), base(&MechanismConfig::value_pred()));
        // count is *not* part of the identity — only the per-cell budget.
        let more = CheckpointSpec::scaled(9, 100, 400);
        assert_eq!(
            CellKey::for_cell(
                &profile,
                &MechanismConfig::baseline(),
                &CoreConfig::table1(),
                spec,
                42
            ),
            CellKey::for_cell(
                &profile,
                &MechanismConfig::baseline(),
                &CoreConfig::table1(),
                more,
                42
            ),
        );
    }

    #[test]
    fn cell_key_round_trips_through_display() {
        let (key, _) = sample_cell();
        assert_eq!(CellKey::parse(&key.to_string()), Some(key));
        assert_eq!(key.to_string().len(), 32);
        assert!(CellKey::parse("xyz").is_none());
        assert!(CellKey::parse("").is_none());
    }

    #[test]
    fn relabelled_mechanism_shares_its_key() {
        let profile = BenchmarkProfile::by_name("gcc").unwrap();
        let spec = CheckpointSpec::scaled(1, 100, 400);
        let mut relabelled = MechanismConfig::rsep_ideal();
        relabelled.label = "isrb-unlimited".into();
        assert_eq!(
            CellKey::for_cell(
                &profile,
                &MechanismConfig::rsep_ideal(),
                &CoreConfig::table1(),
                spec,
                1
            ),
            CellKey::for_cell(&profile, &relabelled, &CoreConfig::table1(), spec, 1),
        );
    }

    #[test]
    fn cell_record_round_trips_through_json() {
        let (key, _) = sample_cell();
        for error in [None, Some("pipeline deadlock: no commit since cycle 42".to_string())] {
            let result = CheckpointResult { index: 2, ipc: 1.375, stats: distinct_stats(), error };
            let (cell_index, parsed_key, parsed) =
                cell_from_json(&cell_to_json(3, key, &result)).unwrap();
            assert_eq!((cell_index, parsed_key), (3, key));
            let CheckpointResult { index, ipc, stats, error } = parsed;
            assert_eq!(index, result.index);
            assert_eq!(ipc.to_bits(), result.ipc.to_bits());
            assert_eq!(stats, result.stats);
            assert_eq!(error, result.error);
        }
    }

    #[test]
    fn failed_cell_round_trips_with_its_error() {
        // A wedged cell is recorded as a failure — with the rendered
        // SimError — instead of aborting the campaign; resuming the store
        // must not treat it as a missing hole.
        let (key, mut result) = sample_cell();
        result.ipc = 0.0;
        result.stats = SimStats::default();
        result.error = Some("pipeline deadlock: no commit since cycle 42".into());
        let encoded = cell_to_json(5, key, &result);
        let (index, parsed_key, parsed) = cell_from_json(&encoded).unwrap();
        assert_eq!(index, 5);
        assert_eq!(parsed_key, key);
        assert_eq!(parsed.error.as_deref(), Some("pipeline deadlock: no commit since cycle 42"));
        assert!(!parsed.is_ok());
        assert_eq!(parsed.ipc, 0.0);
    }

    #[test]
    fn stats_written_before_new_counters_read_back_as_zero() {
        // Forward compatibility of old store files: drop the
        // `stlf_forwards` field from an encoded record and re-parse.
        let (key, result) = sample_cell();
        let encoded = cell_to_json(0, key, &result).to_string_compact();
        let stripped = encoded.replace("\"stlf_forwards\":0.0,", "");
        assert_ne!(encoded, stripped, "field must have been present");
        let parsed = Json::parse(&stripped).unwrap();
        let (_, _, cell) = cell_from_json(&parsed).unwrap();
        assert_eq!(cell.stats.stlf_forwards, 0);
        assert_eq!(cell.stats, result.stats);
    }

    #[test]
    fn header_round_trips_through_json() {
        let spec = CampaignSpec::new("hdr-test")
            .with_benchmark_filter("mcf,gcc")
            .with_mechanisms(vec![MechanismConfig::rsep_ideal()]);
        let header = CampaignHeader::for_spec(&spec);
        assert_eq!(header.cells, spec.cell_count());
        // Every field distinct and non-default, so a swapped or dropped
        // value cannot round-trip.
        let distinct = CampaignHeader {
            id: "full-header".into(),
            spec_fingerprint: 0xfedc_ba98_7654_3210,
            profiles: vec!["mcf".into(), "gcc".into()],
            mechanisms: vec!["baseline".into(), "rsep-ideal".into(), "vpred".into()],
            baseline: true,
            checkpoints: 4,
            cells: 24,
        };
        for header in [header, distinct] {
            assert_eq!(CampaignHeader::from_json(&header.to_json()).unwrap(), header);
        }
    }

    #[test]
    fn every_stats_field_round_trips_through_json() {
        let stats = distinct_stats();
        assert_eq!(stats_from_json(&stats_to_json(&stats)).unwrap(), stats);
    }
}
