//! Every `rsep` CLI subcommand exits 0 under `--smoke`, usage errors
//! exit 2, and a report with failed cells exits 3 once it is emitted.

use std::process::Command;

fn rsep(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rsep")).args(args).output().expect("rsep binary runs")
}

#[test]
fn every_subcommand_smokes_green() {
    for command in ["run", "fig1", "fig4", "fig5", "fig6", "fig7", "table1", "sweep"] {
        let output = rsep(&[command, "--smoke", "--quiet", "--jobs", "4"]);
        assert!(
            output.status.success(),
            "rsep {command} --smoke exited {:?}: {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(!output.stdout.is_empty(), "rsep {command} produced no output");
    }
}

#[test]
fn formats_render_for_fig7() {
    for format in ["--json", "--csv", "--md"] {
        let output = rsep(&["fig7", "--smoke", "--quiet", format, "--benchmarks", "mcf"]);
        assert!(output.status.success(), "{format} failed");
        let text = String::from_utf8(output.stdout).unwrap();
        // CSV carries no experiment id, so anchor on a series name instead.
        assert!(text.contains("rsep-realistic"), "{format}: {text}");
    }
}

#[test]
fn scale_flags_shrink_the_run() {
    let output = rsep(&[
        "fig4",
        "--quiet",
        "--benchmarks",
        "mcf",
        "--checkpoints",
        "1",
        "--warmup",
        "200",
        "--measure",
        "500",
        "--seed",
        "5",
        "--csv",
    ]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    // Header + 5 mechanisms for the one benchmark.
    assert_eq!(text.lines().count(), 6, "{text}");
}

#[test]
fn bad_usage_exits_2() {
    assert_eq!(rsep(&[]).status.code(), Some(2));
    assert_eq!(rsep(&["nosuchfig"]).status.code(), Some(2));
    assert_eq!(rsep(&["fig4", "--jobs"]).status.code(), Some(2));
    assert_eq!(rsep(&["fig4", "--jobs", "abc"]).status.code(), Some(2));
    // A selection matching nothing is an error, not an empty report.
    assert_eq!(rsep(&["fig4", "--smoke", "--benchmarks", "nosuchbench"]).status.code(), Some(2));
    // Store misuse is caught before any simulation runs.
    assert_eq!(rsep(&["fig4", "--store", "sqlite:x"]).status.code(), Some(2));
    assert_eq!(rsep(&["fig4", "--store", "jsonl:"]).status.code(), Some(2));
    assert_eq!(rsep(&["run", "--smoke", "--store", "jsonl:x.jsonl"]).status.code(), Some(2));
    // Retired command and flags: an unknown command and unknown flags.
    assert_eq!(rsep(&["merge"]).status.code(), Some(2));
    assert_eq!(rsep(&["fig4", "--smoke", "--shard", "0/2"]).status.code(), Some(2));
    assert_eq!(
        rsep(&["fig4", "--store", "jsonl:x.jsonl", "--cache-dir", "y"]).status.code(),
        Some(2)
    );
}

#[test]
fn storage_report_reproduces_the_paper_comparison() {
    // `rsep run --storage` prints the Table II storage-budget comparison
    // (computed from each configuration's storage_bits) and exits
    // without simulating — so it must be fast and self-contained.
    let output = rsep(&["run", "--storage"]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8(output.stdout).unwrap();
    // The headline numbers: ≈10.1 KB realistic distance predictor vs a
    // D-VTAGE in the 256 KB class, plus every mechanism with storage.
    assert!(text.contains("10.1 KB"), "{text}");
    let dvtage_kb: f64 = text
        .lines()
        .find(|l| l.trim_start().starts_with("d-vtage"))
        .and_then(|l| l.split_whitespace().nth(1))
        .expect("d-vtage row present")
        .parse()
        .expect("d-vtage KB parses");
    assert!((200.0..320.0).contains(&dvtage_kb), "d-vtage {dvtage_kb} KB");
    for section in ["front end", "zero-pred", "rsep-ideal", "vpred", "rsep-realistic", "tage"] {
        assert!(text.contains(section), "missing '{section}' in: {text}");
    }
    // --storage is a `run` modifier only.
    assert_eq!(rsep(&["fig4", "--storage"]).status.code(), Some(2));
}

#[test]
fn attribution_is_a_run_only_modifier() {
    // Flag misuse is a usage error regardless of the build's features.
    assert_eq!(rsep(&["fig4", "--attribution"]).status.code(), Some(2));
    assert_eq!(rsep(&["table1", "--attribution"]).status.code(), Some(2));
}

#[cfg(feature = "obs")]
#[test]
fn attribution_prints_the_stage_table() {
    let output = rsep(&[
        "run",
        "--attribution",
        "--quiet",
        "--benchmarks",
        "mcf",
        "--checkpoints",
        "1",
        "--warmup",
        "500",
        "--measure",
        "1000",
    ]);
    assert!(output.status.success(), "{}", String::from_utf8_lossy(&output.stderr));
    let text = String::from_utf8(output.stdout).unwrap();
    for section in ["per-stage cycle attribution", "fetch", "rename", "issue", "commit slots"] {
        assert!(text.contains(section), "missing '{section}' in: {text}");
    }
}

#[cfg(not(feature = "obs"))]
#[test]
fn attribution_without_obs_exits_1_with_a_rebuild_hint() {
    let output = rsep(&["run", "--attribution", "--quiet"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("obs"), "hint missing from: {stderr}");
}

#[test]
fn progress_heartbeat_leaves_stdout_byte_identical() {
    let args = [
        "fig4",
        "--benchmarks",
        "mcf",
        "--checkpoints",
        "1",
        "--warmup",
        "200",
        "--measure",
        "500",
        "--csv",
    ];
    let with = rsep(&args);
    let mut quiet_args = args.to_vec();
    quiet_args.push("--quiet");
    let without = rsep(&quiet_args);
    assert!(without.status.success() && with.status.success());
    assert_eq!(without.stdout, with.stdout, "progress lines must not change report output");
    let stderr = String::from_utf8_lossy(&with.stderr);
    assert!(stderr.contains("cells/s") && stderr.contains("ETA"), "heartbeat missing: {stderr}");
    assert!(
        without.stderr.is_empty(),
        "--quiet still wrote: {}",
        String::from_utf8_lossy(&without.stderr)
    );
}

#[test]
fn trace_record_notes_its_time_on_stderr_unless_quiet() {
    let dir = std::env::temp_dir().join(format!("rsep-cli-record-note-{}", std::process::id()));
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let args = ["trace", "record", "fig4", "--smoke", "--benchmarks", "mcf,gcc", "--dir", dir_arg];
    let with = rsep(&args);
    let mut quiet_args = args.to_vec();
    quiet_args.push("--quiet");
    let without = rsep(&quiet_args);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(without.status.success() && with.status.success());
    assert_eq!(without.stdout, with.stdout, "the note must not change stdout");
    let stderr = String::from_utf8_lossy(&with.stderr);
    assert!(stderr.starts_with("figure4: recorded 2 trace file(s) in "), "{stderr}");
    assert!(
        without.stderr.is_empty(),
        "--quiet still wrote: {}",
        String::from_utf8_lossy(&without.stderr)
    );
}

#[test]
fn the_environment_does_not_change_a_campaign() {
    // Scale and selection come from flags only: variables that once set
    // them must leave the report byte-identical.
    let args = ["fig4", "--smoke", "--json", "--quiet"];
    let vars = [
        ("RSEP_BENCHMARKS", "mcf"),
        ("RSEP_SEED", "7"),
        ("RSEP_MEASURE", "1000"),
        ("RSEP_JOBS", "1"),
    ];
    let mut clean = Command::new(env!("CARGO_BIN_EXE_rsep"));
    clean.args(args);
    for (name, _) in vars {
        clean.env_remove(name);
    }
    let clean = clean.output().expect("rsep binary runs");
    let set = Command::new(env!("CARGO_BIN_EXE_rsep"))
        .args(args)
        .envs(vars)
        .output()
        .expect("rsep binary runs");
    assert!(clean.status.success() && set.status.success());
    assert!(!clean.stdout.is_empty());
    assert_eq!(clean.stdout, set.stdout, "RSEP_* variables changed the fig4 report");
}

#[test]
fn runtime_failures_exit_1() {
    // A store that cannot be written is a runtime failure, not usage, and
    // it stops the run before any cell simulates.
    let output = rsep(&["fig4", "--smoke", "--store", "jsonl:/nonexistent/dir/x.jsonl"]);
    assert_eq!(output.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("/nonexistent/dir/x.jsonl"), "{stderr}");
    assert!(!stderr.contains("cells/s"), "a cell simulated: {stderr}");
    assert!(output.stdout.is_empty());
}

#[test]
fn version_exits_0_and_prints_the_version() {
    let output = rsep(&["--version"]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.starts_with("rsep "), "{text}");
    assert!(text.contains(env!("CARGO_PKG_VERSION")), "{text}");
}

#[test]
fn smoke_respects_a_benchmark_outside_the_smoke_six() {
    // hmmer is not in the smoke subset; --benchmarks must still select it.
    let output = rsep(&["fig4", "--smoke", "--quiet", "--benchmarks", "hmmer", "--csv"]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    assert!(text.contains("hmmer,"), "{text}");
    // Header + 5 mechanism rows, nothing else ran.
    assert_eq!(text.lines().count(), 6, "{text}");
}

#[test]
fn fig5_reports_both_mechanism_prefixes() {
    let output = rsep(&["fig5", "--smoke", "--quiet", "--benchmarks", "mcf", "--csv"]);
    assert!(output.status.success());
    let text = String::from_utf8(output.stdout).unwrap();
    // 8 coverage categories × 2 mechanisms, distinctly prefixed.
    assert_eq!(text.matches("mcf,rsep:").count(), 8, "{text}");
    assert_eq!(text.matches("mcf,rsep+vp:").count(), 8, "{text}");
}

#[test]
fn help_exits_0() {
    let output = rsep(&["--help"]);
    assert!(output.status.success());
    let text = String::from_utf8_lossy(&output.stdout);
    assert!(text.contains("usage: rsep"));
    // Every flag the CLI matches on (the quoted `-x` / `--xyz` literals of
    // its source) must be documented, spelled out as a word of its own.
    let words: Vec<&str> =
        text.split(|c: char| c.is_whitespace() || "|,/()[]`".contains(c)).collect();
    let source = include_str!("../src/bin/rsep.rs");
    let flags: Vec<&str> = source
        .split('"')
        .filter(|s| {
            let name = s.trim_start_matches('-');
            (1..=2).contains(&(s.len() - name.len()))
                && !name.is_empty()
                && name.chars().all(|c| c.is_ascii_alphabetic() || c == '-')
        })
        .collect();
    assert!(flags.len() >= 20, "found only {flags:?} in the CLI source");
    for flag in flags {
        assert!(words.contains(&flag), "`rsep --help` does not document {flag}");
    }
}

#[test]
fn a_report_with_failed_cells_exits_3_after_it_is_emitted() {
    use rsep_tracefile::format::{encode_header, fnv1a, FNV_BASIS};

    let dir = std::env::temp_dir().join(format!("rsep-cli-failed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir");
    let recorded =
        rsep(&["trace", "record", "fig4", "--smoke", "--benchmarks", "mcf", "--dir", dir_arg]);
    assert!(recorded.status.success(), "{}", String::from_utf8_lossy(&recorded.stderr));

    // Make the first record undecodable (op class 15 does not exist) and
    // re-seal the checksum, so the file opens and then fails mid-replay.
    let path = dir.join("mcf.rseptrc");
    let file = rsep_tracefile::TraceFile::open(&path).expect("recorded file opens");
    let start = encode_header(file.header()).len();
    let end = start + file.payload_bytes() as usize;
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[start] = 0x0f;
    let checksum = fnv1a(FNV_BASIS, &bytes[start..end]);
    let at = bytes.len() - 16;
    bytes[at..at + 8].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write");

    let output = rsep(&[
        "trace",
        "replay",
        "fig4",
        "--smoke",
        "--benchmarks",
        "mcf",
        "--dir",
        dir_arg,
        "--quiet",
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(3), "{stderr}");
    assert!(String::from_utf8_lossy(&output.stdout).contains("mcf"), "the report is emitted");
    assert!(stderr.contains("warning: figure4/mcf/"), "{stderr}");
    assert!(stderr.contains("mcf.rseptrc#0: trace record error"), "{stderr}");
}
