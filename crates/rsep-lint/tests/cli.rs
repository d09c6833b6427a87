//! The `rsep-lint` binary: a reader that stops early (`rsep-lint --json |
//! head -1`) ends the run quietly, with the verdict's exit code intact.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn a_reader_that_takes_one_line_does_not_panic_the_linter() {
    // A library of 4,000 unreferenced pub fns: every one is a dead-pub-api
    // finding, far more output than a pipe buffers, so the linter is still
    // writing when the reader goes away.
    let root = std::env::temp_dir().join(format!("rsep-lint-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/big/src");
    let tests = root.join("crates/big/tests");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::create_dir_all(&tests).unwrap();
    let items: String = (0..4000).map(|i| format!("pub fn item_{i}() {{}}\n")).collect();
    std::fs::write(src.join("lib.rs"), items).unwrap();
    std::fs::write(tests.join("t.rs"), "").unwrap();

    let mut child = Command::new(env!("CARGO_BIN_EXE_rsep-lint"))
        .arg("--json")
        .arg(&root)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("rsep-lint runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap()).read_line(&mut first).unwrap();
    // The reader (and with it the pipe) is dropped here.
    let output = child.wait_with_output().unwrap();
    let _ = std::fs::remove_dir_all(&root);

    assert_eq!(first, "[\n");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(output.status.code(), Some(1), "findings still exit 1: {stderr}");
}
