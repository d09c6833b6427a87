#!/usr/bin/env bash
#
# profile_pipeline.sh — reproducible profiling artifacts for the rsep
# throughput benches (cycle_loop, predictor_stack, trace_gen).
#
# Usage:
#   scripts/profile_pipeline.sh [--dry-run] [bench ...]
#
# For each bench this produces, under target/profiles/<UTC-stamp>/:
#   <bench>.log         the bench binary's own output (timings + JSON path)
#   BENCH_<bench>.json  the schema-v2 record, redirected away from the
#                       committed copies at the workspace root
#   <bench>.perf.txt    `perf report` summary        (when perf is present)
#   <bench>.svg         flamegraph                   (when flamegraph is present)
#   <bench>.strace.txt  `strace -c` syscall summary  (when strace is present)
#   manifest.txt        tool availability + the artifact list
#
# Missing tools degrade gracefully: the bench log and JSON are always
# written, and the manifest records which profilers were unavailable.

set -euo pipefail

usage() {
    sed -n '2,19p' "$0" | sed 's/^# \{0,1\}//'
}

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"

DRY_RUN=0
BENCHES=()
for arg in "$@"; do
    case "$arg" in
        --dry-run) DRY_RUN=1 ;;
        -h | --help)
            usage
            exit 0
            ;;
        -*)
            echo "profile_pipeline: unknown flag '$arg'" >&2
            exit 2
            ;;
        *) BENCHES+=("$arg") ;;
    esac
done
if [ "${#BENCHES[@]}" -eq 0 ]; then
    BENCHES=(cycle_loop predictor_stack trace_gen)
fi

STAMP="$(date -u +%Y%m%dT%H%M%SZ)"
OUT="target/profiles/$STAMP"

have() { command -v "$1" >/dev/null 2>&1; }

TOOLS=""
for tool in perf flamegraph strace; do
    if have "$tool"; then
        TOOLS="$TOOLS $tool=yes"
    else
        TOOLS="$TOOLS $tool=no"
    fi
done

if [ "$DRY_RUN" -eq 1 ]; then
    echo "profile_pipeline: dry run"
    echo "  benches:   ${BENCHES[*]}"
    echo "  output:    $OUT/"
    echo "  tools:    $TOOLS"
    exit 0
fi

mkdir -p "$OUT"
MANIFEST="$OUT/manifest.txt"
{
    echo "profile_pipeline run $STAMP"
    echo "benches: ${BENCHES[*]}"
    echo "tools:$TOOLS"
    echo "host: $(uname -srm)"
    echo
} > "$MANIFEST"

# Resolves the compiled bench executable for one bench target (the newest
# non-.d artifact cargo produced for it).
bench_bin() {
    find target/release/deps -maxdepth 1 -type f -name "$1-*" ! -name '*.d' \
        -newer Cargo.toml -printf '%T@ %p\n' 2>/dev/null |
        sort -rn | head -n 1 | cut -d' ' -f2-
}

note() {
    echo "$1" | tee -a "$MANIFEST"
}

for bench in "${BENCHES[@]}"; do
    note "=== $bench ==="

    # Keep the committed workspace-root records untouched: every bench
    # honours its RSEP_BENCH_*_JSON override.
    json="$OUT/BENCH_$bench.json"
    export RSEP_BENCH_JSON="$json"
    export RSEP_BENCH_PREDICTOR_JSON="$json"
    export RSEP_BENCH_TRACE_JSON="$json"

    note "building $bench (release)"
    cargo bench -p rsep-bench --bench "$bench" --no-run 2>> "$OUT/$bench.build.log"
    bin="$(bench_bin "$bench")"
    if [ -z "$bin" ]; then
        note "$bench: bench binary not found after build; skipping"
        continue
    fi
    note "binary: $bin"

    note "running $bench -> $bench.log"
    "$bin" --bench > "$OUT/$bench.log" 2>&1
    if [ -s "$json" ]; then
        note "record: BENCH_$bench.json"
    fi

    if have perf; then
        note "perf record -> $bench.perf.txt"
        if perf record -g -o "$OUT/$bench.perf.data" -- "$bin" --bench \
            > /dev/null 2>> "$OUT/$bench.build.log"; then
            perf report --stdio -i "$OUT/$bench.perf.data" \
                > "$OUT/$bench.perf.txt" 2>> "$OUT/$bench.build.log" || true
        else
            note "perf record failed (perf_event_paranoid?); see $bench.build.log"
        fi
    else
        note "perf unavailable; skipping CPU profile"
    fi

    if have flamegraph; then
        note "flamegraph -> $bench.svg"
        flamegraph -o "$OUT/$bench.svg" -- "$bin" --bench \
            > /dev/null 2>> "$OUT/$bench.build.log" ||
            note "flamegraph failed; see $bench.build.log"
    else
        note "flamegraph unavailable; skipping flamegraph"
    fi

    if have strace; then
        note "strace -c -> $bench.strace.txt"
        strace -c -f -o "$OUT/$bench.strace.txt" "$bin" --bench > /dev/null 2>&1 ||
            note "strace failed (ptrace restricted?)"
    else
        note "strace unavailable; skipping syscall summary"
    fi

    note ""
done

{
    echo "artifacts:"
    find "$OUT" -maxdepth 1 -type f ! -name manifest.txt -printf '  %f\n' | sort
} >> "$MANIFEST"

echo "profile_pipeline: artifacts in $OUT/"
