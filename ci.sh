#!/usr/bin/env bash
# Tier-1 gate for the OZZ reproduction workspace.
#
# The workspace is hermetic: zero crates-io dependencies, every build step
# must succeed with no network access. `--offline` is passed explicitly
# (belt) even though `.cargo/config.toml` already forces offline mode
# (suspenders), so the gate holds in a checkout that strips dotfiles.
set -euo pipefail
cd "$(dirname "$0")"

echo "== tier-1: release build (offline) =="
cargo build --release --offline

echo "== tier-1: test suite (offline) =="
cargo test -q --offline

echo "== workspace tests (all crates, offline) =="
cargo test --workspace -q --offline

echo "== memory models: litmus + LKMM properties under tso/pso/arm =="
# The TSO run repeats the default-env run on purpose: it pins that an
# explicit OZZ_MEMMODEL=tso is byte-identical to leaving it unset. The
# golden-trace gate below stays on the default (TSO) model — goldens are a
# TSO contract.
for m in tso pso arm; do
    echo "--  OZZ_MEMMODEL=$m"
    OZZ_MEMMODEL=$m cargo test -q --offline -p litmus
    OZZ_MEMMODEL=$m cargo test -q --offline --test lkmm_properties
done

echo "== restore differential (restore == fresh boot, all models) =="
cargo test -q --offline --test restore_differential

echo "== rustdoc (all crates, no warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace -q

echo "== campaign determinism (work-stealing merge, worker invariance) =="
cargo test -q --offline --test parallel_determinism

echo "== checkpoint/resume equivalence (kill + fresh-process resume) =="
cargo test -q --offline --test checkpoint_resume

# The bench smokes below write their JSON into the working directory. They
# run from a scratch directory so the committed BENCH_*.json files (full
# runs, with their own arguments) are never overwritten by smoke runs.
BENCH_DIR=target/ci-bench
mkdir -p "$BENCH_DIR"

echo "== campaign scaling smoke (8-worker steal dispatch + makespan model) =="
cargo build --release --offline -p bench --bin parallel_scaling
(cd "$BENCH_DIR" && ../release/parallel_scaling)
cat "$BENCH_DIR/BENCH_parallel_scaling.json"

echo "== mti throughput smoke (fresh vs dirty-journal pool) =="
cargo build --release --offline -p bench --bin mti_throughput
(cd "$BENCH_DIR" && ../release/mti_throughput 200 1)
cat "$BENCH_DIR/BENCH_mti_throughput.json"
grep -q '"stepped_dirty_mtis_per_sec"' "$BENCH_DIR/BENCH_mti_throughput.json" \
    || { echo "error: dirty-restore arm missing from BENCH_mti_throughput.json" >&2; exit 1; }
grep -q '"restore_full_fallbacks": 0' "$BENCH_DIR/BENCH_mti_throughput.json" \
    || { echo "error: dirty-restore arm took a full-restore fallback" >&2; exit 1; }

echo "== record/replay fidelity + oracle matrix + golden traces =="
cargo test -q --offline --test trace_replay --test oracle_matrix --test golden_trace

echo "== triage battery (minimize + bisect, all models) =="
# The workspace run above already covers the default (tso) cell; the loop
# pins every model explicitly, including the Arm cells where attribution
# degrades to a principled Inconclusive.
for m in tso pso arm; do
    echo "--  OZZ_MEMMODEL=$m"
    OZZ_MEMMODEL=$m cargo test -q --offline --test triage_minimal
done

echo "== trace minimization bench (full corpus shrink + replay cost) =="
cargo build --release --offline -p bench --bin trace_minimize
(cd "$BENCH_DIR" && ../release/trace_minimize)
cat "$BENCH_DIR/BENCH_trace_minimize.json"
for key in events_before_median events_after_median reduction_pct_median \
    replays_median minimize_wall_ms_median; do
    grep -q "\"$key\"" "$BENCH_DIR/BENCH_trace_minimize.json" \
        || { echo "error: $key missing from BENCH_trace_minimize.json" >&2; exit 1; }
done

echo "== bounded exhaustive explorer smoke (hint-generator differential) =="
cargo run -q --release --offline -p modelcheck --bin explore -- watch_queue

echo "== trace replay bench (search vs replay) =="
cargo build --release --offline -p bench --bin trace_replay
(cd "$BENCH_DIR" && ../release/trace_replay 30000 3)
cat "$BENCH_DIR/BENCH_trace_replay.json"
for key in search_ms replay_ms speedup; do
    grep -q "\"$key\"" "$BENCH_DIR/BENCH_trace_replay.json" \
        || { echo "error: $key missing from BENCH_trace_replay.json" >&2; exit 1; }
done

echo "== formatting =="
cargo fmt --check

echo "== deprecation gate (workspace builds clean with -D deprecated) =="
# Last build step on purpose: changing RUSTFLAGS re-keys every compilation
# unit, so running this mid-script would force a second full rebuild of
# everything after it.
RUSTFLAGS="-D deprecated" cargo build --workspace --all-targets --offline

echo "== hermeticity: no crates-io dependencies declared =="
if grep -rn 'rand = \|parking_lot\|crossbeam\|proptest\|criterion =' \
    Cargo.toml crates/*/Cargo.toml; then
    echo "error: external dependency declared in a manifest" >&2
    exit 1
fi

echo "ci.sh: all gates passed"
