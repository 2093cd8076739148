#!/usr/bin/env bash
# Offline CI gate for the mdv workspace.
#
# The build is hermetic by policy: every dependency is an in-tree path
# crate (`mdv-runtime` supplies the PRNG / channels / locks, `mdv-testkit`
# the property-test and bench harness), so everything here runs with
# `--offline` and must succeed on a machine with no network access and a
# cold crates.io cache.
#
# Usage: ci/check.sh [--quick]
#   --quick  skip the release build and example smoke runs (debug gate only)
#
# Environment:
#   MDV_CI_SEEDS  space-separated harness seeds for the replay steps
#                 (default "1 31337 20020226"); e.g.
#                 MDV_CI_SEEDS="7" ci/check.sh --quick for a fast one-seed run

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

# Pinned harness seeds for the property replays below, overridable for
# local bisection without editing this script.
read -r -a CI_SEEDS <<< "${MDV_CI_SEEDS:-1 31337 20020226}"

# Per-step wall-clock accounting: step() closes the previous step's timer,
# and the summary at the bottom prints one line per step so slow steps are
# visible in CI logs without log-timestamp archaeology.
STEP_NAMES=()
STEP_SECS=()
CURRENT_STEP=""
STEP_START=0

finish_step() {
  if [[ -n "$CURRENT_STEP" ]]; then
    STEP_NAMES+=("$CURRENT_STEP")
    STEP_SECS+=("$(( $(date +%s) - STEP_START ))")
  fi
}

step() {
  finish_step
  CURRENT_STEP="$*"
  STEP_START="$(date +%s)"
  printf '\n==> %s\n' "$*"
}

print_timing_summary() {
  finish_step
  CURRENT_STEP=""
  printf '\n==> per-step wall clock\n'
  local i
  for i in "${!STEP_NAMES[@]}"; do
    printf '%6ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
  done
}

# ---------------------------------------------------------------------------
step "shellcheck ci/check.sh"
# The gate lints itself when shellcheck is installed; the hermetic builder
# image may not carry it, in which case the step skips rather than fails.
if command -v shellcheck >/dev/null 2>&1; then
  shellcheck ci/check.sh
  echo "ok: shellcheck clean"
else
  echo "skip: shellcheck not installed"
fi

# ---------------------------------------------------------------------------
step "dependency policy: deny external crates"
# The deny-list guards against crates.io dependencies reappearing in any
# manifest. Matches dependency lines like `rand = "0.8"` or
# `criterion = { version = ... }` at the start of a line. `target/` is
# excluded: build output may embed manifest copies we do not police.
DENYLIST='rand|proptest|criterion|crossbeam|parking_lot|serde|tokio|rayon|libc'
if grep -RInE "^[[:space:]]*(${DENYLIST})[-_a-zA-Z0-9]*[[:space:]]*=" \
    --include=Cargo.toml --exclude-dir=target . ; then
  echo "ERROR: external crate dependency found in a Cargo.toml (see above)." >&2
  exit 1
fi
if [[ -f Cargo.lock ]] && grep -nE "^name = \"(${DENYLIST})" Cargo.lock; then
  echo "ERROR: external crate present in Cargo.lock (see above)." >&2
  exit 1
fi
if grep -n 'source = "registry' Cargo.lock; then
  echo "ERROR: Cargo.lock references a registry source; build is not hermetic." >&2
  exit 1
fi
echo "ok: no denied crates in manifests or lockfile"

# ---------------------------------------------------------------------------
step "dependency policy: cargo metadata lists only workspace path crates"
# Every package in the resolved graph must live under this repository; any
# registry/git package means the hermetic guarantee broke.
META="$(mktemp)"
trap 'rm -f "$META"' EXIT
cargo metadata --offline --format-version 1 > "$META"
python3 - "$PWD" "$META" <<'PY'
import json, sys
root, meta_path = sys.argv[1], sys.argv[2]
with open(meta_path) as fh:
    meta = json.load(fh)
bad = [p["id"] for p in meta["packages"]
       if p.get("source") is not None or not p["manifest_path"].startswith(root)]
if bad:
    sys.exit("ERROR: non-path dependencies in cargo metadata:\n  " + "\n  ".join(bad))
print(f"ok: {len(meta['packages'])} packages, all path crates in the workspace")
PY

# ---------------------------------------------------------------------------
step "docs policy: BENCH_*.json files and EXPERIMENTS.md cross-reference"
# Checked-in benchmark result files and the experiment write-ups must not
# drift apart: every BENCH_*.json in the repo root is documented in
# EXPERIMENTS.md, and every BENCH_*.json name EXPERIMENTS.md mentions
# exists as a checked-in file.
BENCH_COUNT=0
for f in BENCH_*.json; do
  [[ -e "$f" ]] || { echo "ERROR: no BENCH_*.json files found in repo root" >&2; exit 1; }
  if ! grep -q "$f" EXPERIMENTS.md; then
    echo "ERROR: $f is checked in but never mentioned in EXPERIMENTS.md" >&2
    exit 1
  fi
  BENCH_COUNT=$((BENCH_COUNT + 1))
done
while read -r name; do
  if [[ ! -f "$name" ]]; then
    echo "ERROR: EXPERIMENTS.md references $name but the file is not checked in" >&2
    exit 1
  fi
done < <(grep -oE 'BENCH_[a-z_]+\.json' EXPERIMENTS.md | sort -u)
echo "ok: BENCH_*.json files and EXPERIMENTS.md agree ($BENCH_COUNT files)"

# ---------------------------------------------------------------------------
step "cargo fmt --check"
cargo fmt --all --check

# ---------------------------------------------------------------------------
step "cargo build (debug, offline)"
cargo build --offline --workspace --all-targets

# ---------------------------------------------------------------------------
step "cargo clippy (offline, all targets, -D warnings)"
# Lint-clean by policy, tests and benches included; runs offline against
# the same hermetic graph as the build.
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "ok: clippy clean"

# ---------------------------------------------------------------------------
step "cargo test (offline, whole workspace)"
cargo test -q --offline --workspace

# ---------------------------------------------------------------------------
step "mdv-shell tests: 20 repeats with parallel test threads"
# The shell tests write schema and state files to disk; a shared scratch
# directory once let one test delete another's files mid-run. Repeating the
# binary's tests under the default parallel test threads makes such a race
# fail CI instead of failing one run in three.
for run in $(seq 1 20); do
  cargo test -q --offline --bin mdv-shell >/dev/null \
    || { echo "ERROR: mdv-shell tests failed on repeat $run" >&2; exit 1; }
done
echo "ok: mdv-shell tests passed 20 of 20 repeats"

# ---------------------------------------------------------------------------
step "fault-matrix smoke: fault_sim across fixed seeds"
# Replays the fault-injection property under pinned harness seeds so
# regressions in the at-least-once protocol show up with a reproducible
# seed in the failure message (rerun locally with the printed MDV_PROP_SEED).
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=25 \
    cargo test -q --offline --test fault_sim >/dev/null
  echo "ok: fault_sim @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "crash-restart replay: durable recovery across fixed seeds"
# Replays the crash/restart property (WAL + snapshot recovery with rule
# churn, torn-tail injection, and the cache-consistency oracle) under the
# same pinned seeds as the fault matrix; failures print the seed to rerun.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=15 \
    cargo test -q --offline --test crash_restart >/dev/null
  echo "ok: crash_restart @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "storage-torture replay: disk faults and crash-point sweeps across fixed seeds"
# Replays the storage fault-injection suite (DESIGN.md §12) under the pinned
# seeds: the exhaustive crash-point sweeps and the golden byte-identity
# fixture are deterministic and run every time; the randomized
# detected-or-consistent property replays per seed; failures print the seed
# to rerun.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=12 \
    cargo test -q --offline --test storage_torture >/dev/null
  echo "ok: storage_torture @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "backbone-repair replay: replication, anti-entropy, failover across fixed seeds"
# Replays the backbone reconvergence property (reliable MDP↔MDP replication,
# anti-entropy repair, and LMR failover through a fail/heal cycle, checked
# by the cache-consistency oracle) under the same pinned seeds.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=15 \
    cargo test -q --offline --test backbone_repair >/dev/null
  echo "ok: backbone_repair @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "placement replay: partitioned replication across fixed seeds"
# Replays the placement properties (randomized fail/heal schedules at
# R ∈ {1,2,3} over 3–5 MDPs checked by the shadow-deployment oracle, plus
# Raft replicating the placement table through the log; DESIGN.md §11)
# under the same pinned seeds; failures print the seed to rerun.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=15 \
    cargo test -q --offline --test placement >/dev/null
  echo "ok: placement @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "raft-safety replay: consensus invariants under seeded fault schedules"
# Replays the Raft safety properties (Election Safety, Log Matching, Leader
# Completeness, State Machine Safety under randomized drop/dup/partition
# schedules, plus voter crash-restarts mid-election) under the same pinned
# seeds; failures print the seed to rerun (DESIGN.md §9).
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=50 \
    cargo test -q --offline --test raft_safety >/dev/null
  echo "ok: raft_safety @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "parallel-filter determinism: publications invariant across thread counts"
# The parallel batch filter must emit byte-identical publications, traces,
# and stats for every thread count (DESIGN.md §5); the fault matrix above
# depends on it. Pinned seed for a reproducible failure message.
MDV_PROP_SEED=20020226 MDV_PROP_CASES=50 \
  cargo test -q --offline -p mdv-filter --test parallel_determinism >/dev/null
echo "ok: parallel_determinism @ MDV_PROP_SEED=20020226"

# ---------------------------------------------------------------------------
step "sharded-filter determinism: publications invariant across shard counts"
# The sharded filter (DESIGN.md §8) must emit byte-identical publications
# and canonical traces for every shard count 1/2/4/8 × thread count, with
# the shards=1 wrapper verbatim-identical to the bare engine. Every seeded
# scenario above relies on this invariance, so it gets the full seed matrix.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=25 \
    cargo test -q --offline -p mdv-filter --test shard_determinism >/dev/null
  echo "ok: shard_determinism @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "matching-equivalence replay: indexed route vs scan across fixed seeds"
# Replays the matching-equivalence properties (use_trigger_index on emits
# byte-identical publications and traces vs the table-scan reference,
# under subscription churn and composed with threads and the update/delete
# protocol; DESIGN.md §10) under the pinned seed matrix.
for seed in "${CI_SEEDS[@]}"; do
  MDV_PROP_SEED="$seed" MDV_PROP_CASES=25 \
    cargo test -q --offline -p mdv-filter --test matching_equivalence >/dev/null
  echo "ok: matching_equivalence @ MDV_PROP_SEED=$seed"
done

# ---------------------------------------------------------------------------
step "cargo doc: public filter API (mdv-filter, -D warnings)"
# The filter crate is the paper's contribution and its public API is the
# documented surface (rustdoc'd module docs + runnable examples); gate it
# separately so a missing doc or broken intra-doc link names the crate.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps -p mdv-filter -q
echo "ok: mdv-filter rustdoc clean"

# ---------------------------------------------------------------------------
step "cargo doc (offline, no deps)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace -q

if [[ "$QUICK" == "0" ]]; then
  # -------------------------------------------------------------------------
  step "cargo build --release (offline)"
  cargo build --offline --release

  # -------------------------------------------------------------------------
  step "end-to-end benchmark: mdvbench smoke tests (own workspace)"
  # mdvbench drives the public API (ShardedFilterEngine::shard_count/shard/
  # shard_storages, MdvSystem::durable_on/add_*_durable_on). Building and
  # testing it here turns an API break into a CI failure rather than a
  # failed benchmark run.
  cargo test --release --offline --manifest-path mdvbench/Cargo.toml
  echo "ok: mdvbench smoke tests"

  # -------------------------------------------------------------------------
  step "example smoke pass"
  cargo run --offline --release --example quickstart >/dev/null
  echo "ok: quickstart"
  cargo run --offline --release --example paper_walkthrough >/dev/null
  echo "ok: paper_walkthrough"
  cargo run --offline --release --example placement_routing >/dev/null
  echo "ok: placement_routing"

  # -------------------------------------------------------------------------
  step "bench harness smoke pass (MDV_BENCH_ITERS=1)"
  MDV_BENCH_ITERS=1 cargo bench --offline -p mdv-bench >/dev/null
  echo "ok: figures bench harness"

  # -------------------------------------------------------------------------
  step "figures smoke pass with --threads 2 (quick mode)"
  # Exercises the threaded sweep path end to end. fig12 (not thread-scaling)
  # so the smoke never clobbers the checked-in BENCH_filter_scaling.json;
  # the thread-scaling determinism gate itself is unit-tested in mdv-bench.
  cargo run --offline --release -p mdv-bench --bin figures -- \
    fig12 --threads 2 >/dev/null
  echo "ok: figures fig12 --threads 2"

  # -------------------------------------------------------------------------
  step "figures smoke pass with --backend durable"
  # Exercises the WAL-backed sweep path (group commit + fsync on the
  # measured path) end to end. fig12 (not wal-overhead) so the smoke never
  # clobbers the checked-in BENCH_wal_overhead.json; the backend-equality
  # gate itself is unit-tested in mdv-bench.
  cargo run --offline --release -p mdv-bench --bin figures -- \
    fig12 --backend durable >/dev/null
  echo "ok: figures fig12 --backend durable"

  # -------------------------------------------------------------------------
  step "figures smoke pass: recovery-torture (disk-fault recovery study)"
  # Exercises the storage-recovery study end to end (fault-injecting VFS,
  # rotating crash modes, reopen with the zero-committed-write-loss gate;
  # DESIGN.md §12). Runs from a scratch CWD so the quick-mode run never
  # clobbers the checked-in BENCH_recovery.json (regenerate that with
  # `figures recovery-torture --full`).
  ROOT="$PWD"
  SMOKE_DIR="$(mktemp -d)"
  (cd "$SMOKE_DIR" && cargo run --offline --release \
    --manifest-path "$ROOT/Cargo.toml" -p mdv-bench --bin figures -- \
    recovery-torture >/dev/null)
  [[ -s "$SMOKE_DIR/BENCH_recovery.json" ]] \
    || { echo "ERROR: recovery-torture wrote no results" >&2; exit 1; }
  rm -rf "$SMOKE_DIR"
  echo "ok: figures recovery-torture"

  # -------------------------------------------------------------------------
  step "figures smoke pass: backbone-repair (3-MDP fail/heal study)"
  # Exercises the fault-recovery study end to end (failover, heal,
  # anti-entropy repair on a 3-MDP topology). Runs from a scratch CWD so the
  # quick-mode run never clobbers the checked-in BENCH_backbone_repair.json.
  ROOT="$PWD"
  SMOKE_DIR="$(mktemp -d)"
  (cd "$SMOKE_DIR" && cargo run --offline --release \
    --manifest-path "$ROOT/Cargo.toml" -p mdv-bench --bin figures -- \
    backbone-repair >/dev/null)
  rm -rf "$SMOKE_DIR"
  echo "ok: figures backbone-repair"

  # -------------------------------------------------------------------------
  step "figures smoke pass: backbone-consensus (LWW vs Raft study)"
  # Exercises the consistency-vs-availability study end to end on a 3-MDP
  # topology in both replication modes: steady-state write latency, a
  # leader fail/heal cycle (committed write survives, LMR re-homes, zero
  # anti-entropy rounds), and the permanent-partition contrast. Scratch CWD
  # so the quick-mode run never clobbers BENCH_backbone_consensus.json.
  ROOT="$PWD"
  SMOKE_DIR="$(mktemp -d)"
  (cd "$SMOKE_DIR" && cargo run --offline --release \
    --manifest-path "$ROOT/Cargo.toml" -p mdv-bench --bin figures -- \
    backbone-consensus >/dev/null)
  rm -rf "$SMOKE_DIR"
  echo "ok: figures backbone-consensus"

  # -------------------------------------------------------------------------
  step "figures smoke pass: shard-scaling (quick mode, scratch CWD)"
  # Exercises the sharded sweep path end to end, including its internal
  # byte-identity gate against the shards=1 reference. Runs from a scratch
  # CWD so the quick-mode run never clobbers the checked-in
  # BENCH_shard_scaling.json (regenerate that with `figures shard-scaling
  # --full`).
  ROOT="$PWD"
  SMOKE_DIR="$(mktemp -d)"
  (cd "$SMOKE_DIR" && cargo run --offline --release \
    --manifest-path "$ROOT/Cargo.toml" -p mdv-bench --bin figures -- \
    shard-scaling >/dev/null)
  rm -rf "$SMOKE_DIR"
  echo "ok: figures shard-scaling"

  # -------------------------------------------------------------------------
  step "figures smoke pass: matching-scaling (quick mode, scratch CWD)"
  # Exercises the trigger-matching ablation end to end, including its
  # internal byte-identity gates (publications and Figure-9 traces of the
  # indexed route vs the scan reference). Runs from a scratch CWD so the
  # quick-mode run never clobbers
  # the checked-in BENCH_matching_scaling.json (regenerate that with
  # `figures matching-scaling --full`).
  ROOT="$PWD"
  SMOKE_DIR="$(mktemp -d)"
  (cd "$SMOKE_DIR" && cargo run --offline --release \
    --manifest-path "$ROOT/Cargo.toml" -p mdv-bench --bin figures -- \
    matching-scaling >/dev/null)
  rm -rf "$SMOKE_DIR"
  echo "ok: figures matching-scaling"

  # -------------------------------------------------------------------------
  step "figures smoke pass: placement-scaling (quick mode, scratch CWD)"
  # Exercises the partitioned-replication study end to end, including its
  # internal gates (exactly min(R,N) copies per document, placement-digest
  # traffic flowing, and the R=all cell byte-identical to the legacy
  # placement-off backbone; DESIGN.md §11). Runs from a scratch CWD so the
  # quick-mode run never clobbers the checked-in
  # BENCH_placement_scaling.json (regenerate that with `figures
  # placement-scaling --full`).
  ROOT="$PWD"
  SMOKE_DIR="$(mktemp -d)"
  (cd "$SMOKE_DIR" && cargo run --offline --release \
    --manifest-path "$ROOT/Cargo.toml" -p mdv-bench --bin figures -- \
    placement-scaling >/dev/null)
  [[ -s "$SMOKE_DIR/BENCH_placement_scaling.json" ]] \
    || { echo "ERROR: placement-scaling wrote no results" >&2; exit 1; }
  rm -rf "$SMOKE_DIR"
  echo "ok: figures placement-scaling"
fi

print_timing_summary
printf '\n==> all checks passed\n'
