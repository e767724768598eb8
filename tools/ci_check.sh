#!/usr/bin/env bash
# One-shot CI gate: exactly what a PR must pass. CI and the local tier-1
# verify share this entry point so they can never drift apart.
#
#   1. configure + build with warnings-as-errors
#   2. ctest (unit/integration suites plus the tfl-lint tree scan & self-test)
#   3. tfl-analyze semantic gate as its own named stage: self-test proving
#      every rule still detects its fixtures, then the full-tree scan with
#      per-rule finding counts printed (baseline + obs vocabulary applied)
#   4. load bench + perf-regression gate: bench_load fast=1 and bench_serve
#      fast=1, diffed against bench/baselines/bench_load.fast.json,
#      bench_chain.fast.json AND bench_serve.fast.json by tfl-bench-diff
#      (>25% throughput regression or any deterministic-metric drift fails
#      the stage; the serve baseline pins daemon sessions/sec and admission
#      p50/p99; TFL_REGEN_BASELINE=1 refreshes all baselines after
#      intentional changes)
#   4b. serve drain gate: boot the real `tradefl serve` binary, drive it with
#      the bench's client-mode workload over a fifo, SIGTERM it mid-load,
#      and assert a clean drain (exit 0, drained bye line, zero orphaned
#      .tmp files) plus a clean re-attach run over the same state
#   5. optional clang-tidy stage over build/compile_commands.json — advisory,
#      skipped with a notice when clang-tidy is not installed
#   6. tracing-off build (TRADEFL_ENABLE_TRACING=OFF) proving the
#      instrumentation macros compile away cleanly
#   7. ASan+UBSan build of the same suite, zero reports tolerated
#   8. TSan build of the concurrency suites (ThreadPool/Parallel/Gemm/Metrics/
#      Chaos); tfl-bench-diff stays outside the filter — it is single-threaded
#      and never touches the ThreadPool
#   9. chaos suite re-run under ASan+UBSan (fault-injection paths: dropout,
#      corruption quarantine, retry exhaustion, solver recovery) as its own
#      named gate so a filter change can never silently drop it
#  10. kill-and-resume suite re-run under ASan+UBSan (snapshot corruption,
#      chain WAL replay, checkpoint/resume bit-identity, real SIGKILL against
#      the CLI binary) as its own named gate
#  11. equilibrium-oracle suite re-run under ASan+UBSan: the cached
#      unilateral-deviation evaluator held bit-identical to the direct
#      full-profile oracle (payoffs, NE gains, best responses, DBR/WPR/FIP
#      profiles) plus the RandomGameInvariants sweep, with contracts on so
#      every TFL_FINITE check in the evaluator runs
#  12. primal-oracle suite re-run under ASan+UBSan: the exact KKT CGBD
#      primal held to the test-only reference log-barrier within tolerances
#      and to the KKT conditions, the potential evaluator and the Benders
#      loop bit-identical to their full-profile references, plus the
#      accuracy-model inverse, matrix, GBD and CGBD tests, with contracts on
#
# Usage: tools/ci_check.sh [--no-sanitizers]
set -euo pipefail

cd "$(dirname "$0")/.."

run_sanitizers=1
for arg in "$@"; do
  case "$arg" in
    --no-sanitizers) run_sanitizers=0 ;;
    *) echo "usage: tools/ci_check.sh [--no-sanitizers]" >&2; exit 2 ;;
  esac
done

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

echo "=== ci: configure (warnings-as-errors) ==="
cmake -B build -S . -DTRADEFL_WARNINGS_AS_ERRORS=ON

echo "=== ci: build ==="
cmake --build build -j "$jobs"

echo "=== ci: ctest ==="
ctest --test-dir build --output-on-failure -j "$jobs"

echo "=== ci: tfl-analyze (semantic rules) ==="
# Also run as ctest entries above; repeated here as a named stage so the
# per-rule finding counts land in the CI log even on a green run.
./build/tools/tfl-analyze --self-test
./build/tools/tfl-analyze \
    --baseline tools/tfl_analyze_baseline.txt \
    --vocab tools/obs_vocab.txt \
    src

echo "=== ci: load bench + perf-regression gate ==="
# Fast-mode load bench (sessions + bulk chain transfers), then tfl-bench-diff
# against the checked-in baseline. Deterministic metrics (operations, phase
# counts) must match exactly; throughput may regress at most 25%, p50 latency
# at most 50%, p90 at most 200%; p99/max are informational (tools/bench_diff.h
# documents the per-metric policy).
# After an intentional workload or perf change, regenerate the baseline with:
#   TFL_REGEN_BASELINE=1 tools/ci_check.sh --no-sanitizers
bench_tmp=$(mktemp -d)
trap 'rm -rf "$bench_tmp"' EXIT
# The bench reports best-of-3 passes internally; the retry below additionally
# covers multi-second bursts of machine contention on shared runners. A real
# perf regression fails all three attempts.
bench_gate_ok=0
for attempt in 1 2 3; do
  ./build/bench/bench_load fast=1 out="$bench_tmp" csv="$bench_tmp"
  ./build/bench/bench_serve fast=1 out="$bench_tmp" root="$bench_tmp/serve-state"
  # Byzantine attack sweep: every per-cell metric (correct/attacked/rejected/
  # clipped counts) is deterministic and exact-match gated, so this doubles as
  # a semantic-drift detector for the aggregation rules.
  ./build/bench/bench_fl fast=1 out="$bench_tmp"
  if [ "${TFL_REGEN_BASELINE:-0}" = "1" ]; then
    cp "$bench_tmp/BENCH_load.json" bench/baselines/bench_load.fast.json
    cp "$bench_tmp/BENCH_chain.json" bench/baselines/bench_chain.fast.json
    cp "$bench_tmp/BENCH_serve.json" bench/baselines/bench_serve.fast.json
    cp "$bench_tmp/BENCH_fl.json" bench/baselines/bench_fl.fast.json
    echo "ci_check: regenerated bench/baselines/{bench_load,bench_chain,bench_serve,bench_fl}.fast.json"
  fi
  if ./build/tools/tfl-bench-diff --threshold "${TFL_BENCH_DIFF_THRESHOLD:-0.25}" \
      bench/baselines/bench_load.fast.json "$bench_tmp/BENCH_load.json" &&
     ./build/tools/tfl-bench-diff --threshold "${TFL_BENCH_DIFF_THRESHOLD:-0.25}" \
      bench/baselines/bench_chain.fast.json "$bench_tmp/BENCH_chain.json" &&
     ./build/tools/tfl-bench-diff --threshold "${TFL_BENCH_DIFF_THRESHOLD:-0.25}" \
      bench/baselines/bench_serve.fast.json "$bench_tmp/BENCH_serve.json" &&
     ./build/tools/tfl-bench-diff --threshold "${TFL_BENCH_DIFF_THRESHOLD:-0.25}" \
      bench/baselines/bench_fl.fast.json "$bench_tmp/BENCH_fl.json"; then
    bench_gate_ok=1
    break
  fi
  echo "ci_check: perf gate attempt $attempt failed, retrying"
done
if [ "$bench_gate_ok" -ne 1 ]; then
  echo "ci_check: perf-regression gate failed on all attempts" >&2
  exit 1
fi

echo "=== ci: serve drain gate ==="
# Boot the real daemon, drive it with the bench's client-mode workload, then
# SIGTERM it mid-load. A healthy drain exits 0 (parking whatever was still
# running) and leaves no orphaned temp files — every snapshot landed via the
# atomic tmp+rename path. A second, uninterrupted run must then finish every
# parked session from its checkpoints.
serve_tmp=$(mktemp -d)
serve_state="$serve_tmp/state"
serve_fifo="$serve_tmp/requests.fifo"
mkfifo "$serve_fifo"
# Hold a write end of the fifo open for the whole stage (read-write so the
# open can't block): the daemon never sees EOF, so SIGTERM is the only way
# it can exit — the gate tests the signal path even on a fast host that
# finishes the burst before the kill lands.
exec 9<> "$serve_fifo"
./build/tools/tradefl serve root="$serve_state" workers=2 \
    < "$serve_fifo" > "$serve_tmp/replies.log" 2>&1 &
serve_pid=$!
# Feed the workload slowly enough that the SIGTERM lands mid-load; the fifo
# writer runs in the background and is reaped with the server.
( ./build/bench/bench_serve client=1 fast=1 | while IFS= read -r line; do
    printf '%s\n' "$line"
    sleep 0.01
  done > "$serve_fifo" ) &
feeder_pid=$!
sleep 2
kill -TERM "$serve_pid"
serve_exit=0
wait "$serve_pid" || serve_exit=$?
kill "$feeder_pid" 2>/dev/null || true
wait "$feeder_pid" 2>/dev/null || true
exec 9>&-
if [ "$serve_exit" -ne 0 ]; then
  echo "ci_check: serve did not drain cleanly on SIGTERM (exit $serve_exit)" >&2
  cat "$serve_tmp/replies.log" >&2
  exit 1
fi
orphans=$(find "$serve_state" -name '*.tmp' | wc -l)
if [ "$orphans" -ne 0 ]; then
  echo "ci_check: serve drain left $orphans orphaned .tmp file(s)" >&2
  find "$serve_state" -name '*.tmp' >&2
  exit 1
fi
grep -q '"op": "bye", "drained": true' "$serve_tmp/replies.log" || {
  echo "ci_check: serve drain did not report a drained shutdown" >&2
  cat "$serve_tmp/replies.log" >&2
  exit 1
}
# Restart over the same state: every parked/pending session must complete.
./build/tools/tradefl serve root="$serve_state" workers=2 \
    < /dev/null > "$serve_tmp/resume.log" 2>&1
if grep -qE '"op": "(failed|evicted)"' "$serve_tmp/resume.log"; then
  echo "ci_check: re-attached serve run did not complete cleanly" >&2
  cat "$serve_tmp/resume.log" >&2
  exit 1
fi
rm -rf "$serve_tmp"
echo "ci_check: serve drained on SIGTERM and re-attached cleanly"

echo "=== ci: clang-tidy (optional) ==="
# Advisory generic checks (.clang-tidy) over the compile database that the
# main configure always exports. The repo-specific gates are tfl-lint and
# tfl-analyze above; this stage only runs where clang-tidy is installed.
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -quiet -p build "$(pwd)/src" "$(pwd)/tools" || {
    echo "ci_check: clang-tidy reported findings (advisory, not blocking)"
  }
elif command -v clang-tidy >/dev/null 2>&1; then
  find src tools -name '*.cpp' -print0 |
    xargs -0 -n 1 -P "$jobs" clang-tidy -quiet -p build || {
      echo "ci_check: clang-tidy reported findings (advisory, not blocking)"
    }
else
  echo "ci_check: clang-tidy not installed, skipping advisory stage"
fi

echo "=== ci: tracing-off build ==="
cmake -B build-notrace -S . -DTRADEFL_WARNINGS_AS_ERRORS=ON \
      -DTRADEFL_ENABLE_TRACING=OFF -DTRADEFL_BUILD_BENCH=OFF \
      -DTRADEFL_BUILD_EXAMPLES=OFF
cmake --build build-notrace -j "$jobs"
ctest --test-dir build-notrace --output-on-failure -j "$jobs"

if [ "$run_sanitizers" -eq 1 ]; then
  echo "=== ci: sanitizer pass ==="
  tools/run_sanitizers.sh asan-ubsan tsan

  echo "=== ci: chaos suite (asan-ubsan) ==="
  # Fault-injection robustness tests under ASan+UBSan: dropout/quarantine in
  # FL, retry/abort on chain, solver recovery, and the thread-count replay.
  ctest --test-dir build-asan-ubsan --output-on-failure -j "$jobs" \
        -R 'Chaos|Retry|Fault|GbdFaults|Serve'

  echo "=== ci: byzantine-chaos suite (asan-ubsan) ==="
  # Byzantine-resilience gate: robust aggregation semantics and determinism,
  # adversarial fault kinds in FedAvg, the strategic-deviation audit,
  # and the mid-attack checkpoint/resume contract — then one real CLI session
  # under a mixed attack plan with a robust rule, end to end through
  # parse_fault_plan, training, the audit, and on-chain settlement.
  ctest --test-dir build-asan-ubsan --output-on-failure -j "$jobs" \
        -R 'Byzantine|RobustAgg|FedAvgFaults|DeviationAudit'
  ./build-asan-ubsan/tools/tradefl session orgs=4 seed=3 train=1 rounds=2 \
      sample_scale=0.12 agg=trimmed:1 faults=seed:11,signflip:1,freeride:1 \
      > /dev/null

  echo "=== ci: kill-and-resume suite (asan-ubsan) ==="
  # Durability gate: snapshot corruption fails closed, the chain WAL replays
  # torn tails, FedAvg/CGBD/session resume bit-identically, and the
  # real CLI binary survives injected crashes and a genuine SIGKILL.
  ctest --test-dir build-asan-ubsan --output-on-failure -j "$jobs" \
        -R 'KillResume|Snapshot|ChainWal|ChainState|Checkpoint|Session\.C'

  echo "=== ci: snapshot-codec suite (asan-ubsan) ==="
  # Persisted-format gate: the golden bytes of every format (FL checkpoints,
  # CGBD cuts, session and registry snapshots, chain state, WAL frames,
  # contract state, tx/block-header hash preimages, ABI), the codec round
  # trips, the fail-closed decoders (oversized fixed fields, hostile counts,
  # out-of-range enums and bools) and the kill-and-resume contract.
  ctest --test-dir build-asan-ubsan --output-on-failure -j "$jobs" \
        -R 'GoldenBytes|CodecFailClosed|RoundTrip|KillResume'

  echo "=== ci: equilibrium-oracle suite (asan-ubsan) ==="
  # Bit-identity gate for the NE check and best responses: the deviation
  # evaluator against the full-profile oracle (tests/core/payoff_oracle.h),
  # memcmp-equal, on toy, gamma=0, rho=0 and all four accuracy-model games,
  # the former CGBD NE miss, and every RandomGameInvariants sweep case.
  ctest --test-dir build-asan-ubsan --output-on-failure -j "$jobs" \
        -R 'PayoffOracle|RandomGameInvariants'

  echo "=== ci: primal-oracle suite (asan-ubsan) ==="
  # The CGBD primal: the exact KKT maximizer against the reference log-barrier
  # (tests/core/barrier_oracle.h) at every tuple CGBD visits, within stated
  # tolerances in U, d and u, and against the KKT conditions themselves; the
  # fixed-frequency potential and the Benders loop memcmp-equal to their
  # full-profile references; the poisoned-primal re-solve bit-equal to the
  # clean run; plus the AccuracyModel*, Matrix.*, Gbd* and Cgbd* tests.
  ctest --test-dir build-asan-ubsan --output-on-failure -j "$jobs" \
        -R 'PrimalOracle|AccuracyModel|Gbd|Cgbd|Matrix'
fi

echo "ci_check: all gates passed"
