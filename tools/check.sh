#!/usr/bin/env bash
# Repo check: tier-1 verify (full build with warnings as errors + ctest),
# then the end-to-end
# benchmark's self-tests against this tree, an
# address/UB-sanitizer build of the concurrency-heavy tests, the
# post-filter's contour tests and a hostile-input fuzz smoke, the
# worker pool, bricked select, post-filter ranges and overload/cluster
# tests under tsan, a
# storage-fault stage (retry ladder under tsan, seeded disk-fault
# chaos with a bit-rot round trip), a chaos stage (seeded fault
# schedules under tsan plus a real TCP kill -> restart -> serves-again
# exercise), and a
# stream stage (chunked replies + cursor resume + cancel under
# asan/tsan, chunk-boundary kill chaos, a TCP resume-after-kill e2e,
# and the <2% streaming-overhead guard).
#
#   tools/check.sh            # everything
#   SKIP_ASAN=1 tools/check.sh  # tier-1 only
#
# Every stage is fail-fast: the first failing command aborts the run
# and the ERR trap names the stage that died.
set -euo pipefail
cd "$(dirname "$0")/.."
ROOT="$PWD"

CURRENT_STAGE="(startup)"
stage() {
  CURRENT_STAGE="$1"
  echo "== $1 =="
}
trap 'echo "FAILED stage: $CURRENT_STAGE" >&2' ERR

# Fails the current stage when an overhead guard's log holds a [warn]
# line. (A bare `! grep -q` cannot: set -e ignores the status of a
# negated command.)
fail_on_warn() {
  if grep -q '\[warn\]' "$1"; then
    echo "overhead guard over budget (see [warn] above)" >&2
    return 1
  fi
}

# Runs an overhead-guard bench (with optional VAR=value prefixes) in a
# fresh temporary directory: each bench writes its table to ./results/,
# and a guard's reduced run must not replace the committed results/.
run_guard() {
  local dir status=0
  dir="$(mktemp -d)"
  (cd "$dir" && env "$@") || status=$?
  rm -rf "$dir"
  return "$status"
}

stage "tier-1: configure + build (warnings as errors) + ctest"
cmake -B build -S . -DVIZNDP_WERROR=ON > /dev/null
cmake --build build -j"$(nproc)"
ctest --test-dir build --output-on-failure -j"$(nproc)"

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  stage "bench self-test: e2e_bench built against this tree"
  # The benchmark links NdpServer, NdpClient and ShardedNdpClient, so an
  # API or wire change that breaks it fails here, not in the perf gate.
  # --selftest checks the reply frame counts per shape (one-shot: one
  # frame; streamed: header, chunks, terminal), the span reducer, and
  # the full-read oracle, without the 256^3 timed run.
  bash e2e_bench/run.sh --selftest

  stage "asan/ubsan: obs + net + rpc + fault + io + integrity + trace + storage + ndp + compress + brick + contour + cluster + chaos + fuzz"
  cmake --preset asan > /dev/null
  cmake --build build-asan -j"$(nproc)" --target obs_test net_test rpc_test \
    fault_test fuzz_test io_test integrity_test trace_test storage_test \
    store_fault_test ndp_test compress_test brick_test \
    contour_test rectilinear_test cluster_test chaos_test vizndp_tool
  ./build-asan/tests/obs_test
  ./build-asan/tests/net_test
  ./build-asan/tests/rpc_test
  ./build-asan/tests/fault_test
  ./build-asan/tests/fuzz_test
  # The VND header parse and every codec's VND round trip, next to the
  # hostile headers integrity_test feeds the same parser.
  ./build-asan/tests/io_test
  ./build-asan/tests/integrity_test
  ./build-asan/tests/trace_test
  # The storage-fault suites (`ctest -L storage`): injected EIO/rot/short
  # reads and the typed retry ladder — heavy on buffer slicing, so asan
  # watches every byte.
  ./build-asan/tests/storage_test
  ./build-asan/tests/store_fault_test
  # The one-shot reply's decode moves the payload out of its chunk map
  # (StreamDecoder::Feed) and CRC-checks it, as a stream's chunks are.
  ./build-asan/tests/ndp_test
  # The LZ4 decoder's fixed-width copies run up to its margins at the
  # ends of each buffer, against the oracle decoder; and the bricked
  # select decodes every brick into one reused buffer and classifies it
  # in 64-point words that end at each brick's edge.
  ./build-asan/tests/compress_test
  ./build-asan/tests/brick_test
  # The post-filter reads the validity bitmap 64 bits at a time at
  # unaligned offsets, up to its pad word, and its passes fill output
  # slots sized from their counts, on uniform and stretched grids, in 3D
  # and 2D.
  ./build-asan/tests/contour_test
  ./build-asan/tests/rectilinear_test
  # The replica walk's attempts run on their own threads against a
  # shared Walk that a parked loser may outlive its SubFetch with; a
  # use-after-free there is asan's to catch, not tsan's.
  ./build-asan/tests/cluster_test
  ./build-asan/tests/chaos_test
  # Fuzz smoke under the sanitizers: 1500 mutations x 7 decoder targets
  # (> 10k hostile inputs) at a fixed seed, so a CI failure replays
  # byte-for-byte with the same command.
  ./build-asan/tools/vizndp_tool fuzz --seed 1 --iters 1500

  stage "tsan: pool + bricked select + post-filter + overload + rpc + trace + cluster (part/range/admission/drain/merge/hedge races)"
  cmake --preset tsan > /dev/null
  cmake --build build-tsan -j"$(nproc)" --target common_test brick_test \
    integrity_test contour_test overload_test rpc_test trace_test \
    cluster_test chaos_test vizndp_tool
  # The worker pool (claims, the caller's fallback, nested calls, the
  # lowest error) and the bricked select's parts over it: batches of one
  # to four parts, and rotted bricks settled across parts.
  ./build-tsan/tests/common_test
  ./build-tsan/tests/brick_test
  ./build-tsan/tests/integrity_test
  # The post-filter's count and emit passes over ranges of complete
  # cells on the same pool: every split point, and a call from a pool
  # thread.
  ./build-tsan/tests/contour_test
  ./build-tsan/tests/overload_test
  ./build-tsan/tests/rpc_test
  ./build-tsan/tests/trace_test
  # The sharded-serving suite (`ctest -L cluster`) is the most
  # thread-hostile code in the tree: hedge races, loser parking, and
  # concurrent failover all run under tsan here.
  ./build-tsan/tests/cluster_test

  stage "storage faults: retry ladder under tsan, seeded disk-fault chaos"
  cmake --build build-tsan -j"$(nproc)" --target store_fault_test
  # The retry ladder's backoff and the injector's scripted faults run
  # under tsan. The disk-fault chaos schedule (store EIO storms,
  # slow-disk windows, and per schedule a forced bit-rot -> typed
  # CorruptDataError -> clean re-Put -> oracle round trip) replays
  # exactly with the same seed.
  ./build-tsan/tests/store_fault_test
  ./build-tsan/tools/vizndp_tool chaos --seed 80886 --schedules 2 --steps 8

  stage "chaos: seeded kill/restart/delay/corrupt schedules under tsan"
  # The restart suite (reconnecting channels vs. fetch path vs. testbed
  # teardown) and a fixed-seed chaos run: every fetch bit-identical to
  # the single-server oracle while nodes die, restart, stall, and shed.
  # A failure replays exactly with the same seed.
  ./build-tsan/tests/chaos_test
  ./build-tsan/tools/vizndp_tool chaos --seed 7 --schedules 3

  stage "stream: chunked replies, resume, cancel under asan/tsan + chunk-boundary chaos"
  # The streaming-reply suite (`ctest -L stream`): chunked fetch, cursor
  # resume across injected mid-stream faults, cancellation accounting,
  # and the stall deadline — under asan (payload slicing, CRC checks)
  # and tsan (the cancel frame races the emitting handler by design).
  cmake --build build-asan -j"$(nproc)" --target stream_test
  ./build-asan/tests/stream_test
  cmake --build build-tsan -j"$(nproc)" --target stream_test
  ./build-tsan/tests/stream_test
  # Seeded chaos with the streaming drills: every schedule ends with a
  # client cancel (accounted exactly once) and a chunk-boundary kill
  # that must resume from its cursor on a replica, bit-identical to the
  # oracle. A failure replays exactly with the same seed.
  ./build-tsan/tools/vizndp_tool chaos --seed 4242 --schedules 2
  # Two-process TCP e2e: two replicas over real sockets; shard 0's
  # connection delivers eight frames, then hard-fails forever — from
  # the client that is exactly a killed node. The stream must resume
  # from its cursor on the replica and reproduce the reference
  # geometry bit for bit, and journal the resume.
  E2E_DIR="$(mktemp -d)"
  trap 'kill "${R0_PID:-}" "${R1_PID:-}" 2> /dev/null || true; \
       rm -rf "$E2E_DIR"' EXIT
  mkdir -p "$E2E_DIR/data"
  ./build-tsan/tools/vizndp_tool gen --kind impact --n 32 --bricks 8 \
    --out "$E2E_DIR/data/ts.vnd"
  ./build-tsan/tools/vizndp_tool serve --dir "$E2E_DIR" --port 0 \
    > "$E2E_DIR/r0.log" & R0_PID=$!
  ./build-tsan/tools/vizndp_tool serve --dir "$E2E_DIR" --port 0 \
    > "$E2E_DIR/r1.log" & R1_PID=$!
  for i in 0 1; do
    for _ in $(seq 1 50); do
      grep -q '^port:' "$E2E_DIR/r$i.log" && break
      sleep 0.2
    done
  done
  R0="$(awk '/^port:/{print $2}' "$E2E_DIR/r0.log")"
  R1="$(awk '/^port:/{print $2}' "$E2E_DIR/r1.log")"
  REF_TRIS="$(./build-tsan/tools/vizndp_tool fetch --port "$R0" \
    --key ts.vnd --array v02 --iso 0.5 --timeout-ms 10000 \
    | sed -n 's/^NDP contour: \([0-9]*\) triangles.*/\1/p')"
  ./build-tsan/tools/vizndp_tool fetch \
    --connect "127.0.0.1:$R0" --connect "127.0.0.1:$R1" --replicas 2 \
    --stream --chunk-bricks 1 --no-progress \
    --shard-fault "0:recv.pass*8,recv.down" \
    --journal "$E2E_DIR/journal.json" \
    --key ts.vnd --array v02 --iso 0.5 --timeout-ms 15000 \
    | tee "$E2E_DIR/stream.log"
  grep -q "^NDP contour: $REF_TRIS triangles" "$E2E_DIR/stream.log"
  grep -Eq 'stream: .* [1-9][0-9]* resume' "$E2E_DIR/stream.log"
  grep -q 'ndp.stream_resume' "$E2E_DIR/journal.json"
  kill "$R0_PID" "$R1_PID" 2> /dev/null || true
  wait "$R0_PID" "$R1_PID" 2> /dev/null || true
  rm -rf "$E2E_DIR"
  trap - EXIT
  # Streaming-overhead guard (<2% median fetch latency at the
  # production chunk size vs the monolithic reply; the tier-1 build —
  # this measures time, not races). The bench prints [warn] when over
  # budget; that fails the stage.
  STREAM_LOG="$(mktemp)"
  run_guard "$ROOT/build/bench/abl_stream_overhead" 2> "$STREAM_LOG"
  cat "$STREAM_LOG" >&2
  fail_on_warn "$STREAM_LOG"
  rm -f "$STREAM_LOG"

  stage "obs-fleet: windowed quantiles + merge algebra + SLO burn under asan/tsan"
  # The fleet observability plane: merge-algebra property tests, SLO
  # burn-rate edges, and the FleetScraper over a live cluster testbed —
  # under asan (buffer-heavy snapshot merging) and tsan (the windowed
  # histogram's record path races its rotation by design).
  cmake --build build-asan -j"$(nproc)" --target fleet_test
  ./build-asan/tests/fleet_test
  cmake --build build-tsan -j"$(nproc)" --target obs_test fleet_test
  ./build-tsan/tests/obs_test
  ./build-tsan/tests/fleet_test
  # One seeded chaos schedule closes the SLO loop: the step-0 kill must
  # burn the availability SLO (slo.burn_alert, audited 1:1 with its
  # counter) and the recovery tail must clear the alert and restore the
  # error budget — RunChaos reports any miss as a violation.
  ./build-tsan/tools/vizndp_tool chaos --seed 9021 --schedules 1
  # Window record-path guard: the sliding-window layer must stay under
  # 2% of a fetch (tier-1 build — this measures time, not races). The
  # bench prints [warn] when over budget; that fails the stage.
  WIN_LOG="$(mktemp)"
  run_guard VIZNDP_BENCH_N=64 VIZNDP_BENCH_REPS=4 \
    "$ROOT/build/bench/abl_window_overhead" 2> "$WIN_LOG"
  cat "$WIN_LOG" >&2
  fail_on_warn "$WIN_LOG"
  rm -f "$WIN_LOG"

  stage "tsan e2e: fleet top dashboard over TCP"
  # Real two-node fleet: generate, serve on OS-assigned ports, push one
  # fetch of traffic through, then scrape both nodes with `top --once`.
  # The JSON must carry both nodes reachable with per-node and
  # fleet-merged windowed quantiles plus SLO status; the prom form must
  # label per-node series.
  E2E_DIR="$(mktemp -d)"
  trap 'kill "${T0_PID:-}" "${T1_PID:-}" 2> /dev/null || true; \
       rm -rf "$E2E_DIR"' EXIT
  mkdir -p "$E2E_DIR/data"
  ./build-tsan/tools/vizndp_tool gen --kind impact --n 32 --bricks 8 \
    --out "$E2E_DIR/data/ts.vnd"
  ./build-tsan/tools/vizndp_tool serve --dir "$E2E_DIR" --port 0 \
    > "$E2E_DIR/t0.log" & T0_PID=$!
  ./build-tsan/tools/vizndp_tool serve --dir "$E2E_DIR" --port 0 \
    > "$E2E_DIR/t1.log" & T1_PID=$!
  for i in 0 1; do
    for _ in $(seq 1 50); do
      grep -q '^port:' "$E2E_DIR/t$i.log" && break
      sleep 0.2
    done
  done
  Q0="$(awk '/^port:/{print $2}' "$E2E_DIR/t0.log")"
  Q1="$(awk '/^port:/{print $2}' "$E2E_DIR/t1.log")"
  ./build-tsan/tools/vizndp_tool fetch \
    --connect "127.0.0.1:$Q0" --connect "127.0.0.1:$Q1" --replicas 1 \
    --key ts.vnd --array v02 --iso 0.5 --timeout-ms 10000 > /dev/null
  ./build-tsan/tools/vizndp_tool top \
    --connect "127.0.0.1:$Q0" --connect "127.0.0.1:$Q1" \
    --once --format json > "$E2E_DIR/top.json"
  grep -q '"reachable":2' "$E2E_DIR/top.json"
  grep -q '"per_node"' "$E2E_DIR/top.json"
  grep -q '"fleet_window"' "$E2E_DIR/top.json"
  grep -q '"slo"' "$E2E_DIR/top.json"
  ./build-tsan/tools/vizndp_tool top \
    --connect "127.0.0.1:$Q0" --connect "127.0.0.1:$Q1" \
    --once --format prom > "$E2E_DIR/top.prom"
  grep -q 'node="1"' "$E2E_DIR/top.prom"
  grep -q 'fleet_scrape_total' "$E2E_DIR/top.prom"
  kill "$T0_PID" "$T1_PID" 2> /dev/null || true
  wait "$T0_PID" "$T1_PID" 2> /dev/null || true
  rm -rf "$E2E_DIR"
  trap - EXIT

  stage "tsan e2e: fetch --trace over TCP with faults"
  # Real two-process run of the distributed-tracing path: a TCP storage
  # node, a lossy client connection, and a merged-timeline export. An
  # untraced fetch goes first, so the node's span ring also holds
  # another request's spans. The greps assert the file is Chrome-tracing
  # JSON with all three tracks, and holds only this fetch: exactly one
  # server-side ndp.select span, the one its reply carried back.
  E2E_DIR="$(mktemp -d)"
  trap 'kill "${SERVE_PID:-}" 2> /dev/null || true; rm -rf "$E2E_DIR"' EXIT
  mkdir -p "$E2E_DIR/data"
  ./build-tsan/tools/vizndp_tool gen --kind impact --n 32 \
    --out "$E2E_DIR/data/ts.vnd"
  ./build-tsan/tools/vizndp_tool serve --dir "$E2E_DIR" --port 0 \
    > "$E2E_DIR/serve.log" & SERVE_PID=$!
  for _ in $(seq 1 50); do
    grep -q '^port:' "$E2E_DIR/serve.log" && break
    sleep 0.2
  done
  PORT="$(awk '/^port:/{print $2}' "$E2E_DIR/serve.log")"
  ./build-tsan/tools/vizndp_tool fetch --port "$PORT" --key ts.vnd \
    --array v02 --iso 0.5 --timeout-ms 5000 > /dev/null
  ./build-tsan/tools/vizndp_tool fetch --port "$PORT" --key ts.vnd \
    --array v02 --iso 0.5 --timeout-ms 5000 --retries 2 \
    --fault send.drop*1 --trace "$E2E_DIR/trace.json"
  kill -INT "$SERVE_PID"
  wait "$SERVE_PID"
  grep -q '"traceEvents"' "$E2E_DIR/trace.json"
  for track in client server wire; do
    grep -q "\"name\":\"$track\"" "$E2E_DIR/trace.json"
  done
  SELECTS="$(grep -o '"name":"ndp.select"' "$E2E_DIR/trace.json" | wc -l)"
  [[ "$SELECTS" -eq 1 ]]
  rm -rf "$E2E_DIR"
  trap - EXIT

  stage "tsan e2e: sharded fetch over TCP, one shard killed, one delayed, then restarted"
  # Real multi-process run of the sharded serving tier: three storage
  # nodes on OS-assigned ports (parsed from the `port:` line), one node
  # killed before the fetch, another answering 300 ms late so the hedge
  # fires. The degraded fetch, one-shot and then streamed, must produce
  # the same triangle count as the single-server reference and win at
  # least one hedge; the one-shot run also records the failover in the
  # event journal. Then the killed node is restarted on its old port and
  # must serve the full contour again — the TCP half of the kill ->
  # restart -> serves-again story.
  E2E_DIR="$(mktemp -d)"
  trap 'kill "${S0_PID:-}" "${S1_PID:-}" "${S2_PID:-}" 2> /dev/null || true; \
       rm -rf "$E2E_DIR"' EXIT
  mkdir -p "$E2E_DIR/data"
  ./build-tsan/tools/vizndp_tool gen --kind impact --n 32 --bricks 8 \
    --out "$E2E_DIR/data/ts.vnd"
  ./build-tsan/tools/vizndp_tool serve --dir "$E2E_DIR" --port 0 \
    > "$E2E_DIR/s0.log" & S0_PID=$!
  ./build-tsan/tools/vizndp_tool serve --dir "$E2E_DIR" --port 0 \
    > "$E2E_DIR/s1.log" & S1_PID=$!
  ./build-tsan/tools/vizndp_tool serve --dir "$E2E_DIR" --port 0 \
    > "$E2E_DIR/s2.log" & S2_PID=$!
  for i in 0 1 2; do
    for _ in $(seq 1 50); do
      grep -q '^port:' "$E2E_DIR/s$i.log" && break
      sleep 0.2
    done
  done
  P0="$(awk '/^port:/{print $2}' "$E2E_DIR/s0.log")"
  P1="$(awk '/^port:/{print $2}' "$E2E_DIR/s1.log")"
  P2="$(awk '/^port:/{print $2}' "$E2E_DIR/s2.log")"
  REF_TRIS="$(./build-tsan/tools/vizndp_tool fetch --port "$P0" \
    --key ts.vnd --array v02 --iso 0.5 --timeout-ms 10000 \
    | sed -n 's/^NDP contour: \([0-9]*\) triangles.*/\1/p')"
  kill "$S2_PID"; wait "$S2_PID" 2> /dev/null || true
  ./build-tsan/tools/vizndp_tool fetch \
    --connect "127.0.0.1:$P0" --connect "127.0.0.1:$P1" \
    --connect "127.0.0.1:$P2" --replicas 2 --hedge-ms 40 \
    --shard-fault "1:recv.delay=300000+" --journal "$E2E_DIR/journal.json" \
    --key ts.vnd --array v02 --iso 0.5 --timeout-ms 10000 \
    | tee "$E2E_DIR/fetch.log"
  grep -q "^NDP contour: $REF_TRIS triangles" "$E2E_DIR/fetch.log"
  grep -Eq 'won [1-9][0-9]*' "$E2E_DIR/fetch.log"
  grep -q 'cluster.failover' "$E2E_DIR/journal.json"
  grep -q 'cluster.hedge_won' "$E2E_DIR/journal.json"
  # The same degraded fleet, streamed at the default chunk size: a
  # stream hedges until its first data chunk, so the backup must win
  # here too, with the slow node's stream cancelled.
  ./build-tsan/tools/vizndp_tool fetch \
    --connect "127.0.0.1:$P0" --connect "127.0.0.1:$P1" \
    --connect "127.0.0.1:$P2" --replicas 2 --hedge-ms 40 \
    --shard-fault "1:recv.delay=300000+" --stream --no-progress \
    --journal "$E2E_DIR/stream_journal.json" \
    --key ts.vnd --array v02 --iso 0.5 --timeout-ms 10000 \
    | tee "$E2E_DIR/stream_fetch.log"
  grep -q "^NDP contour: $REF_TRIS triangles" "$E2E_DIR/stream_fetch.log"
  grep -q 'cluster.hedge_won' "$E2E_DIR/stream_journal.json"
  # Restart the killed node on its old port; a late-starting server is
  # reachable because the client's transports dial lazily and re-dial
  # stale connections. The fresh incarnation must serve the contour.
  ./build-tsan/tools/vizndp_tool serve --dir "$E2E_DIR" --port "$P2" \
    > "$E2E_DIR/s2b.log" & S2_PID=$!
  for _ in $(seq 1 50); do
    grep -q '^port:' "$E2E_DIR/s2b.log" && break
    sleep 0.2
  done
  ./build-tsan/tools/vizndp_tool fetch --port "$P2" --key ts.vnd \
    --array v02 --iso 0.5 --timeout-ms 10000 | tee "$E2E_DIR/rejoin.log"
  grep -q "^NDP contour: $REF_TRIS triangles" "$E2E_DIR/rejoin.log"
  # And the full fleet serves sharded again, restarted node included.
  ./build-tsan/tools/vizndp_tool fetch \
    --connect "127.0.0.1:$P0" --connect "127.0.0.1:$P1" \
    --connect "127.0.0.1:$P2" --replicas 2 \
    --key ts.vnd --array v02 --iso 0.5 --timeout-ms 10000 \
    | tee "$E2E_DIR/healed.log"
  grep -q "^NDP contour: $REF_TRIS triangles" "$E2E_DIR/healed.log"
  kill "$S0_PID" "$S1_PID" "$S2_PID" 2> /dev/null || true
  wait "$S0_PID" "$S1_PID" "$S2_PID" 2> /dev/null || true
  rm -rf "$E2E_DIR"
  trap - EXIT
fi

CURRENT_STAGE="(done)"
echo "== all checks passed =="
