#!/usr/bin/env bash
# ci.sh — the mechanical regression gate.
#
# Runs, in order:
#   1. go build ./...
#   2. go vet ./...
#   3. go test -race ./...       (includes the runCells/streamCells
#                                 determinism and compile-key property tests)
#   4. byte-identity of `ivliw-bench -exp all` against the committed golden
#      transcript (cmd/ivliw-bench/testdata/exp_all.golden), so any drift in
#      the paper reproduction is caught before it lands
#   5. sweep determinism: `ivliw-bench -sweep` must emit identical JSON
#      across worker counts (1 vs 8) AND across the compiled-schedule cache
#      being disabled (-compile-cache 0) vs enabled — the staged pipeline's
#      byte-identity invariant
#   6. declarative specs, sharding and the disk artifact store: a sweep run
#      from a -spec-out captured spec file, run as 3 concatenated -shard
#      slices over a fresh -artifact-dir, and re-run against the then-warm
#      store must all be byte-identical to the cache-disabled single-process
#      reference; malformed -shard values must exit 2
#   7. the distributed sweep coordinator: `-coordinate 3` (exec launcher,
#      real worker subprocesses) must stitch output byte-identical to the
#      unsharded reference — including a run where one shard's first attempt
#      is crashed by a scripted fault plan (IVLIW_FAULT_PLAN, see
#      ivliw/sweep/fault) and retried — and rerunning over the same
#      -coordinate-dir must resume all shards from the manifest with zero
#      launches
#   8. the health-checked worker pool: `-coordinate-launch pool` over 3
#      worker subprocesses must stitch byte-identical output and record the
#      serving worker per shard in the manifest — including under a fault
#      plan that kills one worker and hangs one attempt (caught by the
#      stale-heartbeat monitor, far before a straggler deadline would fire)
#      — and the run snapshot (pool overhead vs plain exec, stale vs
#      straggler detection latency) is written to BENCH_6.json
#   9. batched simulation: `-sim-batch 8` (sibling cells sharing one
#      event-merge pass) must emit bytes identical to the batch-off
#      reference — serial, parallel, and through the coordinator's worker
#      pool — and must actually engage (the "sim batches:" stderr line);
#      the BenchmarkSweepBatch1/2/4/8 scaling curve (plus the batch-off
#      4-sibling baseline) is written to BENCH_7.json
#  10. cost-balanced scheduling + work stealing: on a skewed mixed-cluster
#      grid (2-cluster compiles are milliseconds, 8-cluster compiles are
#      tens of milliseconds), `-calibrate` must round-trip through
#      CALIBRATION.json; `-coordinate-balance cost -coordinate-steal 4` must
#      stitch byte-identically through the inproc, exec and pool launchers —
#      including a run with an injected chunk crash — and a corrupt
#      calibration file must degrade to the default model with a warning,
#      never a failure. The hard perf gate: the per-worker makespan of
#      cost-balanced cuts + stealing (from contention-free serialized
#      per-chunk wall times, scheduled exactly as the claim queue does) must
#      beat count-balanced static shards by >= 1.5x at 2 workers; the
#      measured makespans land in BENCH_8.json
#  11. sweep as a service: start `ivliw-served` (exec launcher, worker
#      subprocesses), submit the default spec over HTTP with `ivliw-load
#      -submit`, gate the streamed JSONL byte-identical to the direct CLI
#      run, gate dedup (a second identical submission reports cached=true
#      and the server's execution counter does not move), replay >= 1000
#      overlapping seeded submissions with `ivliw-load` (every duplicate
#      must dedup: executions == distinct specs, zero failures), gate the
#      SIGTERM drain, and write the p50/p99/throughput/dedup-rate snapshot
#      to BENCH_9.json
#  12. static analysis: build `ivliw-vet` (internal/lintcheck) and gate the
#      repo clean under all five analyzers (atomicwrite, strictjson,
#      determinism, ctxplumb, nopanic) plus annotation validation; then a
#      seeded-violation smoke module must fail with exit 1 and the expected
#      diagnostics, and -json must emit them as parseable JSON — so a
#      silently broken analyzer can never fake a clean repo. The analyzer
#      wall time per KLoC lands in BENCH_10.json
#  13. bounded fuzzing, 10s per target: FuzzRecEngine (internal/ir) checks
#      the exact recurrence-II solver against the naive Graph.RecII on
#      generated components, and FuzzAssign (internal/latassign) checks the
#      bound-pruned latency assignment against the naive referenceAssign on
#      generated loops and ladders; a crasher is written under the package's
#      testdata/fuzz/<target> and becomes a committed seed
#
# Usage: scripts/ci.sh
# To refresh the golden transcript after an *intentional* output change:
#   go run ./cmd/ivliw-bench -exp all > cmd/ivliw-bench/testdata/exp_all.golden
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
served_pid=""
trap 'if [ -n "$served_pid" ]; then kill "$served_pid" 2>/dev/null || true; fi; rm -rf "$tmp"' EXIT

echo "== 1/13 go build ./... =="
go build ./...

echo "== 2/13 go vet ./... =="
go vet ./...

echo "== 3/13 go test -race ./... =="
go test -race ./...

echo "== 4/13 paper-output byte identity (ivliw-bench -exp all) =="
go build -o "$tmp/ivliw-bench" ./cmd/ivliw-bench
"$tmp/ivliw-bench" -exp all > "$tmp/exp_all.txt"
if ! cmp -s cmd/ivliw-bench/testdata/exp_all.golden "$tmp/exp_all.txt"; then
  echo "FAIL: ivliw-bench -exp all drifted from the golden transcript:" >&2
  diff cmd/ivliw-bench/testdata/exp_all.golden "$tmp/exp_all.txt" | head -40 >&2
  exit 1
fi
echo "byte-identical"

echo "== 5/13 sweep determinism across workers and compile cache =="
# run_sweep keeps stderr (cache-stats noise, but also any crash) in a log
# that is replayed if the invocation fails.
run_sweep() { # out_file, args...
  local out="$1"; shift
  if ! "$tmp/ivliw-bench" -sweep "$@" > "$out" 2> "$tmp/sweep_stderr.log"; then
    echo "FAIL: ivliw-bench -sweep $* crashed:" >&2
    cat "$tmp/sweep_stderr.log" >&2
    exit 1
  fi
}
# Reference: serial, no schedule cache (every cell compiles from scratch).
run_sweep "$tmp/sweep_ref.jsonl" -workers 1 -compile-cache 0
# Parallel with the default cache: must be byte-identical to the reference.
run_sweep "$tmp/sweep_cache8.jsonl" -workers 8
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_cache8.jsonl"; then
  echo "FAIL: -sweep output depends on -compile-cache/-workers (cache on, 8 workers)" >&2
  exit 1
fi
# Serial with the cache and parallel without it cover the remaining corners.
run_sweep "$tmp/sweep_cache1.jsonl" -workers 1
run_sweep "$tmp/sweep_nocache8.jsonl" -workers 8 -compile-cache 0
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_cache1.jsonl" || \
   ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_nocache8.jsonl"; then
  echo "FAIL: -sweep output depends on -compile-cache or -workers" >&2
  exit 1
fi
# Streaming to -out must produce the same bytes as stdout.
run_sweep /dev/null -workers 8 -out "$tmp/sweep_file.jsonl"
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_file.jsonl"; then
  echo "FAIL: -sweep -out differs from stdout stream" >&2
  exit 1
fi
rows=$(wc -l < "$tmp/sweep_ref.jsonl")
if [ "$rows" -lt 12 ]; then
  echo "FAIL: default sweep produced only $rows rows (< 12)" >&2
  exit 1
fi
echo "deterministic ($rows rows; workers 1/8 × cache on/off × stdout/-out)"

echo "== 6/13 declarative specs, sharding and the disk artifact store =="
# Capture the default flag grid as a spec file; running the file must be
# byte-identical to the cache-disabled reference of step 5.
"$tmp/ivliw-bench" -sweep -spec-out "$tmp/spec.json"
run_sweep "$tmp/sweep_spec.jsonl" -spec "$tmp/spec.json"
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_spec.jsonl"; then
  echo "FAIL: -spec run differs from the legacy-flags run" >&2
  exit 1
fi
# The same spec as 3 shards over a fresh shared artifact directory: the
# concatenation must reproduce the single-process reference exactly.
art="$tmp/artifacts"
for i in 0 1 2; do
  run_sweep "$tmp/shard_$i.jsonl" -spec "$tmp/spec.json" -shard "$i/3" -artifact-dir "$art"
done
cat "$tmp/shard_0.jsonl" "$tmp/shard_1.jsonl" "$tmp/shard_2.jsonl" > "$tmp/sweep_sharded.jsonl"
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_sharded.jsonl"; then
  echo "FAIL: concatenated -shard outputs differ from the unsharded run" >&2
  exit 1
fi
# Warm pass: the shards populated the store, so this run must compile
# nothing and still emit identical bytes.
run_sweep "$tmp/sweep_warm.jsonl" -spec "$tmp/spec.json" -artifact-dir "$art"
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_warm.jsonl"; then
  echo "FAIL: warm artifact-store run differs from the cold reference" >&2
  exit 1
fi
if ! grep -q 'artifact store' "$tmp/sweep_stderr.log"; then
  echo "FAIL: warm run never reported the artifact store (did -artifact-dir stop plumbing through?)" >&2
  cat "$tmp/sweep_stderr.log" >&2
  exit 1
fi
if grep 'artifact store' "$tmp/sweep_stderr.log" | grep -vq ', 0 compiles,'; then
  echo "FAIL: warm artifact-store run recompiled artifacts:" >&2
  cat "$tmp/sweep_stderr.log" >&2
  exit 1
fi
# Malformed or out-of-range -shard values are usage errors (exit 2).
for bad in "3/3" "-1/3" "x/3" "1x3" "0/0"; do
  rc=0
  "$tmp/ivliw-bench" -sweep -shard "$bad" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: -shard $bad exited $rc, want the usage error 2" >&2
    exit 1
  fi
done
echo "spec/shard/store byte-identical (3 shards; warm store compiles nothing)"

echo "== 7/13 distributed sweep coordinator: stitch, retry, resume =="
# Plain coordinated run over worker subprocesses: the stitched output must
# reproduce the cache-disabled single-process reference byte for byte.
coord="$tmp/coord"
if ! "$tmp/ivliw-bench" -spec "$tmp/spec.json" -coordinate 3 -coordinate-dir "$coord" \
    -out "$tmp/coord.jsonl" 2> "$tmp/coord_stderr.log"; then
  echo "FAIL: ivliw-bench -coordinate 3 crashed:" >&2
  cat "$tmp/coord_stderr.log" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/coord.jsonl"; then
  echo "FAIL: coordinated output differs from the unsharded reference" >&2
  exit 1
fi
# Forced failure: a scripted fault plan crashes shard 1's first attempt
# (and only that attempt — events are keyed by shard AND attempt, no marker
# files); the coordinator must retry it and still stitch identical bytes.
echo '{"events":[{"op":"crash","shard":1,"attempt":1}]}' > "$tmp/crash_plan.json"
if ! IVLIW_FAULT_PLAN="$tmp/crash_plan.json" \
    "$tmp/ivliw-bench" -spec "$tmp/spec.json" -coordinate 3 -coordinate-dir "$tmp/coord_retry" \
    -coordinate-backoff 50ms -out "$tmp/coord_retry.jsonl" 2> "$tmp/coord_retry_stderr.log"; then
  echo "FAIL: coordinator did not survive the injected shard failure:" >&2
  cat "$tmp/coord_retry_stderr.log" >&2
  exit 1
fi
if ! grep -q 'fault: crash' "$tmp/coord_retry_stderr.log"; then
  echo "FAIL: the fault plan never fired (IVLIW_FAULT_PLAN stopped plumbing through):" >&2
  cat "$tmp/coord_retry_stderr.log" >&2
  exit 1
fi
if ! grep -q '1 retries' "$tmp/coord_retry_stderr.log"; then
  echo "FAIL: coordinator did not report the retry:" >&2
  cat "$tmp/coord_retry_stderr.log" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/coord_retry.jsonl"; then
  echo "FAIL: coordinated output with a retried shard differs from the reference" >&2
  exit 1
fi
# Resume: rerunning over the completed work dir must launch nothing (all
# shards restored from the manifest) and still emit identical bytes.
if ! "$tmp/ivliw-bench" -spec "$tmp/spec.json" -coordinate 3 -coordinate-dir "$coord" \
    -out "$tmp/coord_resume.jsonl" 2> "$tmp/coord_resume_stderr.log"; then
  echo "FAIL: coordinator resume crashed:" >&2
  cat "$tmp/coord_resume_stderr.log" >&2
  exit 1
fi
if ! grep -q '3 resumed.*0 launches' "$tmp/coord_resume_stderr.log"; then
  echo "FAIL: resume relaunched shards it should have restored from the manifest:" >&2
  cat "$tmp/coord_resume_stderr.log" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/coord_resume.jsonl"; then
  echo "FAIL: resumed coordinator output differs from the reference" >&2
  exit 1
fi
echo "coordinator byte-identical (3 worker subprocesses; 1 injected failure retried; resume launches 0)"

echo "== 8/13 health-checked worker pool: heartbeats, failure domains, fault plan =="
now_ns() { date +%s%N; }
# Timed plain-exec reference (fresh work dir so nothing resumes) for the
# pool-overhead snapshot.
t0=$(now_ns)
if ! "$tmp/ivliw-bench" -spec "$tmp/spec.json" -coordinate 3 -coordinate-dir "$tmp/exec_ref" \
    -out "$tmp/exec_ref.jsonl" 2> "$tmp/exec_ref_stderr.log"; then
  echo "FAIL: exec reference run crashed:" >&2
  cat "$tmp/exec_ref_stderr.log" >&2
  exit 1
fi
exec_ns=$(( $(now_ns) - t0 ))
# Plain pool run: 3 worker subprocesses, heartbeat monitoring on. Must be
# byte-identical and attribute every shard to a worker in the manifest.
t0=$(now_ns)
if ! "$tmp/ivliw-bench" -spec "$tmp/spec.json" -coordinate 3 -coordinate-launch pool \
    -pool-workers 3 -pool-stale 2s -coordinate-dir "$tmp/pool" \
    -out "$tmp/pool.jsonl" 2> "$tmp/pool_stderr.log"; then
  echo "FAIL: pool run crashed:" >&2
  cat "$tmp/pool_stderr.log" >&2
  exit 1
fi
pool_ns=$(( $(now_ns) - t0 ))
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/pool.jsonl"; then
  echo "FAIL: pool output differs from the unsharded reference" >&2
  exit 1
fi
if ! grep -q '"worker": "w' "$tmp/pool/manifest.json"; then
  echo "FAIL: pool manifest does not attribute shards to workers:" >&2
  cat "$tmp/pool/manifest.json" >&2
  exit 1
fi
# Fault plan: worker w1 dies on its first launch (its in-flight shard must
# requeue and the worker quarantine) and shard 2's first attempt hangs
# without heartbeating (the stale monitor must kill and retry it). The
# stitched bytes must still be identical.
echo '{"events":[{"op":"dead-worker","worker":"w1"},{"op":"hang","shard":2,"attempt":1}]}' \
  > "$tmp/pool_plan.json"
t0=$(now_ns)
if ! IVLIW_FAULT_PLAN="$tmp/pool_plan.json" \
    "$tmp/ivliw-bench" -spec "$tmp/spec.json" -coordinate 3 -coordinate-launch pool \
    -pool-workers 3 -pool-stale 1s -pool-backoff 100ms -coordinate-backoff 50ms \
    -coordinate-attempts 4 -coordinate-seed 7 -coordinate-dir "$tmp/pool_fault" \
    -out "$tmp/pool_fault.jsonl" 2> "$tmp/pool_fault_stderr.log"; then
  echo "FAIL: pool run did not survive the fault plan:" >&2
  cat "$tmp/pool_fault_stderr.log" >&2
  exit 1
fi
pool_fault_ns=$(( $(now_ns) - t0 ))
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/pool_fault.jsonl"; then
  echo "FAIL: pool output under the fault plan differs from the reference" >&2
  exit 1
fi
for want in 'worker w1 died' 'quarantined' 'heartbeat stale'; do
  if ! grep -q "$want" "$tmp/pool_fault_stderr.log"; then
    echo "FAIL: faulted pool run never reported '$want':" >&2
    cat "$tmp/pool_fault_stderr.log" >&2
    exit 1
  fi
done
# Detection-latency comparison: the same hang handled by the coordinator's
# straggler deadline alone (plain exec launcher, no heartbeats). The pool's
# stale monitor must beat the straggler deadline by a wide margin.
echo '{"events":[{"op":"hang","shard":2,"attempt":1}]}' > "$tmp/hang_plan.json"
t0=$(now_ns)
if ! IVLIW_FAULT_PLAN="$tmp/hang_plan.json" \
    "$tmp/ivliw-bench" -spec "$tmp/spec.json" -coordinate 3 -coordinate-straggler 4s \
    -coordinate-dir "$tmp/straggle" -out "$tmp/straggle.jsonl" 2> "$tmp/straggle_stderr.log"; then
  echo "FAIL: straggler comparison run crashed:" >&2
  cat "$tmp/straggle_stderr.log" >&2
  exit 1
fi
straggle_ns=$(( $(now_ns) - t0 ))
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/straggle.jsonl"; then
  echo "FAIL: straggler comparison output differs from the reference" >&2
  exit 1
fi
# Snapshot for PERFORMANCE.md. Byte-identity above is the hard gate; the
# timings are recorded, not thresholded (sub-second runs are noisy).
awk -v exec_ns="$exec_ns" -v pool_ns="$pool_ns" \
    -v fault_ns="$pool_fault_ns" -v straggle_ns="$straggle_ns" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" 'BEGIN {
  printf "{\n"
  printf "  \"snapshot\": 6,\n"
  printf "  \"date\": \"%s\",\n", date
  printf "  \"go\": \"%s\",\n", gover
  printf "  \"plain_exec_seconds\": %.3f,\n", exec_ns / 1e9
  printf "  \"pool_seconds\": %.3f,\n", pool_ns / 1e9
  printf "  \"pool_overhead_pct\": %.1f,\n", (pool_ns - exec_ns) * 100.0 / exec_ns
  printf "  \"pool_fault_recovery_seconds\": %.3f,\n", fault_ns / 1e9
  printf "  \"straggler_recovery_seconds\": %.3f\n", straggle_ns / 1e9
  printf "}\n"
}' > BENCH_6.json
echo "pool byte-identical (plain, dead-worker+hang fault plan); manifest attributes workers"
echo "snapshot written to BENCH_6.json:"
cat BENCH_6.json

echo "== 9/13 batched simulation: -sim-batch byte-identity and scaling curve =="
# The default grid's AB axis (0 vs 16 entries) is simulate-only, so every
# compile key owns 2 sibling cells — batching has real lanes to merge.
# Serial batched run: must be byte-identical to the batch-off reference.
run_sweep "$tmp/sweep_batch1.jsonl" -spec "$tmp/spec.json" -sim-batch 8 -workers 1
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_batch1.jsonl"; then
  echo "FAIL: -sim-batch 8 (serial) output differs from the batch-off reference" >&2
  exit 1
fi
# The stderr line proves batching actually engaged — a silently-off batch
# path would pass the cmp above while measuring nothing.
if ! grep -q 'sim batches:' "$tmp/sweep_stderr.log"; then
  echo "FAIL: -sim-batch 8 never reported sim batches (batching silently off?):" >&2
  cat "$tmp/sweep_stderr.log" >&2
  exit 1
fi
# Parallel batched run: batches are scheduled as tasks, rows still reorder
# back to grid order.
run_sweep "$tmp/sweep_batch8.jsonl" -spec "$tmp/spec.json" -sim-batch 8 -workers 8
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/sweep_batch8.jsonl"; then
  echo "FAIL: -sim-batch 8 (8 workers) output differs from the batch-off reference" >&2
  exit 1
fi
# Coordinator pool path: -sim-batch travels to worker subprocesses through
# the shared base spec, so every shard simulates in batches and the
# stitched output must still be byte-identical.
if ! "$tmp/ivliw-bench" -spec "$tmp/spec.json" -sim-batch 8 -coordinate 3 \
    -coordinate-launch pool -pool-workers 3 -pool-stale 2s \
    -coordinate-dir "$tmp/pool_batch" -out "$tmp/pool_batch.jsonl" \
    2> "$tmp/pool_batch_stderr.log"; then
  echo "FAIL: pool run with -sim-batch 8 crashed:" >&2
  cat "$tmp/pool_batch_stderr.log" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/pool_batch.jsonl"; then
  echo "FAIL: pool output with -sim-batch 8 differs from the batch-off reference" >&2
  exit 1
fi
echo "batch-on byte-identical (serial, 8 workers, coordinator pool)"
# Scaling snapshot for PERFORMANCE.md: cells/s over 1/2/4/8 sibling lanes
# plus the batch-off 4-sibling baseline. Byte-identity above is the hard
# gate; the throughputs are recorded, not thresholded.
if ! go test -run '^$' -bench 'BenchmarkSweepBatch' -benchtime 500x . \
    > "$tmp/bench_batch.txt" 2>&1; then
  echo "FAIL: BenchmarkSweepBatch run crashed:" >&2
  cat "$tmp/bench_batch.txt" >&2
  exit 1
fi
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" '
  /^BenchmarkSweepBatch/ {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkSweepBatch/, "", name)
    for (i = 2; i < NF; i++) if ($(i + 1) == "cells/s") rate[name] = $i
  }
  END {
    printf "{\n"
    printf "  \"snapshot\": 7,\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"grid\": \"2 benches x 2 clusters x N simulate-only siblings, warm disk store, 1 worker\",\n"
    printf "  \"batch1_cells_per_s\": %s,\n", rate["1"]
    printf "  \"batch2_cells_per_s\": %s,\n", rate["2"]
    printf "  \"batch4_cells_per_s\": %s,\n", rate["4"]
    printf "  \"batch8_cells_per_s\": %s,\n", rate["8"]
    printf "  \"batch4_off_cells_per_s\": %s\n", rate["4Off"]
    printf "}\n"
  }' "$tmp/bench_batch.txt" > BENCH_7.json
if grep -q ': ,' BENCH_7.json; then
  echo "FAIL: BENCH_7.json has missing rates — benchmark output not parsed:" >&2
  cat "$tmp/bench_batch.txt" >&2
  exit 1
fi
echo "snapshot written to BENCH_7.json:"
cat BENCH_7.json

echo "== 10/13 cost-balanced scheduling + work stealing =="
# The skew grid: the 2-cluster half compiles in milliseconds, the 8-cluster
# half in tens of milliseconds (two heavy compile-key atoms, one per
# cache geometry) — the workload shape cost-balanced cuts exist for.
"$tmp/ivliw-bench" -sweep -sweep-clusters 2,8 -sweep-cache-kb 4,8 -sweep-ab 0,16 \
  -sweep-bench jpegenc,g721dec -spec-out "$tmp/skew.json"
run_sweep "$tmp/skew_ref.jsonl" -spec "$tmp/skew.json"
# Calibration round-trip: measure this machine, persist next to the BENCH
# snapshots, and prove the coordinator actually loads the file back.
t0=$(now_ns)
if ! "$tmp/ivliw-bench" -spec "$tmp/skew.json" -calibrate CALIBRATION.json \
    2> "$tmp/calibrate_stderr.log"; then
  echo "FAIL: ivliw-bench -calibrate crashed:" >&2
  cat "$tmp/calibrate_stderr.log" >&2
  exit 1
fi
calibrate_ns=$(( $(now_ns) - t0 ))
if ! grep -q 'calibration written to' "$tmp/calibrate_stderr.log"; then
  echo "FAIL: -calibrate never confirmed the write:" >&2
  cat "$tmp/calibrate_stderr.log" >&2
  exit 1
fi
# Byte-identity of cost-balanced cuts + stealing across every launcher path.
coord_skew() { # work_dir out_file extra_args...
  local work="$1" out="$2"; shift 2
  if ! "$tmp/ivliw-bench" -spec "$tmp/skew.json" -coordinate 2 \
      -coordinate-dir "$work" -out "$out" "$@" 2> "$tmp/skew_stderr.log"; then
    echo "FAIL: skew coordinate run ($*) crashed:" >&2
    cat "$tmp/skew_stderr.log" >&2
    exit 1
  fi
  if ! cmp -s "$tmp/skew_ref.jsonl" "$out"; then
    echo "FAIL: skew coordinate run ($*) differs from the unsharded reference" >&2
    exit 1
  fi
}
for launch in inproc exec pool; do
  extra=()
  if [ "$launch" = pool ]; then extra=(-pool-workers 2 -pool-stale 5s); fi
  coord_skew "$tmp/skew_$launch" "$tmp/skew_$launch.jsonl" \
    -coordinate-launch "$launch" -coordinate-balance cost -coordinate-steal 4 \
    -coordinate-calibration CALIBRATION.json "${extra[@]}"
done
if ! grep -q 'calibration loaded from CALIBRATION.json' "$tmp/skew_stderr.log"; then
  echo "FAIL: the coordinator never loaded CALIBRATION.json back (round trip broken):" >&2
  cat "$tmp/skew_stderr.log" >&2
  exit 1
fi
# Injected crash while stealing: chunk 1's first attempt dies; the retry
# must converge on identical bytes.
echo '{"events":[{"op":"crash","shard":1,"attempt":1}]}' > "$tmp/skew_crash.json"
# Subshell: an env assignment prefixed to a *function* call would persist in
# this shell and poison every later run.
(
  export IVLIW_FAULT_PLAN="$tmp/skew_crash.json"
  coord_skew "$tmp/skew_crash" "$tmp/skew_crash.jsonl" \
    -coordinate-launch exec -coordinate-balance cost -coordinate-steal 4 \
    -coordinate-calibration CALIBRATION.json -coordinate-backoff 50ms
)
if ! grep -q 'fault: crash' "$tmp/skew_stderr.log"; then
  echo "FAIL: the skew crash plan never fired:" >&2
  cat "$tmp/skew_stderr.log" >&2
  exit 1
fi
# A corrupt calibration must degrade to the default model with a warning —
# and still stitch identical bytes.
echo '{"clusters": [], "broken' > "$tmp/corrupt_cal.json"
coord_skew "$tmp/skew_corrupt" "$tmp/skew_corrupt.jsonl" \
  -coordinate-launch inproc -coordinate-balance cost \
  -coordinate-calibration "$tmp/corrupt_cal.json"
if ! grep -q 'unusable.*default cost model' "$tmp/skew_stderr.log"; then
  echo "FAIL: corrupt calibration did not degrade with a warning:" >&2
  cat "$tmp/skew_stderr.log" >&2
  exit 1
fi
# The perf gate. This container may have a single CPU, so end-to-end wall
# time of concurrent workers only measures time-slicing; instead, serialize
# launches (-coordinate-parallel 1) for contention-free per-chunk wall
# times from the manifest, then compute each policy's 2-worker makespan by
# replaying exactly the coordinator's schedule (static cuts: one shard per
# worker; stealing: heaviest-first claim by the next idle worker). That
# makespan is the wall time of any machine with >= 2 free cores.
makespan() { # manifest_file workers
  grep -o '"wall_ms": [0-9]*' "$1" | awk -v W="$2" '
    { w[n++] = $2 }
    END {
      for (i = 0; i < n; i++)
        for (j = i + 1; j < n; j++)
          if (w[j] > w[i]) { t = w[i]; w[i] = w[j]; w[j] = t }
      for (k = 0; k < W; k++) load[k] = 0
      for (i = 0; i < n; i++) {
        m = 0
        for (k = 1; k < W; k++) if (load[k] < load[m]) m = k
        load[m] += w[i]
      }
      best = 0
      for (k = 0; k < W; k++) if (load[k] > best) best = load[k]
      print best
    }'
}
for mode in count cost steal; do
  case $mode in
    count) flags=(-coordinate-balance count) ;;
    cost)  flags=(-coordinate-balance cost -coordinate-calibration CALIBRATION.json) ;;
    steal) flags=(-coordinate-balance cost -coordinate-steal 4 -coordinate-calibration CALIBRATION.json) ;;
  esac
  coord_skew "$tmp/skew_t_$mode" "$tmp/skew_t_$mode.jsonl" \
    -coordinate-launch exec -coordinate-parallel 1 "${flags[@]}"
done
count_ms=$(makespan "$tmp/skew_t_count/manifest.json" 2)
cost_ms=$(makespan "$tmp/skew_t_cost/manifest.json" 2)
steal_ms=$(makespan "$tmp/skew_t_steal/manifest.json" 2)
if [ "$(( count_ms * 10 ))" -lt "$(( steal_ms * 15 ))" ]; then
  echo "FAIL: cost+stealing makespan ${steal_ms}ms is not >= 1.5x better than count-balanced ${count_ms}ms" >&2
  exit 1
fi
echo "cost+steal byte-identical (inproc/exec/pool; 1 injected crash; corrupt calibration degraded)"
echo "2-worker makespan: count ${count_ms}ms, cost ${cost_ms}ms, cost+steal ${steal_ms}ms"
awk -v count_ms="$count_ms" -v cost_ms="$cost_ms" -v steal_ms="$steal_ms" \
    -v calibrate_ns="$calibrate_ns" \
    -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v gover="$(go env GOVERSION)" 'BEGIN {
  printf "{\n"
  printf "  \"snapshot\": 8,\n"
  printf "  \"date\": \"%s\",\n", date
  printf "  \"go\": \"%s\",\n", gover
  printf "  \"grid\": \"clusters 2,8 x cache 4,8KB x AB 0,16 x jpegenc,g721dec (16 rows, 4 compile-key atoms)\",\n"
  printf "  \"count_makespan_ms\": %d,\n", count_ms
  printf "  \"cost_makespan_ms\": %d,\n", cost_ms
  printf "  \"steal_makespan_ms\": %d,\n", steal_ms
  printf "  \"steal_vs_count_speedup\": %.2f,\n", count_ms / steal_ms
  printf "  \"calibrate_seconds\": %.3f\n", calibrate_ns / 1e9
  printf "}\n"
}' > BENCH_8.json
echo "snapshot written to BENCH_8.json:"
cat BENCH_8.json

echo "== 11/13 sweep as a service: ivliw-served + ivliw-load =="
go build -o "$tmp/ivliw-served" ./cmd/ivliw-served
go build -o "$tmp/ivliw-load" ./cmd/ivliw-load
# Start the daemon on an ephemeral port: exec launcher over real worker
# subprocesses of the step-4 ivliw-bench, durable state under $tmp/served.
"$tmp/ivliw-served" -addr 127.0.0.1:0 -addr-file "$tmp/served.addr" \
  -dir "$tmp/served" -executors 2 -launch exec -worker-bin "$tmp/ivliw-bench" \
  2> "$tmp/served_stderr.log" &
served_pid=$!
for _ in $(seq 1 100); do
  [ -s "$tmp/served.addr" ] && break
  if ! kill -0 "$served_pid" 2>/dev/null; then
    echo "FAIL: ivliw-served died on startup:" >&2
    cat "$tmp/served_stderr.log" >&2
    exit 1
  fi
  sleep 0.05
done
if [ ! -s "$tmp/served.addr" ]; then
  echo "FAIL: ivliw-served never wrote its address file" >&2
  cat "$tmp/served_stderr.log" >&2
  exit 1
fi
served_url="http://$(cat "$tmp/served.addr")"
# First submission: executed once, rows streamed back byte-identical to the
# direct CLI run of the very same spec file (the step-5 reference).
if ! "$tmp/ivliw-load" -addr "$served_url" -submit "$tmp/spec.json" \
    -rows "$tmp/served_rows.jsonl" > "$tmp/submit1.txt" 2> "$tmp/load_stderr.log"; then
  echo "FAIL: HTTP submission failed:" >&2
  cat "$tmp/load_stderr.log" "$tmp/served_stderr.log" >&2
  exit 1
fi
if ! grep -q 'state=done dedup=false cached=false' "$tmp/submit1.txt"; then
  echo "FAIL: first submission was not a fresh executed job: $(cat "$tmp/submit1.txt")" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/served_rows.jsonl"; then
  echo "FAIL: served JSONL differs from the direct CLI run of the same spec" >&2
  exit 1
fi
# Second identical submission: a cache hit — served from the results store,
# rows identical, and the server's execution counter must not move.
if ! "$tmp/ivliw-load" -addr "$served_url" -submit "$tmp/spec.json" \
    -rows "$tmp/served_rows2.jsonl" > "$tmp/submit2.txt" 2>> "$tmp/load_stderr.log"; then
  echo "FAIL: duplicate HTTP submission failed:" >&2
  cat "$tmp/load_stderr.log" >&2
  exit 1
fi
if ! grep -q 'state=done dedup=true cached=true' "$tmp/submit2.txt"; then
  echo "FAIL: duplicate submission was not served from the cache: $(cat "$tmp/submit2.txt")" >&2
  exit 1
fi
exec1=$(grep -o 'executions=[0-9]*' "$tmp/submit1.txt" | cut -d= -f2)
exec2=$(grep -o 'executions=[0-9]*' "$tmp/submit2.txt" | cut -d= -f2)
if [ "$exec1" != "$exec2" ]; then
  echo "FAIL: duplicate submission moved the execution counter ($exec1 -> $exec2)" >&2
  exit 1
fi
if ! cmp -s "$tmp/sweep_ref.jsonl" "$tmp/served_rows2.jsonl"; then
  echo "FAIL: cached rows differ from the executed rows" >&2
  exit 1
fi
echo "served rows byte-identical; duplicate submission cached with zero new executions"
# The headline replay: >= 1000 overlapping seeded submissions over a small
# distinct population. ivliw-load exits nonzero if any submission fails;
# every duplicate must dedup, so the execution delta equals the population.
if ! "$tmp/ivliw-load" -addr "$served_url" -n 1000 -distinct 12 -concurrency 32 \
    -seed 7 -out "$tmp/load.json" > /dev/null 2>> "$tmp/load_stderr.log"; then
  echo "FAIL: ivliw-load replay failed:" >&2
  cat "$tmp/load_stderr.log" "$tmp/served_stderr.log" >&2
  exit 1
fi
load_execs=$(grep -o '"executions": [0-9]*' "$tmp/load.json" | grep -o '[0-9]*')
if [ "$load_execs" -ne 12 ]; then
  echo "FAIL: 1000-submission replay over 12 distinct specs executed $load_execs times, want exactly 12:" >&2
  cat "$tmp/load.json" >&2
  exit 1
fi
# BENCH_9.json = the replay report plus snapshot metadata (load.json opens
# with "{" on its own line, so the tail splices in as the remaining keys).
{
  printf '{\n  "snapshot": 9,\n  "date": "%s",\n  "go": "%s",\n' \
    "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(go env GOVERSION)"
  tail -n +2 "$tmp/load.json"
} > BENCH_9.json
# Graceful drain: SIGTERM must stop the daemon cleanly (exit 0).
kill -TERM "$served_pid"
rc=0
wait "$served_pid" || rc=$?
served_pid=""
if [ "$rc" -ne 0 ]; then
  echo "FAIL: ivliw-served exited $rc on SIGTERM:" >&2
  cat "$tmp/served_stderr.log" >&2
  exit 1
fi
if ! grep -q 'drained' "$tmp/served_stderr.log"; then
  echo "FAIL: ivliw-served never reported the drain:" >&2
  cat "$tmp/served_stderr.log" >&2
  exit 1
fi
echo "replay clean (1000 submissions, 12 executions); SIGTERM drained exit 0"
echo "snapshot written to BENCH_9.json:"
cat BENCH_9.json

echo "== 12/13 static analysis: ivliw-vet clean gate + seeded-violation smoke =="
go build -o "$tmp/ivliw-vet" ./cmd/ivliw-vet
# Clean gate, timed: the repo must satisfy its own analyzers. A warm-up run
# first so the measurement is the analysis, not `go list` compiling export
# data for the dependency graph.
"$tmp/ivliw-vet" ./... > /dev/null
vet_start_ms=$(date +%s%3N)
if ! "$tmp/ivliw-vet" ./... > "$tmp/vet_repo.txt" 2>&1; then
  echo "FAIL: ivliw-vet found violations in the repo:" >&2
  cat "$tmp/vet_repo.txt" >&2
  exit 1
fi
vet_end_ms=$(date +%s%3N)
vet_wall_ms=$((vet_end_ms - vet_start_ms))
if [ -s "$tmp/vet_repo.txt" ]; then
  echo "FAIL: ivliw-vet exited 0 but printed output:" >&2
  cat "$tmp/vet_repo.txt" >&2
  exit 1
fi
echo "repo clean under all five analyzers (${vet_wall_ms} ms)"
# Seeded-violation smoke: a scratch module carrying one violation per
# analyzer. ivliw-vet must exit 1 (not 0: analyzer asleep; not 2: loader
# broke) and name each expected finding.
mkdir -p "$tmp/vetsmoke/lib"
cat > "$tmp/vetsmoke/go.mod" <<'EOF'
module vetsmoke

go 1.24
EOF
cat > "$tmp/vetsmoke/lib/lib.go" <<'EOF'
package lib

import (
	"context"
	"encoding/json"
	"os"
)

type T struct{ A int }

func Bad(path string, data []byte) error {
	var t T
	if err := json.Unmarshal(data, &t); err != nil {
		return err
	}
	_ = context.Background()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	panic("boom")
}

//ivliw:bogus not a real verb
func Weird() {}
EOF
rc=0
"$tmp/ivliw-vet" -dir "$tmp/vetsmoke" ./... > "$tmp/vet_smoke.txt" 2>/dev/null || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL: ivliw-vet exited $rc on the seeded-violation module, want 1:" >&2
  cat "$tmp/vet_smoke.txt" >&2
  exit 1
fi
for expect in \
  '\[strictjson\] json.Unmarshal' \
  '\[ctxplumb\] context.Background' \
  '\[atomicwrite\] os.WriteFile' \
  '\[nopanic\] panic in library code' \
  '\[annotation\] unknown annotation verb "bogus"'; do
  if ! grep -q "$expect" "$tmp/vet_smoke.txt"; then
    echo "FAIL: seeded violation not reported (want /$expect/):" >&2
    cat "$tmp/vet_smoke.txt" >&2
    exit 1
  fi
done
# -json mode must carry the same findings as a JSON array.
"$tmp/ivliw-vet" -json -dir "$tmp/vetsmoke" ./... > "$tmp/vet_smoke.json" 2>/dev/null || true
smoke_lines=$(wc -l < "$tmp/vet_smoke.txt")
json_count=$(grep -c '"analyzer":' "$tmp/vet_smoke.json")
if [ "$json_count" -ne "$smoke_lines" ]; then
  echo "FAIL: -json emitted $json_count findings, text mode $smoke_lines:" >&2
  cat "$tmp/vet_smoke.json" >&2
  exit 1
fi
echo "seeded-violation smoke: exit 1, all 5 expected diagnostics, -json agrees ($json_count findings)"
# BENCH_10.json: analyzer cost normalized per KLoC of non-test module source.
loc=$(find . -name '*.go' -not -name '*_test.go' -not -path './internal/lintcheck/testdata/*' \
  -exec cat {} + | wc -l)
ms_per_kloc=$(awk "BEGIN { printf \"%.2f\", $vet_wall_ms * 1000 / $loc }")
printf '{\n  "snapshot": 10,\n  "date": "%s",\n  "go": "%s",\n  "analyzers": ["atomicwrite", "strictjson", "determinism", "ctxplumb", "nopanic", "annotation"],\n  "repo_findings": 0,\n  "non_test_loc": %s,\n  "wall_ms": %s,\n  "ms_per_kloc": %s\n}\n' \
  "$(date -u +%Y-%m-%dT%H:%M:%SZ)" "$(go env GOVERSION)" "$loc" "$vet_wall_ms" "$ms_per_kloc" > BENCH_10.json
echo "snapshot written to BENCH_10.json:"
cat BENCH_10.json

echo "== 13/13 bounded fuzzing: FuzzRecEngine and FuzzAssign against their naive references =="
go test -run '^$' -fuzz '^FuzzRecEngine$' -fuzztime 10s ./internal/ir
go test -run '^$' -fuzz '^FuzzAssign$' -fuzztime 10s ./internal/latassign

echo "CI PASS"
