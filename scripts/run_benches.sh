#!/usr/bin/env bash
# Engine/microbenchmark trajectory: build the google-benchmark binaries in
# Release mode and emit machine-readable results as BENCH_engine.json and
# BENCH_micro.json at the repo root. These files are committed so the perf
# trajectory of the simulation & I/O core is reviewable PR-over-PR.
#
# Env knobs:
#   BENCH_BUILD_DIR  build directory (default build-release)
#   BENCH_REPS       repetitions per benchmark (default 3; medians land in
#                    the *_median aggregate entries)
#   BENCH_SMOKE=1    one tiny iteration per benchmark — CI smoke, output
#                    goes to /dev/null instead of the committed JSONs
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BENCH_BUILD_DIR:-build-release}"
REPS="${BENCH_REPS:-3}"

cmake -B "$BUILD_DIR" -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" --target bench_engine bench_micro bench_tab1_batching bench_multilog bench_fig4_recovery

run_bench() {
  local bin="$1" out="$2"
  if [[ "${BENCH_SMOKE:-0}" == "1" ]]; then
    "$BUILD_DIR/bench/$bin" --benchmark_min_time=0.01 \
      --benchmark_out="$out" --benchmark_out_format=json
  else
    "$BUILD_DIR/bench/$bin" \
      --benchmark_repetitions="$REPS" \
      --benchmark_report_aggregates_only=true \
      --benchmark_out="$out" --benchmark_out_format=json
  fi
}

# Per-bench latency histogram blocks: benches that record an obs::Histogram
# export its percentiles as p50_ns/p99_ns counters; render them here so the
# distribution shape is visible in the run log, not just the JSON.
print_histogram_blocks() {
  local json="$1"
  python3 - "$json" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
benches = [b for b in doc.get("benchmarks", []) if "p50_ns" in b]
# With --benchmark_repetitions each bench reports per-repetition iteration
# rows plus aggregate rows; print one line per bench, preferring the median
# aggregate and falling back to iteration rows only for benches without one.
aggregated = {b.get("run_name", b["name"]) for b in benches
              if b.get("run_type") == "aggregate"}
rows = [b for b in benches
        if (b.get("run_type") == "aggregate" and b.get("aggregate_name") == "median")
        or (b.get("run_type", "iteration") == "iteration"
            and b.get("run_name", b["name"]) not in aggregated)]
if rows:
    print("per-bench latency histogram blocks:")
    for b in rows:
        print("  [%s] p50=%.0fns p99=%.0fns" % (b["name"], b["p50_ns"], b["p99_ns"]))
EOF
}

# The tab1 batching sweep (paper Table 1) ships its own JSON summary;
# inject it under a top-level "tab1_batching" key so the committed
# BENCH_micro.json carries the log-batching factor and the write-back
# dispatch counters alongside the google-benchmark entries.
inject_tab1() {
  local summary="$1" target="$2"
  python3 - "$summary" "$target" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    tab1 = json.load(f)
with open(sys.argv[2]) as f:
    doc = json.load(f)
doc["tab1_batching"] = tab1
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print("tab1 batching factor: %.1fx (threshold 0)" % tab1["paper_threshold0"]["factor"])
EOF
}

# The multilog/sharded sweep ships its own JSON summary; inject it under
# a top-level "multilog" key in BENCH_engine.json so the shard scale-out
# trajectory (throughput, speedup_vs_1, routing imbalance) is committed
# alongside the engine benches.
inject_multilog() {
  local summary="$1" target="$2"
  python3 - "$summary" "$target" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    multilog = json.load(f)
with open(sys.argv[2]) as f:
    doc = json.load(f)
doc["multilog"] = multilog
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print("sharded sync-write speedup at 4 shards: %.2fx (reposition-bound)"
      % multilog["speedup_4_shards"])
EOF
}

# The Fig. 4 recovery bench ships its own JSON summary (locate/rebuild/
# write-back breakdown vs Q, the pipeline depth-1-vs-8 comparison, and the
# sharded overlapped-mount figure); inject it under a top-level "recovery"
# key in BENCH_engine.json so the recovery-path trajectory is committed
# alongside the engine benches.
inject_recovery() {
  local summary="$1" target="$2"
  python3 - "$summary" "$target" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    recovery = json.load(f)
with open(sys.argv[2]) as f:
    doc = json.load(f)
doc["recovery"] = recovery
with open(sys.argv[2], "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
print("recovery pipeline: rebuild %.1fx, mount %.1fx at depth 8; "
      "4-shard overlapped mount %.1fx"
      % (recovery["pipeline"]["rebuild_speedup"],
         recovery["pipeline"]["mount_speedup"],
         recovery["sharded_mount"]["speedup"]))
EOF
}

# Codec summary: distill the CRC tier throughputs and the tracer's
# bytes/event out of the google-benchmark rows into a top-level "codec"
# key, so the hot-path codec trajectory is one greppable object rather
# than scattered bench entries.
inject_codec() {
  local target="$1"
  python3 - "$target" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
def pick(name):
    rows = [b for b in doc.get("benchmarks", []) if b.get("run_name", b["name"]) == name]
    for b in rows:  # prefer the median aggregate when repetitions ran
        if b.get("aggregate_name") == "median":
            return b
    return rows[0] if rows else None
codec = {}
dispatched = pick("BM_Crc32/16384")
if dispatched:
    codec["crc32_impl"] = dispatched.get("label", "")
    codec["crc32_gbps_16k"] = dispatched.get("bytes_per_second", 0) / 1e9
for tier in ("table", "sliced", "hw"):
    row = pick("BM_Crc32Impl/%s/16384" % tier)
    if row:
        codec["crc32_%s_gbps_16k" % tier] = row.get("bytes_per_second", 0) / 1e9
trace = pick("BM_TraceCapture")
if trace and "bytes_per_event" in trace:
    codec["trace_bytes_per_event"] = trace["bytes_per_event"]
doc["codec"] = codec
with open(sys.argv[1], "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
if "crc32_gbps_16k" in codec:
    print("codec: crc32[%s] %.2f GB/s on 16 KiB, trace %.1f B/event"
          % (codec.get("crc32_impl", "?"), codec["crc32_gbps_16k"],
             codec.get("trace_bytes_per_event", float("nan"))))
EOF
}

if [[ "${BENCH_SMOKE:-0}" == "1" ]]; then
  SMOKE_DIR="$(mktemp -d)"
  trap 'rm -rf "$SMOKE_DIR"' EXIT
  run_bench bench_engine "$SMOKE_DIR/engine.json"
  run_bench bench_micro "$SMOKE_DIR/micro.json"
  "$BUILD_DIR/bench/bench_tab1_batching" "$SMOKE_DIR/tab1.json"
  "$BUILD_DIR/bench/bench_multilog" "$SMOKE_DIR/multilog.json"
  TRAIL_FIG4_PREFILL="${TRAIL_FIG4_PREFILL:-200}" \
    "$BUILD_DIR/bench/bench_fig4_recovery" --json "$SMOKE_DIR/recovery.json" >/dev/null
  inject_tab1 "$SMOKE_DIR/tab1.json" "$SMOKE_DIR/micro.json"
  inject_multilog "$SMOKE_DIR/multilog.json" "$SMOKE_DIR/engine.json"
  inject_recovery "$SMOKE_DIR/recovery.json" "$SMOKE_DIR/engine.json"
  inject_codec "$SMOKE_DIR/micro.json"
  print_histogram_blocks "$SMOKE_DIR/engine.json"
else
  # Snapshot the committed JSONs so the refreshed run can be diffed
  # against them (scripts/compare_bench.py -> BENCH_SUMMARY.json).
  PREV_DIR="$(mktemp -d)"
  TAB1_JSON="$(mktemp)"
  MULTILOG_JSON="$(mktemp)"
  RECOVERY_JSON="$(mktemp)"
  trap 'rm -rf "$TAB1_JSON" "$MULTILOG_JSON" "$RECOVERY_JSON" "$PREV_DIR"' EXIT
  for f in BENCH_engine.json BENCH_micro.json; do
    [[ -f "$f" ]] && cp "$f" "$PREV_DIR/$f"
  done
  run_bench bench_engine BENCH_engine.json
  run_bench bench_micro BENCH_micro.json
  "$BUILD_DIR/bench/bench_tab1_batching" "$TAB1_JSON"
  "$BUILD_DIR/bench/bench_multilog" "$MULTILOG_JSON"
  # Virtual-time bench: prefill size trades log-arc realism for wall-clock.
  # 3000 tracks keeps the refresh under a minute while preserving the
  # locate/rebuild/overlap ratios; override for paper-scale (30000) runs.
  TRAIL_FIG4_PREFILL="${TRAIL_FIG4_PREFILL:-3000}" \
    "$BUILD_DIR/bench/bench_fig4_recovery" --json "$RECOVERY_JSON" >/dev/null
  inject_tab1 "$TAB1_JSON" BENCH_micro.json
  inject_multilog "$MULTILOG_JSON" BENCH_engine.json
  inject_recovery "$RECOVERY_JSON" BENCH_engine.json
  inject_codec BENCH_micro.json
  print_histogram_blocks BENCH_engine.json
  PAIRS=()
  for f in BENCH_engine.json BENCH_micro.json; do
    [[ -f "$PREV_DIR/$f" ]] && PAIRS+=("$PREV_DIR/$f" "$f")
  done
  if [[ ${#PAIRS[@]} -gt 0 ]]; then
    python3 scripts/compare_bench.py "${PAIRS[@]}" -o BENCH_SUMMARY.json
  fi
  echo "wrote BENCH_engine.json and BENCH_micro.json"
fi
