#!/usr/bin/env python3
"""End-to-end benchmark of the Trail reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload sync_burst --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

The first call builds perfbench/ (with the library sources under src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Each workload runs in
its own process. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; the metrics are the
end_to_end list of BENCHMARK.json with --trace 0 and its per_layer list
with --trace 1. `--workload all` runs the three workloads untraced and ends
with a table of every end-to-end metric under its workload-specific name.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sync_burst", "tpcc", "crash_mount"]
# The workload-specific names of the end-to-end metrics, per workload.
NAMED = {
    "sync_burst": ["write_mean_ms", "write_p50_ms", "write_p99_ms", "write_wps",
                   "host_writes_per_s", "setup_s", "peak_rss_mb", "fail_frac"],
    "tpcc": ["txn_mean_ms", "txn_p50_ms", "txn_p99_ms", "tpmc", "host_txns_per_s",
             "setup_s", "peak_rss_mb", "fail_frac"],
    "crash_mount": ["mount_ms", "mount_host_ms", "setup_s", "peak_rss_mb", "fail_frac"],
}
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configure (once) and build the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; nothing to build")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench")


def source_stamp():
    """Git commit when there is one, plus a digest of the built sources."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return f"{commit} src-sha256:{digest.hexdigest()[:16]}"


def run_binary(binary, workload, args, trace):
    cmd = [binary, "--workload", workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(trace), "--commit", source_stamp()]
    if args.tiny:
        cmd.append("--tiny")
    if args.plant_stale:
        cmd.append("--plant-stale")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=BINARY_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        fail(f"{workload} exited with code {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def contract_result(spec, result, trace):
    """Keeps exactly the metrics BENCHMARK.json names, checking their units."""
    metrics = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail(f"metric {entry['name']} missing from the output")
        if got["unit"] != entry["unit"]:
            fail(f"metric {entry['name']} has unit {got['unit']}, expected {entry['unit']}")
        metrics[entry["name"]] = {"value": got["value"], "unit": entry["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true", help="test-sized episodes")
    parser.add_argument("--plant-stale", action="store_true",
                        help="sync_burst: corrupt one acked sector to exercise the check")
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as f:
        spec = json.load(f)
    binary = build()

    if args.workload != "all":
        lines, result = run_binary(binary, args.workload, args, args.trace)
        print("\n".join(lines))
        print(json.dumps(contract_result(spec, result, args.trace)))
        return

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        lines, result = run_binary(binary, workload, args, 0)
        print(f"=== {workload}")
        print("\n".join(line for line in lines if not line.startswith("metric ")))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name in NAMED[workload]:
            combined["metrics"][f"{workload}.{name}"] = result["metrics"][name]
    print("\n=== end-to-end metrics")
    for name, metric in combined["metrics"].items():
        print(f"{name:<34} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
