#!/usr/bin/env python3
"""Tests of the benchmark itself, at a tiny size per workload.

    python3 perfbench/test_perfbench.py

Builds the benchmark like run.py does, then checks that every metric
BENCHMARK.json names prints with its unit, that the exact partitions hold,
that a planted stale sector is caught, that virtual time depends only on the
seed, that run.py prints the contract's last line, and that run.py fails
cleanly where the library sources are missing.
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as perfbench_run  # noqa: E402

WORKLOADS = perfbench_run.WORKLOADS
VIRTUAL = ("virt_mean_ms", "virt_tail_ms", "virt_ops_per_s")


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = perfbench_run.build()
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def run_binary(self, workload, trace, *extra, seed=7):
        done = subprocess.run(
            [self.binary, "--workload", workload, "--seed", str(seed), "--seconds", "0",
             "--trace", str(trace), "--tiny", *extra],
            capture_output=True, text=True, check=True)
        lines = done.stdout.rstrip("\n").split("\n")
        return lines[:-1], json.loads(lines[-1])

    def test_every_metric_prints_with_its_unit(self):
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    lines, result = self.run_binary(workload, trace)
                    self.assertTrue(result["correct"], "\n".join(lines))
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {m["name"]: m["unit"] for m in self.spec[key]}
                    names = list(units)
                    if trace == 0:
                        names += perfbench_run.NAMED[workload]
                    printed = {(p[1], p[3]) for p in
                               (l.split() for l in lines if l.startswith("metric "))}
                    for name in names:
                        unit = result["metrics"][name]["unit"]
                        self.assertEqual(unit, units.get(name, unit), name)
                        self.assertIn((name, unit), printed)

    def test_partitions_hold(self):
        expected = {
            "disk.log: overhead+seek+rotation+transfer == busy",
            "disk.data: overhead+seek+rotation+transfer == busy",
            "req.phase.* sums == req.total_ns",
            "virtual-time fingerprint identical in every episode",
        }
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                lines, result = self.run_binary(workload, 1)
                ran = {l[len("check ran "):] for l in lines if l.startswith("check ran ")}
                want = set(expected)
                if workload == "crash_mount":
                    want.add("recovery: locate+rebuild+write-back <= mount_ms")
                self.assertLessEqual(want, ran)
                self.assertFalse([l for l in lines if l.startswith("check FAIL")])
                self.assertTrue(result["correct"])
                if workload == "crash_mount":
                    self.assertGreater(result["metrics"]["recovery.locate_ms"]["value"], 0)
                    self.assertGreater(result["metrics"]["recovery.records_found"]["value"], 0)

    def test_planted_stale_sector_is_caught(self):
        lines, result = self.run_binary("sync_burst", 0, "--plant-stale")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue([l for l in lines if l.startswith("check FAIL") and "stale" in l])

    def test_virtual_time_depends_only_on_the_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, a = self.run_binary(workload, 0, seed=5)
                _, b = self.run_binary(workload, 0, seed=5)
                _, c = self.run_binary(workload, 0, seed=6)
                values = lambda r: [r["metrics"][n]["value"] for n in VIRTUAL]
                self.assertEqual(values(a), values(b))
                self.assertNotEqual(values(a), values(c))

    def test_run_py_prints_the_contract_line(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", "crash_mount",
                 "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().split("\n")[-1])
            self.assertEqual(sorted(result), ["attempted", "correct", "failed", "metrics"])
            self.assertEqual(sorted(result["metrics"]), sorted(m["name"] for m in self.spec[key]))

    def test_run_py_fails_without_the_sources(self):
        scratch = tempfile.mkdtemp(dir=perfbench_run.build_dir())
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
            done = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                 "sync_burst", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=scratch, env=env, capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(scratch)


if __name__ == "__main__":
    unittest.main()
