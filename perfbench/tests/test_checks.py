#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/tests/test_checks.py

Each check is fed a correct output, which must pass, then the same
output with one byte (or one counter) corrupted, which must fail. The
last test runs the benchmark in a directory that holds only
BENCHMARK.json and perfbench/, where it must exit nonzero without
printing a result. No harness build is needed.
"""

import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
import run  # noqa: E402


def corrupt(data, at=100):
    """`data` with one byte changed."""
    out = bytearray(data)
    out[at] ^= 0x01
    return bytes(out)


def fake_rep(result, files=None, rep_dir=None):
    rep = SimpleNamespace(result=result, files=files or {}, dir=rep_dir)
    rep.counter = lambda key: result.get("mix", result).get(key)
    return rep


class SweepChecks(unittest.TestCase):
    def setUp(self):
        self.refs = run.load_refs()

    def full_rep(self, seed=42):
        want = self.refs["full"][str(seed)]
        files = {name: (run.REFS_DIR / f"full_s{seed}{Path(name).suffix}").read_bytes()
                 for name in ("matrix.csv", "matrix.hex")}
        return fake_rep(dict(want, workloads=32), files)

    def test_full_matrix_matches_reference(self):
        self.assertEqual(run.check_sweep("sweep-full", 0, self.full_rep(), self.refs), [])

    def test_full_matrix_one_byte_off_fails(self):
        for name in ("matrix.csv", "matrix.hex"):
            rep = self.full_rep()
            rep.files[name] = corrupt(rep.files[name])
            fails = run.check_sweep("sweep-full", 0, rep, self.refs)
            self.assertTrue(any(name in f for f in fails), (name, fails))

    def test_zero_ops_fails(self):
        rep = self.full_rep()
        rep.result["ops"] = 0
        fails = run.check_sweep("sweep-full", 0, rep, self.refs)
        self.assertTrue(any("zero ops" in f for f in fails), fails)

    def test_counter_off_by_one_fails(self):
        rep = self.full_rep()
        rep.result["l2_misses"] += 1
        fails = run.check_sweep("sweep-full", 0, rep, self.refs)
        self.assertTrue(any("l2_misses" in f for f in fails), fails)

    def sampled_case(self):
        hexdata = (run.REFS_DIR / "full_s42.hex").read_bytes()
        counters = {"ops": 10, "detail_ops": 2, "warm_ops": 8, "l2_misses": 1}
        refs = {"sampled": {"42": dict(counters, findings_preserved=20,
                                       sha256=hashlib.sha256(hexdata).hexdigest())}}
        rep = fake_rep(dict(counters, workloads=32, findings_preserved=20),
                       {"matrix.hex": hexdata})
        return rep, refs

    def test_sampled_matrix_and_findings(self):
        rep, refs = self.sampled_case()
        self.assertEqual(run.check_sweep("sweep-sampled", 0, rep, refs), [])
        rep.files["matrix.hex"] = corrupt(rep.files["matrix.hex"])
        fails = run.check_sweep("sweep-sampled", 0, rep, refs)
        self.assertTrue(any("sampled matrix" in f for f in fails), fails)

    def test_sampled_findings_lost_fails(self):
        rep, refs = self.sampled_case()
        rep.result["findings_preserved"] = 19
        fails = run.check_sweep("sweep-sampled", 0, rep, refs)
        self.assertTrue(any("findings" in f for f in fails), fails)

    def test_repetitions_must_repeat(self):
        a, b = self.full_rep(), self.full_rep()
        self.assertEqual(run.check_repeats([a, b], run.SWEEP_COUNTERS), [])
        b.files["matrix.hex"] = corrupt(b.files["matrix.hex"])
        self.assertTrue(run.check_repeats([a, b], run.SWEEP_COUNTERS))
        c = self.full_rep()
        c.result["ops"] += 1
        fails = run.check_repeats([a, c], run.SWEEP_COUNTERS)
        self.assertTrue(any("counter ops" in f for f in fails), fails)


class ServeChecks(unittest.TestCase):
    def setUp(self):
        self.refs = run.load_refs()
        self.tmp = Path(tempfile.mkdtemp())
        # Full-detail cells on the default machine have the sweep's CSV
        # as their payload, so the committed references serve as
        # correct payloads.
        self.plan = {"cells": [(s, "default") for s in run.DATA_SEEDS],
                     "computes": 3, "evictions": 1}
        for i, (s, _) in enumerate(self.plan["cells"]):
            shutil.copy(run.REFS_DIR / f"full_s{s}.csv", self.tmp / f"payload_{i}.csv")
        self.mix = {"errors": 0, "payload_mismatches": 0, "requests": 1000,
                    "computes": 3, "evictions": 1, "publishes": 3, "hits": 997}

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def check(self):
        return run.check_serve(fake_rep({"mix": self.mix}, rep_dir=self.tmp),
                               self.plan, self.refs)

    def test_correct_mix_passes(self):
        self.assertEqual(self.check(), [])

    def test_payload_one_byte_off_fails(self):
        path = self.tmp / "payload_2.csv"
        path.write_bytes(corrupt(path.read_bytes()))
        fails = self.check()
        self.assertTrue(any("payload of cell" in f for f in fails), fails)

    def test_payload_identity_fails(self):
        self.mix["payload_mismatches"] = 1
        self.assertTrue(any("differ from" in f for f in self.check()))

    def test_extra_compute_fails(self):
        self.mix["computes"] = 4
        self.assertTrue(any("computes" in f for f in self.check()))

    def test_double_publish_fails(self):
        self.mix["publishes"] = 4
        self.assertTrue(any("publishes" in f for f in self.check()))

    def test_hit_turned_miss_fails(self):
        self.mix["hits"] = 996
        self.assertTrue(any("hits" in f for f in self.check()))

    def test_error_response_fails(self):
        self.mix["errors"] = 1
        self.mix["first_error"] = "overloaded"
        self.assertTrue(any("error responses" in f for f in self.check()))


class SpanTable(unittest.TestCase):
    def test_self_time_subtracts_union_of_parallel_children(self):
        rows = [("ledger", 0, 100, -1), ("a", 10, 60, 0), ("a", 40, 90, 0),
                ("b", 20, 30, 1)]
        with tempfile.NamedTemporaryFile("w", suffix=".jsonl", delete=False) as f:
            for i, (name, lo, hi, parent) in enumerate(rows):
                f.write(json.dumps({"i": i, "name": name, "id": "", "start_ns": lo,
                                    "end_ns": hi, "parent": parent}) + "\n")
        try:
            spans = run.Spans(Path(f.name))
        finally:
            Path(f.name).unlink()
        table = run.span_table(spans)
        # ledger: 100 minus the union 10..90 of its two children.
        self.assertAlmostEqual(table["ledger"][2], 20e-9)
        self.assertEqual(table["a"][0], 2)
        self.assertAlmostEqual(table["a"][2], 90e-9)
        totals = run.probe_totals(spans)
        self.assertEqual(sorted(totals), ["a", "b"])
        self.assertAlmostEqual(totals["a"], 100e-9)
        self.assertAlmostEqual(totals["b"], 10e-9)


class BareCheckout(unittest.TestCase):
    def test_fails_without_sources(self):
        tmp = Path(tempfile.mkdtemp())
        try:
            shutil.copytree(run.HERE, tmp / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
            out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                  "sweep-full", "--seed", "1", "--seconds", "1",
                                  "--trace", "0"], cwd=tmp, capture_output=True,
                                 text=True, timeout=120)
            self.assertNotEqual(out.returncode, 0)
            for line in out.stdout.splitlines():
                self.assertFalse(line.startswith("{"), line)
        finally:
            shutil.rmtree(tmp)


if __name__ == "__main__":
    unittest.main()
