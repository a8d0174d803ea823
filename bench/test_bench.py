"""Tests of the benchmark itself.

    python3 -m unittest discover -s bench -p 'test_*.py'

They show that the metric names printed match ``BENCHMARK.json``, that a
wrong answer raises the failure count and fails the run, and that a seed
fixes the corpus.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_package()

import popgraph as pg  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def scratch_dir():
    run.OUT.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=run.OUT)


class TestMetricNames(unittest.TestCase):
    def setUp(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.workloads = [w["name"] for w in spec["workloads"]]

    def test_declared_names_match(self):
        self.assertEqual(run.END_TO_END, self.e2e)
        self.assertEqual(run.PER_LAYER, self.layers)
        self.assertEqual(list(run.WORKLOADS), self.workloads)

    def test_printed_names_match(self):
        for trace, want in ((0, self.e2e), (1, self.layers)):
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", "verify",
                 "--seed", "3", "--seconds", "0.2", "--trace", str(trace)],
                cwd=run.ROOT, capture_output=True, text=True, timeout=170)
            self.assertEqual(done.returncode, 0, done.stderr)
            result = _last_json(done.stdout)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(got, want)
            for name, m in result["metrics"].items():
                self.assertTrue(math.isfinite(m["value"]), name)


class TestPlantedWrongAnswer(unittest.TestCase):
    def test_wrong_expected_count_fails_the_run(self):
        real = workloads.CORPORA["verify"]

        def planted(rng, root, workdir):
            items = real(rng, root, workdir)
            items[0] = workloads._count_item("count_bare7", pg.bare_edges(7),
                                             math.factorial(7) + 1)
            return items

        workloads.CORPORA["verify"] = planted
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", "verify", "--seed", "4",
                                 "--seconds", "0", "--trace", "0"])
        finally:
            workloads.CORPORA["verify"] = real
        result = _last_json(out.getvalue())
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("fail_ratio", out.getvalue())
        report = json.loads((run.OUT / "verify-seed4-trace0.json").read_text(encoding="utf-8"))
        self.assertGreater(report["fail_ratio"], 0)
        self.assertTrue(any(f.startswith("count_bare7") for f in report["failures"]))

    def test_every_reject_input_is_refused_as_planned(self):
        with scratch_dir() as tmp:
            workdir = Path(tmp)
            items = workloads.build("reject", 5, run.ROOT, workdir)
            wrong = []
            for item in items:
                try:
                    outcome = item.op(0)
                except pg.PpgError as err:
                    outcome = err
                why = item.check(outcome)
                if why:
                    wrong.append((item.name, why))
        self.assertEqual(wrong, [])


class TestSeededCorpus(unittest.TestCase):
    def test_same_seed_same_digest(self):
        with scratch_dir() as tmp:
            workdir = Path(tmp)
            for workload in run.WORKLOADS:
                first = workloads.digest(workloads.build(workload, 7, run.ROOT, workdir))
                again = workloads.digest(workloads.build(workload, 7, run.ROOT, workdir))
                other = workloads.digest(workloads.build(workload, 8, run.ROOT, workdir))
                self.assertEqual(first, again, workload)
                self.assertNotEqual(first, other, workload)


class TestPieces(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(1, 101)), 100), (90.0, 90, 10))
        self.assertEqual(run.tail(list(range(1, 40)), 39), (50.0, 20, 19))
        self.assertEqual(run.tail([3.0, 1.0], 2), (100.0, 3.0, 0))
        # a faster run with more samples keeps the planned percentile
        self.assertEqual(run.tail(list(range(1, 1001)), 100), (90.0, 900, 100))

    def test_tracer_records_spans_and_restores_the_package(self):
        text = workloads.without_order(workloads.fixture_text(run.ROOT, "canonical19.ppg"))
        originals = (pg.cli.parse_ppg, pg.ppgfile.synthesize_order,
                     pg.DirectedMultigraph.in_edges)
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.op = 0
            workloads.synthesize_op(text)
            tracer.op = None
        finally:
            tracer.remove()
        self.assertEqual((pg.cli.parse_ppg, pg.ppgfile.synthesize_order,
                          pg.DirectedMultigraph.in_edges), originals)
        times = tracer.self_times()
        for name in ("ppgfile.parse_ppg", "synthesis.synthesize_order",
                     "order.order_from_conjugate", "order.validate_planar_order"):
            self.assertIn(name, times)
        self.assertEqual(tracer.counts["synthesis.compare_edges.calls"], 19 * 18 / 2)
        total = sum(end - start for _, start, end, parent, _ in tracer.spans if parent < 0)
        self.assertAlmostEqual(sum(s for s, _ in times.values()), total, places=9)


if __name__ == "__main__":
    unittest.main()
