"""Tests of the benchmark's own logic.  Run from the root of a checkout:

    python3 perfbench/selftest.py

They are kept out of the package's pytest suite on purpose: they test the
harness, not patternlab.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import patternlab as pl  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        S = spans.Span
        tree = [
            S("a", 0.0, 10.0, -1, 0),
            S("b", 1.0, 4.0, 0, 0),
            S("c", 3.0, 6.0, 0, 0),   # overlaps b: together they cover [1, 6]
            S("d", 2.0, 3.0, 1, 0),   # grandchild: counts against b only
            S("e", 9.0, 12.0, 0, 0),  # runs past its parent: clipped to [9, 10]
        ]
        self.assertEqual(spans.self_times(tree), [4.0, 2.0, 3.0, 1.0, 3.0])

    def test_layer_totals(self):
        tr = spans.Tracer()
        tr.spans = [spans.Span("lagrangian.lagrangian_of_hypergraph", 0.0, 5.0, -1, 0),
                    spans.Span("lagrangian.maximize", 1.0, 3.0, 0, 0),
                    spans.Span("lagrangian.maximize", 6.0, 7.0, -1, 1)]
        out = spans.layer_metrics(tr)
        self.assertEqual(out["lagrangian.maximize.calls"], 2)
        self.assertEqual(out["lagrangian.maximize.self_s"], 3.0)
        self.assertEqual(out["lagrangian.maximize.p50_ms"], 1500.0)
        self.assertEqual(out["lagrangian.lagrangian_of_hypergraph.self_s"], 3.0)
        self.assertEqual(out["lagrangian.grid_oracle.points"], 0)


class Spec(unittest.TestCase):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())

    def test_names_and_units(self):
        names = [w["name"] for w in self.spec["workloads"]]
        for group in ("end_to_end", "per_layer"):
            for m in self.spec[group]:
                self.assertRegex(m["name"], NAME)
                self.assertTrue(UNIT.fullmatch(m["unit"]), m["unit"])
                self.assertIn(m["better"], ("higher", "lower"))
                names.append(m["name"])
        for name in names:
            self.assertTrue(NAME.fullmatch(name), name)
        self.assertEqual(len(names), len(set(names)))
        self.assertEqual(set(w["name"] for w in self.spec["workloads"]),
                         set(workloads.WORKLOADS))

    def test_every_per_layer_metric_is_produced(self):
        produced = set(spans.layer_metrics(spans.Tracer()))
        produced |= {"cli.main.stdout_bytes", "trace.overhead_s"}
        declared = {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(declared - produced, set())


class Failures(unittest.TestCase):
    def test_planted_wrong_answers_count_as_failed(self):
        dense = {j.name: j for j in workloads.dense_jobs(1, ".")}
        with tempfile.TemporaryDirectory() as tmp:
            exact = {j.name: j for j in workloads.exact_jobs(1, tmp)}
        good = exact["union offdiagonal(3,3) <- offdiagonal(3,3)"]
        grid = exact["grid_oracle complete(5,3) d=40"]
        solve = dense["maximize complete(16,3)"]

        def boom():
            raise RuntimeError("planted")

        jobs = [
            good,
            workloads.Job(grid.name, lambda: Fraction(1, 2), grid.check),
            workloads.Job(solve.name, lambda: SimpleNamespace(value=0.82, converged=True),
                          solve.check),
            workloads.Job("raises", boom, good.check),
        ]
        with contextlib.redirect_stderr(io.StringIO()):
            attempted, failed = run.check_passes(jobs, [run.run_pass(jobs)])
        self.assertEqual((attempted, failed), (4, 3))

    def test_cli_output_must_repeat(self):
        a = run.Pass([(workloads.CliResult(0, "x"), None)], 1.0)
        b = run.Pass([(workloads.CliResult(0, "y"), None)], 1.0)
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertFalse(run.deterministic("cli", 0, [a, b]))


class Wrapping(unittest.TestCase):
    def test_nested_calls_through_by_value_imports_are_traced(self):
        tr = spans.Tracer()
        patched = spans.install(tr)
        try:
            pl.blowups.construction_lagrangian_check(pl.Pattern(2, 3, [[1, 1, 2]]), [2, 2])
        finally:
            spans.uninstall(patched)
        # blowups imported blowup, lagrangian_of_hypergraph and maximize by value.
        tree = [(s.name, tr.spans[s.parent].name if s.parent >= 0 else None)
                for s in tr.spans]
        self.assertEqual(tree, [
            ("blowups.blowup", None),
            ("lagrangian.lagrangian_of_hypergraph", None),
            ("patterns.build", "lagrangian.lagrangian_of_hypergraph"),
            ("lagrangian.maximize", "lagrangian.lagrangian_of_hypergraph"),
            ("lagrangian.maximize", None),
        ])
        for module in (pl, pl.lagrangian, pl.algebra, pl.blowups):
            self.assertFalse(hasattr(module.maximize, "__wrapped__"))

    def test_saved_bytes_are_counted_once(self):
        tr = spans.Tracer()
        P = pl.complete_pattern(4, 3)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.json"
            patched = spans.install(tr)
            try:
                pl.save_pattern(P, path)
            finally:
                spans.uninstall(patched)
            size = path.stat().st_size
        self.assertEqual([s.name for s in tr.spans], ["patterns.io", "patterns.io"])
        self.assertEqual(tr.counters["patterns.io.bytes"], size)


if __name__ == "__main__":
    unittest.main()
