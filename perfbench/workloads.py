"""The benchmark's workloads: inputs made from a seed, a fixed job list, and
a check per job that runs after the timed region.

Every job calls patternlab through a module attribute looked up at call time
(``pl.maximize``, ``pl.cli.main``), so the span wrappers of ``spans.py`` see
it.  A check returns ``None`` when the output is right and a reason when it
is not.

Why each workload:

* ``dense`` -- a few large dense maximizations where the S x E x m polynomial
  passes dominate; sparse kernels and fewer iterations show here first.
* ``exact`` -- no float optimizer at all: integer grid enumeration, gluing,
  the decomposition identity, blowup materialization and a CLI write/read
  round trip.  Optimizer changes should leave it unchanged.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import patternlab as pl
import patternlab.cli


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class CliResult:
    code: int
    stdout: str


def run_cli(argv: list[str]) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pl.cli.main(argv)
    return CliResult(code, out.getvalue())


def _cli_document(res: CliResult) -> tuple[dict | None, str | None]:
    if res.code != 0:
        return None, f"exit code {res.code}"
    try:
        return json.loads(res.stdout), None
    except json.JSONDecodeError as exc:
        return None, f"stdout is not JSON: {exc}"


def _within(value: float, exact, tol: float = 1e-9) -> str | None:
    if abs(value - float(exact)) > tol:
        return f"value {value!r} differs from {exact} by more than {tol}"
    return None


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------


def _check_converged_value(exact) -> Callable[[object], str | None]:
    def check(rep) -> str | None:
        if not rep.converged:
            return "optimizer did not converge"
        return _within(rep.value, exact)
    return check


def _check_beats_grid(P) -> Callable[[object], str | None]:
    grid: list[Fraction] = []

    def check(rep) -> str | None:
        if not rep.converged:
            return "optimizer did not converge"
        if not grid:
            grid.append(pl.grid_oracle(P, 12))
        if rep.value < float(grid[0]) - 1e-9:
            return f"value {rep.value!r} loses to the d=12 grid maximum {grid[0]}"
        return None
    return check


def _complete_value(m: int, r: int) -> Fraction:
    return Fraction(math.factorial(r) * math.comb(m, r), m**r)


def _offdiagonal_value(m: int, r: int) -> Fraction:
    return 1 - Fraction(1, m ** (r - 1))


def dense_jobs(seed: int, workdir: str) -> list[Job]:
    # A fixed job list: the optimizer keeps its default settings, and only
    # the random patterns come from the benchmark seed.
    jobs = []
    for m, r in ((16, 3), (10, 4), (12, 3)):
        P = pl.complete_pattern(m, r)
        jobs.append(Job(f"maximize complete({m},{r})", lambda P=P: pl.maximize(P),
                        _check_converged_value(_complete_value(m, r))))
    for m, r in ((3, 3), (6, 3)):
        P = pl.offdiagonal_pattern(m, r)
        jobs.append(Job(f"maximize offdiagonal({m},{r})", lambda P=P: pl.maximize(P),
                        _check_converged_value(_offdiagonal_value(m, r))))
    # m = 5, not 7: one m = 7 solve takes 0.09 s to 2.5 s depending on the
    # draw, which would make wall time follow the seed rather than the code.
    rng = np.random.default_rng(seed)
    for k in range(3):
        P = pl.random_pattern(rng, 5, 3)
        jobs.append(Job(f"maximize random #{k}", lambda P=P: pl.maximize(P),
                        _check_beats_grid(P)))
    G, _ = pl.blowup(pl.complete_pattern(4, 3), (3, 3, 3, 3))
    jobs.append(Job("lagrangian_of_hypergraph K4^3(3,3,3,3)",
                    lambda: pl.lagrangian_of_hypergraph(G),
                    _check_converged_value(_complete_value(4, 3))))
    return jobs


# ---------------------------------------------------------------------------
# exact
# ---------------------------------------------------------------------------


def _check_equal(expected) -> Callable[[object], str | None]:
    def check(got) -> str | None:
        return None if got == expected else f"got {got!r}, expected {expected!r}"
    return check


def union_edge_count(P1, P2, glue) -> int:
    """|T|*|E2| + sum over host edges of prod_j C(m2 + s_j - 1, s_j): each
    glued slot of multiplicity s is refilled by every s-multiset on a block.
    Exact when no host edge is a glued index's diagonal."""
    total = len(glue) * P2.edge_count
    for e in P1.edges:
        term = 1
        for j, s in e.counts().items():
            if j in glue:
                term *= math.comb(P2.m + s - 1, s)
        total += term
    return total


def _union_job(P1, P2, label: str) -> Job:
    glue = tuple(range(1, P1.m + 1))
    expected = (P1.m + len(glue) * (P2.m - 1), union_edge_count(P1, P2, glue))

    def run():
        U, _ = pl.union_on_set(P1, P2, glue)
        return U.m, U.edge_count
    return Job(f"union {label}", run, _check_equal(expected))


def _decomposition_job(trials) -> Job:
    def run():
        return max(abs(lhs - rhs) for lhs, rhs in
                   (pl.eval_decomposition(P1, P2, glue, x) for P1, P2, glue, x in trials))

    def check(gap) -> str | None:
        return None if gap < 1e-12 else f"decomposition gap {gap!r} >= 1e-12"
    return Job(f"eval_decomposition x{len(trials)}", run, check)


def _blowup_job(P, sizes, label: str) -> Job:
    def run():
        G, _ = pl.blowup(P, sizes)
        return G.edge_count, pl.blowup_edge_count(P, sizes), pl.density(G)

    n = sum(sizes)
    closed = sum(math.prod(math.comb(sizes[i - 1], s) for i, s in e.counts().items())
                 for e in P.edges)
    return Job(f"blowup {label}", run,
               _check_equal((closed, closed, closed / math.comb(n, P.r))))


def _roundtrip_jobs(workdir: str) -> list[Job]:
    host, inner = pl.offdiagonal_pattern(3, 3), pl.offdiagonal_pattern(3, 3)
    host_file = os.path.join(workdir, "host.json")
    inner_file = os.path.join(workdir, "inner.json")
    union_file = os.path.join(workdir, "union.json")
    graph_file = os.path.join(workdir, "graph.json")
    pl.save_pattern(host, host_file)
    pl.save_pattern(inner, inner_file)
    glue = tuple(range(1, host.m + 1))
    sizes = [4] * (host.m + len(glue) * (inner.m - 1))

    def blowup_edges() -> int:
        return pl.blowup_edge_count(pl.union_on_set(host, inner, glue)[0], sizes)

    def density_text() -> str:
        ratio = Fraction(blowup_edges(), math.comb(sum(sizes), host.r))
        return f"{ratio.numerator}/{ratio.denominator}"

    def check_field(key, expected: Callable[[], object]):
        def check(res: CliResult) -> str | None:
            doc, err = _cli_document(res)
            if err:
                return err
            got, want = doc["result"][key], expected()
            return None if got == want else f"{key} is {got!r}, expected {want!r}"
        return check

    return [
        Job("cli union --out", lambda: run_cli(
            ["union", host_file, inner_file, "--on-set", "all", "--out", union_file]),
            check_field("edges", lambda: union_edge_count(host, inner, glue))),
        Job("cli blowup --out", lambda: run_cli(
            ["blowup", "--pattern", union_file, "--sizes", ",".join(map(str, sizes)),
             "--out", graph_file]),
            check_field("edges", blowup_edges)),
        Job("cli density", lambda: run_cli(["density", graph_file]),
            check_field("value", density_text)),
    ]


def exact_jobs(seed: int, workdir: str) -> list[Job]:
    jobs = []
    grids = (
        ("complete(5,3)", pl.complete_pattern(5, 3), 40, _complete_value(5, 3)),
        ("complete(6,3)", pl.complete_pattern(6, 3), 24, _complete_value(6, 3)),
        ("offdiagonal(4,3)", pl.offdiagonal_pattern(4, 3), 40, _offdiagonal_value(4, 3)),
        ("K6", pl.pattern_of_hypergraph(pl.complete_graph(6)), 24, _complete_value(6, 2)),
    )
    # Each d is a multiple of m, so the grid holds the uniform maximizer and
    # the grid maximum is the Lagrangian itself.
    for label, P, d, exact in grids:
        jobs.append(Job(f"grid_oracle {label} d={d}", lambda P=P, d=d: pl.grid_oracle(P, d),
                        _check_equal(exact)))
    for r in (3, 4):
        for m1 in (3, 4, 5):
            host = pl.offdiagonal_pattern(m1, r)
            jobs.append(_union_job(host, pl.offdiagonal_pattern(3, r),
                                   f"offdiagonal({m1},{r}) <- offdiagonal(3,{r})"))
            jobs.append(_union_job(host, pl.complete_pattern(r + 1, r),
                                   f"offdiagonal({m1},{r}) <- complete({r + 1},{r})"))
    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(400):
        m1, m2 = (int(v) for v in rng.integers(1, 5, size=2))
        i = int(rng.integers(1, m1 + 1))
        P1 = pl.random_pattern(rng, m1, 3, exclude=[[i] * 3])
        P2 = pl.random_pattern(rng, m2, 3)
        w = rng.standard_exponential(m1 + m2 - 1)
        trials.append((P1, P2, (i,), w / w.sum()))
    jobs.append(_decomposition_job(trials))
    blowups = (
        ("offdiagonal(3,3) x16", pl.offdiagonal_pattern(3, 3), [16] * 3),
        ("complete(5,3) x14", pl.complete_pattern(5, 3), [14] * 5),
        ("complete(4,3) x20", pl.complete_pattern(4, 3), [20] * 4),
        ("<1,1,2> 60+30", pl.Pattern(2, 3, [[1, 1, 2]]), [60, 30]),
        ("complete(4,4) x18", pl.complete_pattern(4, 4), [18] * 4),
    )
    for label, P, sizes in blowups:
        jobs.append(_blowup_job(P, sizes, label))
    jobs.extend(_roundtrip_jobs(workdir))
    return jobs


WORKLOADS = {"dense": dense_jobs, "exact": exact_jobs}
