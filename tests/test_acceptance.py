"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here.
"""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np

import patternlab as pl
from patternlab import Pattern
from patternlab.cli import main
from patternlab.data import example_path
from patternlab.lagrangian import eval_lagrange_unnormalized

from conftest import random_simplex


def _verdict(num, ok, detail):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _cli_value(capsys, path):
    code = main(["lambda", str(path)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    return doc["result"]["report"]["value"]


def test_criterion_01_lambda_exactness(capsys):
    started = time.perf_counter()
    v_heavy = _cli_value(capsys, example_path("p_112.json"))
    v_triple = _cli_value(capsys, example_path("triple.json"))
    elapsed = time.perf_counter() - started
    ok = (abs(v_heavy - 4 / 9) < 1e-9 and abs(v_triple - 2 / 9) < 1e-9
          and elapsed < 1.0)
    _verdict(1, ok, f"lambda values {v_heavy:.12f}/{v_triple:.12f} "
                    f"(targets 4/9, 2/9 at 1e-9), {elapsed:.2f}s")


def test_criterion_02_motzkin_straus_oracle():
    started = time.perf_counter()
    worst = 0.0
    grids_exact = True
    for m in range(2, 9):
        P = pl.pattern_of_hypergraph(pl.complete_graph(m))
        rep = pl.maximize(P)
        worst = max(worst, abs(rep.value - (1 - 1 / m)))
        grids_exact = grids_exact and pl.grid_oracle(P, m) == Fraction(m - 1, m)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-8 and grids_exact and elapsed < 10.0
    _verdict(2, ok, f"max |lambda(K_m) - (1-1/m)| = {worst:.2e} over m=2..8, "
                    f"grid oracle exact: {grids_exact}, {elapsed:.2f}s")


def test_criterion_03_decomposition_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        m1 = int(rng.integers(1, 5))
        m2 = int(rng.integers(1, 5))
        i = int(rng.integers(1, m1 + 1))
        P1 = pl.random_pattern(rng, m1, 3, exclude=[[i] * 3])
        P2 = pl.random_pattern(rng, m2, 3)
        U, _ = pl.union_on_set(P1, P2, (i,))
        lhs, rhs = pl.eval_decomposition(P1, P2, (i,), random_simplex(rng, U.m))
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-12 and elapsed < 5.0
    _verdict(3, ok, f"200 random glued evaluations, max |lhs - rhs| = {worst:.2e} "
                    f"(tol 1e-12), {elapsed:.2f}s")


def test_criterion_04_union_lagrangian_reduction():
    report = pl.union_lambda_suite(seed=0)
    ok = report["passed"] and report["instances"] >= 20 and report["max_gap"] < 1e-6
    _verdict(4, ok, f"{report['instances']} instances (m1,m2 <= 3), "
                    f"max |direct - reduced| = {report['max_gap']:.2e} (tol 1e-6)")


def test_criterion_05_grosu_formula():
    worst = 0.0
    for m in (2, 3):
        for r in (2, 3):
            for a in (Fraction(0), Fraction(2, 9), Fraction(5, 9), Fraction(1)):
                rep = pl.map_f(pl.offdiagonal_pattern(m, r),
                               tuple(range(1, m + 1)), float(a))
                worst = max(worst, abs(rep.value - float(pl.grosu_map(a, m, r))))
    base = pl.map_f(pl.offdiagonal_pattern(2, 3), (1, 2), 0.0).value
    ok = worst < 1e-8 and abs(base - 0.75) < 1e-8
    _verdict(5, ok, f"max deviation from 1-(1-a)/m^(r-1) over the (m,r,a) grid "
                    f"= {worst:.2e} (tol 1e-8); f(0) at m=2,r=3 = {base:.10f}")


def test_criterion_06_f_monotone_lipschitz():
    grid = np.linspace(0.0, 1.0, 21)
    worst_mono = 0.0
    worst_lip = 0.0
    for host, glue in ((pl.offdiagonal_pattern(2, 3), (2,)),
                       (pl.complete_pattern(3, 3), (3,))):
        values = [pl.map_f(host, glue, float(a)).value for a in grid]
        for v0, v1, a0, a1 in zip(values, values[1:], grid, grid[1:]):
            worst_mono = max(worst_mono, v0 - v1)
            worst_lip = max(worst_lip, abs(v1 - v0) - (a1 - a0))
    ok = worst_mono < 1e-9 and worst_lip < 2e-6
    _verdict(6, ok, f"21-point grid on two hosts: worst monotonicity violation "
                    f"{worst_mono:.2e}, worst 1-Lipschitz excess {worst_lip:.2e} (tol 2e-6)")


def test_criterion_07_monotonicity_and_construction():
    rng = np.random.default_rng(77)
    corpus = [
        Pattern(2, 3, [[1, 1, 2]]),
        pl.offdiagonal_pattern(3, 3),
        pl.complete_pattern(4, 3),
        pl.complete_pattern(5, 3),
        pl.random_pattern(rng, 5, 3, allow_empty=False),
        pl.random_pattern(rng, 4, 3, allow_empty=False),
    ]
    worst_mono = -math.inf
    for P in corpus:
        full = pl.maximize(P).value
        for size in range(1, P.m + 1):
            for S in itertools.combinations(range(1, P.m + 1), size):
                sub = pl.maximize(pl.induced_subpattern(P, S)).value
                worst_mono = max(worst_mono, sub - full)
    worst_con = -math.inf
    for _ in range(20):
        m = int(rng.integers(1, 4))
        P = pl.random_pattern(rng, m, 3, allow_empty=False)
        while True:
            sizes = [int(rng.integers(0, 4)) for _ in range(m)]
            if 3 <= sum(sizes) <= 8:
                break
        chk = pl.construction_lagrangian_check(P, sizes)
        worst_con = max(worst_con, chk.construction_value - chk.pattern_value)
    ok = worst_mono <= 1e-8 and worst_con <= 1e-8
    _verdict(7, ok, f"restriction monotonicity worst excess {worst_mono:.2e} "
                    f"(exhaustive S, m <= 5); construction worst excess {worst_con:.2e} "
                    f"(20 blowups, n <= 8); slack 1e-8")


def test_criterion_08_gradient_checks():
    rng = np.random.default_rng(88)
    corpus = [
        Pattern(2, 3, [[1, 1, 2]]),
        Pattern(2, 3, [[1, 1, 2], [1, 2, 2]]),
        pl.pattern_of_hypergraph(pl.Hypergraph(3, 3, [[1, 2, 3]])),
        pl.complete_pattern(4, 3),
        pl.offdiagonal_pattern(3, 3),
        pl.pattern_of_hypergraph(pl.complete_graph(4)),
        pl.random_pattern(rng, 4, 3, allow_empty=False),
        pl.random_pattern(rng, 5, 3, allow_empty=False),
        pl.random_pattern(rng, 3, 4, allow_empty=False),
        pl.random_pattern(rng, 4, 2, allow_empty=False),
    ]
    assert len(corpus) == 10
    h = 1e-5
    worst_fd = 0.0
    worst_euler = 0.0
    for P in corpus:
        for _ in range(50):
            x = random_simplex(rng, P.m)
            g = pl.grad_lagrange(P, x)
            for k in range(P.m):
                up = x.copy()
                dn = x.copy()
                up[k] += h
                dn[k] = max(dn[k] - h, 0.0)
                fd = (eval_lagrange_unnormalized(P, up)
                      - eval_lagrange_unnormalized(P, dn)) / (up[k] - dn[k])
                worst_fd = max(worst_fd, abs(g[k] - fd))
            euler = abs(float(x @ g) - P.r * pl.eval_lagrange(P, x))
            worst_euler = max(worst_euler, euler)
    ok = worst_fd < 1e-6 and worst_euler < 1e-9
    _verdict(8, ok, f"10-pattern corpus, 50 points each: max |analytic - central "
                    f"difference| = {worst_fd:.2e} (tol 1e-6), max Euler residual "
                    f"= {worst_euler:.2e} (tol 1e-9)")


def test_criterion_09_sequence_checker():
    pb = Pattern(2, 3, [[1, 1, 2], [1, 2, 2]])
    failing = pl.sequence_check([pb] * 4, 2, 0.75, 0.01)
    cond2_fails_everywhere = not any(p.cond2_ok for p in failing.per_t)

    terms = [
        pl.offdiagonal_pattern(3, 3),
        pl.complete_pattern(4, 3),
        pl.union_on_set(pl.offdiagonal_pattern(2, 3),
                        pl.complete_pattern(3, 3), (1, 2))[0],
        pl.complete_pattern(6, 3),
    ]
    assert max(P.m for P in terms) <= 6
    passing = pl.sequence_check(terms, 2, 1.0, [0.0, 0.0, 0.0, 0.0])
    subsets_checked = sum(math.comb(P.m, 2) for P in terms)
    ok = cond2_fails_everywhere and passing.cond3_all
    _verdict(9, ok, f"constant crossing-pattern sequence fails condition 2 at "
                    f"every t: {cond2_fails_everywhere}; level-1 condition 3 passes "
                    f"over all {subsets_checked} two-index subpatterns: {passing.cond3_all}")


def test_criterion_10_determinism(capsys):
    argv = ["verify", "all", "--trials", "120", "--seed", "7"]
    code1 = main(list(argv))
    out1 = capsys.readouterr().out
    code2 = main(list(argv))
    out2 = capsys.readouterr().out
    ok = out1 == out2 and code1 == code2 == 0 and len(out1) > 0
    _verdict(10, ok, f"two full verify runs with seed 7: byte-identical = "
                     f"{out1 == out2}, exit codes {code1}/{code2}, "
                     f"{len(out1)} bytes of JSON")
