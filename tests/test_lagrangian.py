from fractions import Fraction

import numpy as np
import pytest

import patternlab as pl
from patternlab import OptimizerConfig, Pattern, SimplexPoint
from patternlab.errors import CapExceeded
from patternlab.lagrangian import eval_lagrange_unnormalized

from conftest import random_simplex, slow_lagrange


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def test_eval_heavy_edge_value(p112):
    # 3! * x1^2/2! * x2 = 3 x1^2 x2 at (2/3, 1/3)
    assert pl.eval_lagrange(p112, [2 / 3, 1 / 3]) == pytest.approx(4 / 9, abs=1e-14)


def test_eval_single_triple(triple_pattern):
    assert pl.eval_lagrange(triple_pattern, [1 / 3] * 3) == pytest.approx(2 / 9, abs=1e-14)


def test_eval_basis_vector_off_support():
    P = Pattern(3, 3, [[1, 1, 2]])
    assert pl.eval_lagrange(P, [0.0, 0.0, 1.0]) == 0.0


def test_eval_empty_pattern():
    assert pl.eval_lagrange(Pattern(2, 3, []), [0.5, 0.5]) == 0.0


def test_eval_matches_direct_formula(rng):
    for _ in range(100):
        m = int(rng.integers(1, 7))
        r = int(rng.integers(2, 5))
        P = pl.random_pattern(rng, m, r)
        x = random_simplex(rng, m)
        assert pl.eval_lagrange(P, x) == pytest.approx(slow_lagrange(P, x), abs=1e-13)


def test_eval_bounded_on_simplex(rng):
    for _ in range(100):
        P = pl.random_pattern(rng, int(rng.integers(1, 6)), 3)
        v = pl.eval_lagrange(P, random_simplex(rng, P.m))
        assert -1e-15 <= v <= 1.0 + 1e-12


def test_eval_dimension_mismatch(p112):
    with pytest.raises(ValueError):
        pl.eval_lagrange(p112, [1 / 3, 1 / 3, 1 / 3])


def test_simplex_point_validation():
    with pytest.raises(ValueError):
        SimplexPoint([0.5, 0.6])
    with pytest.raises(ValueError):
        SimplexPoint([1.1, -0.1])
    assert SimplexPoint.uniform(4).weights.sum() == pytest.approx(1.0)


def test_homogeneity_of_raw_evaluator(rng):
    for _ in range(50):
        m = int(rng.integers(1, 6))
        r = int(rng.integers(2, 5))
        P = pl.random_pattern(rng, m, r)
        y = rng.standard_exponential(m)
        c = float(rng.uniform(0.1, 3.0))
        assert eval_lagrange_unnormalized(P, c * y) == pytest.approx(
            c**r * eval_lagrange_unnormalized(P, y), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Gradient
# ---------------------------------------------------------------------------


def test_grad_heavy_edge(p112):
    # d/dx1 (3 x1^2 x2) = 6 x1 x2, d/dx2 = 3 x1^2; both 4/3 at the maximizer
    g = pl.grad_lagrange(p112, [2 / 3, 1 / 3])
    assert g == pytest.approx([4 / 3, 4 / 3], abs=1e-13)


def test_grad_empty_pattern():
    assert pl.grad_lagrange(Pattern(3, 3, []), [1 / 3] * 3).tolist() == [0.0, 0.0, 0.0]


def _central_difference(P, x, h=1e-5):
    g = np.zeros(len(x))
    for k in range(len(x)):
        up = np.array(x, dtype=float)
        dn = np.array(x, dtype=float)
        up[k] += h
        dn[k] -= h
        g[k] = (eval_lagrange_unnormalized(P, up) - eval_lagrange_unnormalized(P, dn)) / (2 * h)
    return g


def test_grad_matches_central_differences(rng):
    for _ in range(50):
        m = int(rng.integers(2, 6))
        P = pl.random_pattern(rng, m, 3, allow_empty=False)
        x = random_simplex(rng, m) * 0.9 + 0.05 / m  # keep clear of the boundary
        assert pl.grad_lagrange(P, x / x.sum()) == pytest.approx(
            _central_difference(P, x / x.sum()), abs=1e-6)


def test_euler_relation(rng):
    for _ in range(100):
        m = int(rng.integers(1, 7))
        r = int(rng.integers(2, 5))
        P = pl.random_pattern(rng, m, r)
        x = random_simplex(rng, m)
        lhs = float(x @ pl.grad_lagrange(P, x))
        assert abs(lhs - r * pl.eval_lagrange(P, x)) < 1e-9


# ---------------------------------------------------------------------------
# Simplex projection
# ---------------------------------------------------------------------------


def _project_bisection(v):
    """Reference projection via bisection on the shift parameter."""
    v = np.asarray(v, dtype=float)
    lo = v.min() - 1.0
    hi = v.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(v - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(v - hi, 0.0)


def test_projection_matches_bisection(rng):
    for _ in range(100):
        m = int(rng.integers(1, 9))
        y = rng.normal(scale=3.0, size=m)
        got = pl.project_to_simplex(y)
        want = _project_bisection(y)
        assert got.sum() == pytest.approx(1.0, abs=1e-9)
        assert (got >= 0).all()
        assert got == pytest.approx(want, abs=1e-7)


def test_projection_fixed_point_on_simplex(rng):
    x = random_simplex(rng, 5)
    assert pl.project_to_simplex(x) == pytest.approx(x, abs=1e-12)


# ---------------------------------------------------------------------------
# Maximization
# ---------------------------------------------------------------------------


def test_maximize_heavy_edge(p112):
    rep = pl.maximize(p112)
    assert rep.value == pytest.approx(4 / 9, abs=1e-9)
    assert rep.argmax.weights == pytest.approx([2 / 3, 1 / 3], abs=1e-7)
    assert rep.converged
    assert rep.support == (1, 2)


def test_maximize_crossing_pattern(pb):
    rep = pl.maximize(pb)
    assert rep.value == pytest.approx(3 / 4, abs=1e-9)
    assert rep.argmax.weights == pytest.approx([0.5, 0.5], abs=1e-7)


def test_maximize_complete_graphs_motzkin_straus():
    # independent closed form: 2 C(m,2) / m^2 = 1 - 1/m at the uniform point
    for m in range(2, 6):
        P = pl.pattern_of_hypergraph(pl.complete_graph(m))
        rep = pl.maximize(P)
        assert rep.value == pytest.approx(1 - 1 / m, abs=1e-10)


def test_maximize_report_invariants(rng):
    for _ in range(20):
        P = pl.random_pattern(rng, int(rng.integers(1, 5)), 3)
        rep = pl.maximize(P)
        assert rep.value == pytest.approx(pl.eval_lagrange(P, rep.argmax), abs=1e-12)
        assert -1e-12 <= rep.value <= 1.0 + 1e-9
        assert rep.restarts_used >= 1


def test_maximize_empty_pattern():
    rep = pl.maximize(Pattern(3, 3, []))
    assert rep.value == 0.0
    assert rep.converged


def test_maximize_single_index():
    rep = pl.maximize(Pattern(1, 3, [[1, 1, 1]]))
    assert rep.value == pytest.approx(1.0, abs=1e-12)
    assert rep.support == (1,)


def test_maximize_relabeling_invariance(rng):
    for _ in range(10):
        P = pl.random_pattern(rng, 4, 3, allow_empty=False)
        perm = list(rng.permutation(range(1, 5)))
        Q = pl.relabel_pattern(P, perm)
        assert abs(pl.maximize(P).value - pl.maximize(Q).value) < 1e-9


def test_optimizer_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(max_iterations=0)


def test_maximize_nonconvergence_is_flagged_not_silent(p112):
    # One iteration cannot equalize the gradient from a generic start; the
    # report must say so rather than raising.
    cfg = OptimizerConfig(restarts=1, max_iterations=1, tolerance=1e-16)
    rep = pl.maximize(p112, cfg)
    assert rep.value <= 4 / 9 + 1e-9  # still a valid lower bound


# ---------------------------------------------------------------------------
# Grid oracle
# ---------------------------------------------------------------------------


def test_grid_oracle_heavy_edge(p112):
    assert pl.grid_oracle(p112, 3) == Fraction(4, 9)


def test_grid_oracle_empty():
    assert pl.grid_oracle(Pattern(2, 3, []), 5) == 0


def test_grid_oracle_single_triple(triple_pattern):
    assert pl.grid_oracle(triple_pattern, 3) == Fraction(2, 9)


def test_grid_oracle_is_exact_fraction(p112):
    v = pl.grid_oracle(p112, 7)
    assert isinstance(v, Fraction)
    # best point over denominator 7: k = (5, 2) gives 3 * 25 * 2 / 343
    best = max(3 * a * a * b for a in range(8) for b in [7 - a] if b >= 0
               for b in [b])
    assert v == Fraction(best, 7**3)


def test_oracle_sandwich(rng):
    for _ in range(15):
        P = pl.random_pattern(rng, int(rng.integers(1, 5)), 3)
        rep = pl.maximize(P)
        for d in (1, 2, 3, 5, 8):
            assert float(pl.grid_oracle(P, d)) <= rep.value + 1e-9


def test_oracle_gap_closes(rng):
    for _ in range(5):
        P = pl.random_pattern(rng, 3, 3, allow_empty=False)
        rep = pl.maximize(P)
        assert rep.value - float(pl.grid_oracle(P, 60)) < 1e-3


def test_grid_oracle_cap_and_domain(p112):
    with pytest.raises(CapExceeded):
        pl.grid_oracle(pl.complete_pattern(8, 3), 400, cap=10_000)
    with pytest.raises(ValueError):
        pl.grid_oracle(p112, 0)


def test_grid_oracle_single_index():
    assert pl.grid_oracle(Pattern(1, 3, [[1, 1, 1]]), 4) == 1
    assert pl.grid_oracle(Pattern(1, 3, []), 4) == 0


def test_optimizer_never_beaten_by_oracle(rng):
    # certified-lower-bound stress: the exact grid must never exceed the
    # reported maximum across uniformities and sizes
    for _ in range(60):
        m = int(rng.integers(1, 6))
        r = int(rng.integers(2, 5))
        P = pl.random_pattern(rng, m, r)
        rep = pl.maximize(P)
        assert float(pl.grid_oracle(P, 10)) <= rep.value + 1e-9, P


# ---------------------------------------------------------------------------
# Minimality
# ---------------------------------------------------------------------------


def test_is_minimal_heavy_edge(p112):
    rep = pl.is_minimal(p112)
    assert rep.minimal
    assert rep.margins[1] == pytest.approx(4 / 9, abs=1e-9)
    assert rep.margins[2] == pytest.approx(4 / 9, abs=1e-9)


def test_untouched_index_not_minimal():
    rep = pl.is_minimal(Pattern(3, 3, [[1, 1, 2]]))
    assert not rep.minimal
    assert rep.margins[3] == pytest.approx(0.0, abs=1e-9)


def test_is_minimal_crossing_pattern(pb):
    rep = pl.is_minimal(pb)
    assert rep.minimal
    assert rep.margins[1] == pytest.approx(3 / 4, abs=1e-9)
    assert rep.margins[2] == pytest.approx(3 / 4, abs=1e-9)


def test_minimal_patterns_have_full_support_argmax(rng):
    # diagonal-free draws: a diagonal multiset pins the Lagrangian at 1,
    # which survives index removal, so such patterns are rarely minimal
    cfg = OptimizerConfig()
    found = 0
    for _ in range(20):
        P = pl.random_pattern(rng, 3, 3, allow_empty=False,
                              exclude=[[1, 1, 1], [2, 2, 2], [3, 3, 3]])
        rep = pl.is_minimal(P, cfg)
        if rep.minimal:
            found += 1
            arg = pl.maximize(P, cfg).argmax
            assert (arg.weights > cfg.support_threshold).all()
    assert found > 0


def test_single_index_minimality():
    assert pl.is_minimal(Pattern(1, 3, [[1, 1, 1]])).minimal
    assert not pl.is_minimal(Pattern(1, 3, [])).minimal


# ---------------------------------------------------------------------------
# Subpattern monotonicity
# ---------------------------------------------------------------------------


def test_lagrangian_monotone_under_restriction(rng):
    import itertools
    for _ in range(8):
        m = int(rng.integers(2, 5))
        P = pl.random_pattern(rng, m, 3, allow_empty=False)
        full = pl.maximize(P).value
        for size in range(1, m + 1):
            for S in itertools.combinations(range(1, m + 1), size):
                sub = pl.maximize(pl.induced_subpattern(P, S)).value
                assert full >= sub - 1e-8


# ---------------------------------------------------------------------------
# Hypergraph Lagrangians
# ---------------------------------------------------------------------------


def test_hypergraph_lagrangian_single_triple():
    rep = pl.lagrangian_of_hypergraph(pl.Hypergraph(3, 3, [[1, 2, 3]]))
    assert rep.value == pytest.approx(2 / 9, abs=1e-9)


def test_hypergraph_lagrangian_k5():
    rep = pl.lagrangian_of_hypergraph(pl.complete_graph(5))
    assert rep.value == pytest.approx(0.8, abs=1e-9)


def test_hypergraph_lagrangian_empty():
    rep = pl.lagrangian_of_hypergraph(pl.Hypergraph(4, 3, []))
    assert rep.value == 0.0


def test_minimality_suite_passes():
    report = pl.minimality_suite()
    assert report["passed"], report


def test_blowup_lagrangian_converges_on_face_of_maximizers():
    # The maximizers of a blowup form a face, so the support-face Newton
    # matrix is singular; seed 108 used to stop at KKT residual 1.46e-7.
    G, _ = pl.blowup(pl.complete_pattern(4, 3), (3, 3, 3, 3))
    rep = pl.lagrangian_of_hypergraph(G, OptimizerConfig(seed=108))
    assert rep.converged
    assert rep.kkt_residual < 1e-12
    assert rep.value == pytest.approx(3 / 8, abs=1e-12)


def test_blowup_lagrangian_converges_across_seeds():
    # Seeds 40, 50, 51, 56, 61, 62 and 68 also ended unconverged before
    # the polish took minimum-norm steps.
    G, _ = pl.blowup(pl.complete_pattern(4, 3), (3, 3, 3, 3))
    for seed in range(40, 70):
        rep = pl.lagrangian_of_hypergraph(G, OptimizerConfig(seed=seed))
        assert rep.converged, seed
        assert rep.value == pytest.approx(3 / 8, abs=1e-12), seed
