import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patternlab as pl
from patternlab import OptimizerConfig, Pattern, SimplexPoint
from patternlab import lagrangian
from patternlab.cli import main as cli_main
from patternlab.errors import CapExceeded
from patternlab.lagrangian import eval_lagrange_unnormalized

from conftest import (duplicate_index, integer_terms, random_simplex,
                      reference_barycenter_starts, reference_grid_chunks, slow_lagrange)


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
    # NaN passes both the sign test and the sum test.
    for weights in ([math.nan, 1.0], [math.inf, 1.0], [-math.inf, 1.0], [math.nan, 0.5, 0.5]):
        with pytest.raises(ValueError, match="non-finite"):
            SimplexPoint(weights)
    assert SimplexPoint.uniform(4).weights.sum() == pytest.approx(1.0)
    for m in (0, -1):
        with pytest.raises(ValueError, match="nonempty 1-D"):
            SimplexPoint.uniform(m)
    # int() would truncate 2.5 to the 2-point barycenter.
    with pytest.raises(ValueError, match="m must be an integer, got 2.5"):
        SimplexPoint.uniform(2.5)
    assert SimplexPoint.uniform(3.0) == SimplexPoint.uniform(3)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_entry_point_rejects_non_finite_weights(bad):
    P, inner = pl.complete_pattern(3, 2), pl.complete_pattern(2, 2)
    x = [bad, 0.5, 0.5]
    entry_points = [lambda: pl.eval_lagrange(P, x),
                    lambda: eval_lagrange_unnormalized(P, x),
                    lambda: pl.grad_lagrange(P, x),
                    lambda: pl.eval_decomposition(P, inner, [1], [bad, 0.25, 0.25, 0.5]),
                    lambda: pl.project_to_simplex([bad, 1.0])]
    for call in entry_points:
        with pytest.raises(ValueError, match="non-finite"):
            call()


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
    for tolerance in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tolerance must be finite and > 0"):
            OptimizerConfig(tolerance=tolerance)


def test_maximize_nonconvergence_is_flagged_not_silent(p112):
    # One iteration cannot equalize the gradient from a generic start; the
    # report must say so rather than raising.
    cfg = OptimizerConfig(restarts=1, max_iterations=1, tolerance=1e-16)
    rep = pl.maximize(p112, cfg)
    assert rep.value <= 4 / 9 + 1e-9  # still a valid lower bound


def test_barycenter_starts_are_bounded_by_construction():
    # Every nonempty subset up to m = 10 (at most 1023 rows); beyond that the
    # singletons, the pairs and the full barycenter, so no cap is needed.
    for m, rows in ((1, 1), (10, 2**10 - 1), (11, 11 * 12 // 2 + 1), (40, 40 * 41 // 2 + 1)):
        X = lagrangian._barycenter_starts(m)
        assert X.shape == (rows, m)
        np.testing.assert_allclose(X.sum(axis=1), 1.0, rtol=0, atol=1e-15)
    # K_m is one twin class: one prefix of each size for m <= 10, and the
    # first singleton, the first pair and the full barycenter beyond that.
    for m, rows in ((2, 2), (10, 10), (11, 3), (40, 3)):
        X = lagrangian._barycenter_starts(m, lagrangian._polynomial(pl.complete_pattern(m, 2)).twins)
        assert X.shape == (rows, m)
        assert (np.diff(X, axis=1) <= 0).all()
        np.testing.assert_allclose(X.sum(axis=1), 1.0, rtol=0, atol=1e-15)


@settings(max_examples=200)
@given(st.integers(1, 12).flatmap(
    lambda m: st.lists(st.integers(0, m - 1), min_size=m, max_size=m)))
def test_barycenter_starts_match_the_filtered_enumeration(labels):
    # Any partition into classes, each listed by first member, members
    # ascending, as _Poly.twins lists them.
    groups = {}
    for i, label in enumerate(labels):
        groups.setdefault(label, []).append(i)
    twins = tuple(tuple(members) for members in groups.values())
    m = len(labels)
    for classes in (twins, tuple(c for c in twins if len(c) > 1), ()):
        np.testing.assert_array_equal(lagrangian._barycenter_starts(m, classes),
                                      reference_barycenter_starts(m, classes))


def test_certified_start_row_skips_the_ascent(monkeypatch):
    # The full barycenter of K10^4 is the one certified vertex, so no start
    # row is built: one gradient pass describes the candidate, which wins,
    # and the value is the exact 63/125 rounded.
    calls = []
    grad_rows = lagrangian._grad_rows

    def counted(poly, X):
        calls.append(X.shape[0])
        return grad_rows(poly, X)

    monkeypatch.setattr(lagrangian, "_grad_rows", counted)
    rep = pl.maximize(pl.complete_pattern(10, 4))
    assert calls == [1]
    assert rep.value == 0.504
    assert rep.argmax.weights.tolist() == [0.1] * 10
    assert rep.restarts_used == 1
    assert rep.converged


def test_value_ties_go_to_the_smallest_kkt_residual():
    # The barycenter is the certified optimum of offdiagonal(3,3); a point
    # within 1e-12 below it must not win on a smaller point.  The value is
    # the exact 8/9 rounded, not the float evaluation 0.8888888888888891.
    P = pl.offdiagonal_pattern(3, 3)
    rep = pl.maximize(P)
    assert rep.argmax == SimplexPoint.uniform(3)
    assert rep.value == float(Fraction(8, 9))
    assert rep.kkt_residual == 0.0


@pytest.mark.parametrize("P, value, support", [
    (Pattern(11, 2, pl.pattern_of_hypergraph(pl.complete_graph(5)).rows.tolist()), 0.8,
     (1, 2, 3, 4, 5)),
    (Pattern(12, 3, [[1, 2, 3]]), float(Fraction(2, 9)), (1, 2, 3)),
], ids=["K5-plus-6", "K3_3-plus-9"])
def test_a_certified_vertex_outside_the_start_rows_is_reported_exactly(monkeypatch, P, value,
                                                                        support):
    # Past m = 10 the barycenter starts keep only subsets of size 1, 2 and
    # m, so the certified uniform point on the support is no start row; the
    # report is that vertex all the same, and no ascent runs.
    calls = []
    grad_rows = lagrangian._grad_rows

    def counted(poly, X):
        calls.append(X.shape[0])
        return grad_rows(poly, X)

    monkeypatch.setattr(lagrangian, "_grad_rows", counted)
    rep = pl.maximize(P)
    assert rep.value == value
    assert rep.argmax == SimplexPoint(np.isin(np.arange(1, P.m + 1), support) / len(support))
    assert rep.support == support
    assert calls == [1] and rep.restarts_used == 1


def test_lockstep_stops_at_the_simplex_upper_bound(monkeypatch):
    # A vertex start on a diagonal edge <i,i,i,i> has value 1.0, the upper
    # bound of every pattern polynomial on the simplex, so the certificate
    # holds there and no row advances.  Running all 1000+ rows took 250
    # gradient passes on this draw.
    rng = np.random.default_rng(77)
    pl.random_pattern(rng, 10, 4)
    P = pl.random_pattern(rng, 10, 4)
    calls = []
    grad_rows = lagrangian._grad_rows

    def counted(poly, X):
        calls.append(X.shape[0])
        return grad_rows(poly, X)

    monkeypatch.setattr(lagrangian, "_grad_rows", counted)
    rep = pl.maximize(P, OptimizerConfig(seed=3))
    assert rep.value == 1.0
    assert rep.converged
    assert len(calls) <= 5


def test_offdiagonal_ascent_does_not_zigzag(monkeypatch):
    # A full step at the stability edge of the symmetric optimum flips two
    # coordinates every iteration; a weak Armijo test accepts it for
    # thousands of gradient passes.
    calls = []
    grad_rows = lagrangian._grad_rows

    def counted(poly, X):
        calls.append(X.shape[0])
        return grad_rows(poly, X)

    monkeypatch.setattr(lagrangian, "_grad_rows", counted)
    rep = pl.maximize(pl.offdiagonal_pattern(3, 3))
    assert rep.converged
    assert len(calls) <= 100


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


def test_grid_oracle_cap_and_domain(monkeypatch, p112):
    monkeypatch.setattr(lagrangian, "GRID_CAP", 10_000)
    with pytest.raises(CapExceeded):
        pl.grid_oracle(pl.complete_pattern(8, 3), 400)
    with pytest.raises(ValueError):
        pl.grid_oracle(p112, 0)


def test_grid_oracle_single_index():
    assert pl.grid_oracle(Pattern(1, 3, [[1, 1, 1]]), 4) == 1
    assert pl.grid_oracle(Pattern(1, 3, []), 4) == 0


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def reference_grid_oracle(P, d):
    """The nested pure-Python loop that grid_oracle replaced, kept as its
    reference: every composition k of d, every edge, Python integers."""
    best = 0
    for k in _compositions(d, P.m):
        total = 0
        for mc, items in integer_terms(P):
            term = mc
            for i, mult in items:
                term *= k[i] ** mult
            total += term
        best = max(best, total)
    return Fraction(best, d**P.r)


@st.composite
def grid_cases(draw):
    m = draw(st.integers(1, 5))
    r = draw(st.integers(2, 4))
    universe = list(itertools.combinations_with_replacement(range(1, m + 1), r))
    edges = draw(st.lists(st.sampled_from(universe), unique=True, max_size=len(universe)))
    return Pattern(m, r, edges), draw(st.integers(1, 12))


@settings(max_examples=200)
@given(grid_cases())
def test_grid_oracle_matches_reference_loop(case):
    P, d = case
    assert pl.grid_oracle(P, d) == reference_grid_oracle(P, d)


def test_grid_oracle_chunk_boundaries():
    # m = 2 has d + 1 grid points, so d = GRID_CHUNK - 1 fills one chunk and
    # d = GRID_CHUNK spills the last point, (d, 0), into a second one.  The
    # diagonal <1,1,1> attains its maximum only there.
    top = Pattern(2, 3, [[1, 1, 1]])
    for d in (lagrangian.GRID_CHUNK - 1, lagrangian.GRID_CHUNK):
        for P in (top, Pattern(2, 3, [[1, 1, 2]]), Pattern(2, 4, [[1, 2, 2, 2], [1, 1, 1, 1]])):
            assert pl.grid_oracle(P, d) == reference_grid_oracle(P, d)
        assert pl.grid_oracle(top, d) == 1
    chunks = list(lagrangian._grid_chunks(lagrangian.GRID_CHUNK, (0, 0)))
    assert [len(K) for K in chunks] == [lagrangian.GRID_CHUNK, 1]
    assert chunks[1].tolist() == [[lagrangian.GRID_CHUNK, 0]]


def assert_grid_chunks_match_reference(d, m):
    chunks = list(lagrangian._grid_chunks(d, (0,) * m))
    want = np.concatenate(list(reference_grid_chunks(d, m, lagrangian.GRID_CHUNK)))
    got = np.concatenate(chunks)
    assert all(K.dtype == np.int64 for K in chunks)
    assert all(1 <= len(K) <= lagrangian.GRID_CHUNK for K in chunks)
    assert (got.sum(axis=1) == d).all()
    assert np.array_equal(got, want)


GRID_POINTS_CAP = 60_000  # keeps the itertools reference fast


@st.composite
def grid_shapes(draw):
    m = draw(st.integers(1, 8))
    top = 60
    while math.comb(top + m - 1, m - 1) > GRID_POINTS_CAP:
        top -= 1
    return draw(st.integers(0, top)), m


@settings(max_examples=120)
@given(grid_shapes())
def test_grid_chunks_match_itertools_reference(shape):
    assert_grid_chunks_match_reference(*shape)


@pytest.mark.parametrize("d, m", [(1, 21), (5, 1), (13, 10)])
def test_grid_chunks_edge_shapes(d, m):
    # (13, 10) has 497,420 points and splits leading parts three levels deep.
    assert_grid_chunks_match_reference(d, m)


@st.composite
def orbit_grid_shapes(draw):
    """Twin class sizes in layout order and a denominator, the full grid
    kept small enough for the itertools reference."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    m = sum(sizes)
    top = 40
    while math.comb(top + m - 1, m - 1) > GRID_POINTS_CAP:
        top -= 1
    return sizes, draw(st.integers(0, top))


@settings(max_examples=120)
@given(orbit_grid_shapes())
def test_grid_chunks_give_one_sorted_point_per_orbit(shape):
    # Every composition whose parts do not decrease along each class of
    # columns is the one such point of its orbit; the chunks hold exactly
    # those, in lexicographic order.
    sizes, d = shape
    m = sum(sizes)
    rest = tuple(c for size in sizes for c in range(size - 1, -1, -1))
    every = np.concatenate(list(reference_grid_chunks(d, m, lagrangian.GRID_CHUNK)))
    starts = np.cumsum([0, *sizes])
    keep = np.ones(len(every), dtype=bool)
    for a, b in zip(starts[:-1], starts[1:]):
        keep &= (np.diff(every[:, a:b], axis=1) >= 0).all(axis=1)
    chunks = list(lagrangian._grid_chunks(d, rest))
    assert all(K.dtype == np.int64 and 1 <= len(K) <= lagrangian.GRID_CHUNK for K in chunks)
    assert np.array_equal(np.concatenate(chunks), every[keep])


@st.composite
def twin_grid_cases(draw):
    """A pattern with m <= 6, r <= 4 and any edges, or the pattern of a
    blowup of a smaller one, whose vertex classes are twins; and d <= 12."""
    r = draw(st.integers(2, 4))
    if draw(st.booleans()):
        m = draw(st.integers(1, 6))
        universe = list(itertools.combinations_with_replacement(range(1, m + 1), r))
        P = Pattern(m, r, draw(st.lists(st.sampled_from(universe), unique=True,
                                         max_size=len(universe))))
    else:
        m = draw(st.integers(1, 3))
        universe = list(itertools.combinations_with_replacement(range(1, m + 1), r))
        base = Pattern(m, r, draw(st.lists(st.sampled_from(universe), unique=True,
                                            min_size=1, max_size=len(universe))))
        sizes = draw(st.lists(st.integers(1, 3), min_size=m, max_size=m)
                     .filter(lambda s: r <= sum(s) <= 6))
        P = pl.pattern_of_hypergraph(pl.blowup(base, sizes)[0])
    return P, draw(st.integers(1, 12))


@settings(max_examples=100)
@given(twin_grid_cases())
def test_grid_oracle_orbit_points_match_reference(case):
    P, d = case
    got = pl.grid_oracle(P, d)
    assert got == reference_grid_oracle(P, d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lagrangian._Poly, "twins",
                      property(lambda poly: tuple((i,) for i in range(poly.m))))
        assert pl.grid_oracle(P, d) == got


def test_grid_oracle_evaluates_one_point_per_orbit(monkeypatch):
    # complete(6, 3) is one twin class, so its orbits on the d = 24 grid are
    # the 532 partitions of 24 into at most 6 parts, against C(29, 5) =
    # 118,755 grid points.
    rows = []
    real = lagrangian._value_rows
    monkeypatch.setattr(lagrangian, "_value_rows", lambda poly, X: rows.append(len(X)) or real(poly, X))
    assert pl.grid_oracle(pl.complete_pattern(6, 3), 24) == Fraction(20 * 6, 6**3)
    assert sum(rows) == 532


def test_grid_oracle_object_dtype_path():
    # 2000^6 >= 2^63, so the pass runs on Python integers.
    P = pl.offdiagonal_pattern(2, 6)
    assert 2000**P.r >= 2**63
    assert pl.grid_oracle(P, 2000) == reference_grid_oracle(P, 2000)
    # 21! > 2^63 while 1^21 is not: the coefficient alone forces object dtype.
    wide = Pattern(21, 21, [list(range(1, 22))])
    assert pl.grid_oracle(wide, 1) == reference_grid_oracle(wide, 1) == 0


def test_grid_oracle_single_index_and_empty_match_reference():
    for d in (1, 2, 7):
        for P in (Pattern(1, 3, [[1, 1, 1]]), Pattern(1, 4, []), Pattern(3, 3, []),
                  Pattern(4, 2, [])):
            assert pl.grid_oracle(P, d) == reference_grid_oracle(P, d)
    assert list(lagrangian._grid_chunks(5, (0,)))[0].tolist() == [[5]]


def test_grid_oracle_checks_run_before_enumeration(monkeypatch, p112):
    def unexpected(d, m):
        raise AssertionError("enumerated past a failed check")

    monkeypatch.setattr(lagrangian, "_grid_chunks", unexpected)
    monkeypatch.setattr(lagrangian, "GRID_CAP", 10_000)
    with pytest.raises(CapExceeded):
        pl.grid_oracle(pl.complete_pattern(8, 3), 400)
    with pytest.raises(ValueError):
        pl.grid_oracle(p112, 0)


def test_grid_cap_boundary_checked_before_enumeration(monkeypatch):
    # C(d+m-1, m-1) grid points at exactly the cap pass; one more raises, and
    # no point is enumerated first.
    P, d = pl.complete_pattern(4, 3), 12
    points = math.comb(d + 3, 3)
    monkeypatch.setattr(lagrangian, "GRID_CAP", points)
    assert pl.grid_oracle(P, d) == reference_grid_oracle(P, d)

    def unexpected(d, m):
        raise AssertionError("enumerated past a failed check")

    monkeypatch.setattr(lagrangian, "_grid_chunks", unexpected)
    monkeypatch.setattr(lagrangian, "GRID_CAP", points - 1)
    with pytest.raises(CapExceeded):
        pl.grid_oracle(P, d)


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
            assert (arg.weights > lagrangian.SUPPORT_THRESHOLD).all()
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


# ---------------------------------------------------------------------------
# One barycenter start per twin-class orbit
# ---------------------------------------------------------------------------


def _without_twins(monkeypatch, run):
    """run() with every index its own twin class: the full start list."""
    with monkeypatch.context() as mp:
        mp.setattr(lagrangian._Poly, "twins",
                   property(lambda poly: tuple((i,) for i in range(poly.m))))
        return run()


def _same_value_as_without_twins(monkeypatch, run):
    rep = run()
    full = _without_twins(monkeypatch, run)
    assert rep.value == pytest.approx(full.value, abs=1e-12)
    assert rep.restarts_used <= full.restarts_used
    return rep, full


def test_orbit_starts_keep_the_dense_values(monkeypatch):
    rng = np.random.default_rng(7)
    G, _ = pl.blowup(pl.complete_pattern(4, 3), (3, 3, 3, 3))
    cases = [pl.complete_pattern(16, 3), pl.complete_pattern(10, 4), pl.complete_pattern(12, 3),
             pl.offdiagonal_pattern(3, 3), pl.offdiagonal_pattern(6, 3),
             *(pl.random_pattern(rng, 5, 3) for _ in range(3))]
    for P in cases:
        _same_value_as_without_twins(monkeypatch, lambda: pl.maximize(P))
    rep, full = _same_value_as_without_twins(monkeypatch, lambda: pl.lagrangian_of_hypergraph(G))
    assert (rep.restarts_used, full.restarts_used) == (79, 143)


def test_orbit_starts_keep_the_values_of_planted_twins(monkeypatch):
    # The start rows are counted, so both sides run the ascent.
    monkeypatch.setattr(lagrangian._Poly, "certificate", property(lambda poly: None))
    rng = np.random.default_rng(2024)
    for _ in range(12):
        P = pl.random_pattern(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)),
                              allow_empty=False)
        P = duplicate_index(duplicate_index(P, 1), P.m)
        rep, full = _same_value_as_without_twins(monkeypatch, lambda: pl.maximize(P))
        assert rep.restarts_used < full.restarts_used


@pytest.mark.parametrize("m, r, glue, lambda2", [
    (4, 3, (1, 2), 0.5), (5, 3, (1, 3, 5), 0.8), (3, 4, (2,), 0.3), (6, 2, (1, 2, 3), 0.6)])
def test_orbit_starts_keep_map_f_values(monkeypatch, m, r, glue, lambda2):
    host = pl.offdiagonal_pattern(m, r)
    _same_value_as_without_twins(monkeypatch, lambda: pl.map_f(host, glue, lambda2))


def test_orbit_starts_keep_the_minimality_verdicts(monkeypatch):
    cases = pl.minimality_suite()["cases"]
    full = _without_twins(monkeypatch, pl.minimality_suite)["cases"]
    for case, old in zip(cases, full, strict=True):
        assert (case["name"], case["minimal"], case["ok"]) == (old["name"], old["minimal"], old["ok"])
        assert case["value"] == pytest.approx(old["value"], abs=1e-12)
        assert case["min_margin"] == pytest.approx(old["min_margin"], abs=1e-12)


def test_orbit_starts_keep_verify_all(monkeypatch, capsys):
    def verify():
        assert cli_main(["verify", "all", "--trials", "120", "--seed", "7"]) == 0
        return json.loads(capsys.readouterr().out)["result"]

    def close(got, want, path="result"):
        if isinstance(want, dict):
            assert sorted(got) == sorted(want), path
            for key in want:
                close(got[key], want[key], f"{path}/{key}")
        elif isinstance(want, list):
            assert len(got) == len(want), path
            for k, (g, w) in enumerate(zip(got, want)):
                close(g, w, f"{path}[{k}]")
        elif isinstance(want, float):
            assert got == pytest.approx(want, abs=1e-12), path
        else:
            assert got == want, path

    close(verify(), _without_twins(monkeypatch, verify))
