"""Property tests of the slot-table polynomial kernels against exact
rational evaluation and the identities every homogeneous polynomial obeys."""

import itertools
import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patternlab as pl
from patternlab import lagrangian
from patternlab.algebra import _reduced_polynomial
from patternlab.lagrangian import (_chamber_piece, _describe_rows, _finish_rows, _grad_rows,
                                   _hessian_rows, _kkt_polish_rows, _maximize_arrays,
                                   _maximize_poly, _Poly, _polynomial, _value_rows)

from conftest import (duplicate_index, integer_terms, reference_simplex_bound,
                      reference_twin_pairs)


@st.composite
def patterns(draw):
    """Patterns with m <= 6 and r in {2, 3, 4}; any edge set, so diagonal
    edges <i, ..., i> and the empty pattern are both drawn."""
    m = draw(st.integers(1, 6))
    r = draw(st.sampled_from([2, 3, 4]))
    universe = list(itertools.combinations_with_replacement(range(1, m + 1), r))
    edges = draw(st.lists(st.sampled_from(universe), unique=True,
                          max_size=len(universe)))
    return pl.Pattern(m, r, edges)


@st.composite
def pattern_and_point(draw):
    """A pattern and a rational simplex point k / sum(k) of its dimension."""
    P = draw(patterns())
    k = draw(st.lists(st.integers(0, 12), min_size=P.m, max_size=P.m)
             .filter(lambda k: sum(k) > 0))
    x = [Fraction(ki, sum(k)) for ki in k]
    return P, x


KERNEL_SETTINGS = settings(max_examples=200)


def _exact_value(P, x):
    total = Fraction(0)
    for coef, items in integer_terms(P):
        term = Fraction(coef)
        for i, mult in items:
            term *= x[i] ** mult
        total += term
    return total


@KERNEL_SETTINGS
@given(pattern_and_point())
def test_value_rows_matches_exact_evaluation(case):
    P, x = case
    got = _value_rows(_polynomial(P), np.array([[float(v) for v in x]]))[0]
    assert got == pytest.approx(float(_exact_value(P, x)), abs=1e-12)


@KERNEL_SETTINGS
@given(pattern_and_point())
def test_euler_identities_and_symmetric_hessian(case):
    P, x = case
    poly = _polynomial(P)
    w = np.array([float(v) for v in x])
    W = np.vstack([w, w[::-1], np.full(P.m, 1.0 / P.m)])
    for w, H in zip(W, _hessian_rows(poly, W)):
        p = _value_rows(poly, w[None, :])[0]
        g = _grad_rows(poly, w[None, :])[0]
        assert w @ g == pytest.approx(P.r * p, abs=1e-12)
        np.testing.assert_allclose(H @ w, (P.r - 1) * g, rtol=0, atol=1e-12)
        np.testing.assert_allclose(H, H.T, rtol=0, atol=1e-12)


@KERNEL_SETTINGS
@given(pattern_and_point(), st.data())
def test_reduced_polynomial_matches_host_plus_powers(case, data):
    P, x = case
    glue = data.draw(st.sets(st.integers(1, P.m), min_size=1))
    lambda2 = float(data.draw(st.fractions(0, 1, max_denominator=50)))
    w = np.array([float(v) for v in x])
    w /= w.sum()
    got = _value_rows(_reduced_polynomial(P, tuple(glue), lambda2), w[None, :])[0]
    want = pl.eval_lagrange(P, w) + lambda2 * sum(w[i - 1] ** P.r for i in glue)
    assert got == pytest.approx(want, abs=1e-12)


def _exact_poly_value(poly, x):
    """The slot-table polynomial at a rational point, in exact arithmetic
    with its float coefficients taken exactly."""
    return sum((Fraction(c) * math.prod(x[i] for i in column)
                for column, c in zip(poly.slots.T.tolist(), poly.coef.tolist())), Fraction(0))


def _largest_coefficient(piece):
    T, L, _, scale = piece
    return max(Fraction(int(n), int(d) * scale) for n, d in zip(T.ravel(), L.ravel()))


def _drawn_polynomial(P, data):
    """P's polynomial, or with a drawn glue set map_f's reduced polynomial,
    whose float lambda2 sets the common denominator (a power of two)."""
    glue = data.draw(st.sets(st.integers(1, P.m)))
    lambda2 = float(data.draw(st.fractions(0, 1, max_denominator=50)))
    return _reduced_polynomial(P, tuple(glue), lambda2) if glue else _polynomial(P)


def _assert_one_exact_table(poly):
    """coef is num / den correctly rounded, and merged sums each monomial's
    slot columns exactly."""
    assert poly.num.dtype == object and poly.den >= 1
    for c, n in zip(poly.coef.tolist(), poly.num.tolist()):
        assert Fraction(c) == Fraction(n, poly.den)
    sums = Counter()
    for column, n in zip(poly.slots.T.tolist(), poly.num.tolist()):
        sums[tuple(column)] += Fraction(n, poly.den)
    monomials, summed = poly.merged
    assert {tuple(column): Fraction(s, poly.den)
            for column, s in zip(monomials.T.tolist(), summed.tolist())} == sums


@KERNEL_SETTINGS
@given(patterns(), st.data())
def test_coefficients_are_numerators_over_one_denominator(P, data):
    _assert_one_exact_table(_drawn_polynomial(P, data))


@pytest.mark.parametrize("lambda2", [5e-324, 2.2250738585072014e-308, 1e-300])
def test_tiny_lambda2_keeps_the_table_exact(lambda2):
    # lambda2 = 5e-324 puts den at 2**1074, past the float range: the host's
    # numerators are then far beyond it too.
    P = pl.offdiagonal_pattern(3, 3)
    poly = _reduced_polynomial(P, (1, 2, 3), lambda2)
    _assert_one_exact_table(poly)
    assert poly.den == Fraction(lambda2).denominator
    report = pl.map_f(P, (1, 2, 3), lambda2)
    assert report.value == pytest.approx(float(pl.grosu_map(Fraction(lambda2), 3, 3)), abs=1e-15)


def test_the_grid_oracle_reads_the_cached_polynomial(monkeypatch):
    calls = []
    real = lagrangian._multinomials
    monkeypatch.setattr(lagrangian, "_multinomials",
                        lambda columns: calls.append(1) or real(columns))
    P = pl.offdiagonal_pattern(3, 3)
    lagrangian._polynomial.cache_clear()
    assert pl.grid_oracle(P, 6) == Fraction(8, 9)
    pl.maximize(P)
    assert lagrangian._polynomial.cache_info().misses == 1
    assert len(calls) == 1


@KERNEL_SETTINGS
@given(pattern_and_point(), st.data())
def test_chamber_coefficients_bound_every_value(case, data):
    P, x = case
    poly = _drawn_polynomial(P, data)
    bound = reference_simplex_bound(poly)
    largest = _largest_coefficient(_chamber_piece(poly))
    assert largest <= bound
    if all(len(members) == 1 for members in poly.twins):
        # The chamber of singleton classes is the whole simplex.
        assert largest == bound
    assert _exact_poly_value(poly, x) <= largest
    if poly.certificate is not None:
        assert poly.certificate[0] == largest


@KERNEL_SETTINGS
@given(patterns(), st.data())
def test_singleton_classes_certify_the_diagonals_at_the_simplex_bound(P, data):
    poly = _drawn_polynomial(P, data)
    if any(len(members) > 1 for members in poly.twins):
        return
    bound = reference_simplex_bound(poly)
    diagonals = [sum(Fraction(c) for column, c in zip(poly.slots.T.tolist(), poly.coef.tolist())
                     if set(column) == {i}) for i in range(P.m)]
    attaining = tuple((i,) for i, d in enumerate(diagonals) if d == bound)
    assert poly.certificate == ((bound, attaining) if attaining else None)


@st.composite
def symmetric_patterns(draw):
    """Patterns invariant under every permutation of their m <= 6 indices:
    all multisets of some chosen multiplicity profiles (partitions of r)."""
    m = draw(st.integers(2, 6))
    r = draw(st.sampled_from([2, 3, 4]))
    universe = list(itertools.combinations_with_replacement(range(1, m + 1), r))
    profile = lambda e: tuple(sorted(Counter(e).values()))
    profiles = sorted({profile(e) for e in universe})
    chosen = draw(st.sets(st.sampled_from(profiles), min_size=1))
    return pl.Pattern(m, r, [e for e in universe if profile(e) in chosen])


@settings(max_examples=100)
@given(st.one_of(patterns(), symmetric_patterns()))
def test_certified_value_is_the_maximum(P):
    poly = _polynomial(P)
    if poly.certificate is None:
        return
    value, vertices = poly.certificate
    for members in vertices:
        x = [Fraction(int(i in members), len(members)) for i in range(P.m)]
        assert _exact_poly_value(poly, x) == value
    for d in range(1, 7):
        assert value >= pl.grid_oracle(P, d)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Poly, "certificate", property(lambda poly: None))
        searched = pl.maximize(P)
    assert float(value) == pytest.approx(searched.value, abs=1e-12)
    report = pl.maximize(P)
    assert report.value == float(value)
    assert any(report.argmax == pl.SimplexPoint(np.isin(np.arange(P.m), v) / len(v))
               for v in vertices)


def test_a_flat_certified_polynomial_reports_a_certified_vertex():
    # (x1 + x2)^3 is 1 on the whole simplex, certified at e_1 and at the
    # barycenter.  Random points tie within 1e-12, and some round above 1;
    # the report is a certified vertex instead.
    P = pl.Pattern(2, 3, [[1, 1, 1], [1, 1, 2], [1, 2, 2], [2, 2, 2]])
    value, vertices = _polynomial(P).certificate
    assert value == 1 and vertices == ((0,), (0, 1))
    report = pl.maximize(P)
    assert report.value == 1.0 and report.kkt_residual == 0.0
    assert report.argmax == pl.SimplexPoint([0.5, 0.5])


def _counted(calls, name, real):
    def spy(*args):
        calls[name] += 1
        return real(*args)
    return spy


@pytest.mark.parametrize("P", [pl.complete_pattern(5, 3),
                               pl.pattern_of_hypergraph(
                                   pl.blowup(pl.complete_pattern(4, 3), (2, 2, 2, 2))[0])],
                         ids=["certified", "uncertified"])
def test_each_derived_table_is_built_once(P, monkeypatch):
    # A certificate of None is kept as well, so the uncertified blowup does
    # not rebuild its chamber on the second call.
    calls = Counter()
    monkeypatch.setattr(_Poly.merged, "func", _counted(calls, "merged", _Poly.merged.func))
    for name in ("_twin_classes", "_chamber_piece"):
        monkeypatch.setattr(lagrangian, name, _counted(calls, name, getattr(lagrangian, name)))
    lagrangian._polynomial.cache_clear()
    first = pl.maximize(P)
    scatter = _polynomial(P).scatter
    second = pl.maximize(P, pl.OptimizerConfig(seed=1))
    assert calls == {"merged": 1, "_twin_classes": 1, "_chamber_piece": 1}
    assert _polynomial(P).scatter is scatter
    assert first.value == pytest.approx(second.value, abs=1e-12)


DENSE_SHAPES = [(16, 3), (10, 4), (12, 3), (3, 3), (6, 3)]


@pytest.mark.parametrize("m, r", DENSE_SHAPES)
def test_complete_and_offdiagonal_patterns_certify_the_barycenter(m, r):
    full = (tuple(range(m)),)
    complete = Fraction(math.factorial(r) * math.comb(m, r), m**r)
    assert _polynomial(pl.complete_pattern(m, r)).certificate == (complete, full)
    offdiagonal = 1 - Fraction(1, m ** (r - 1))
    assert _polynomial(pl.offdiagonal_pattern(m, r)).certificate == (offdiagonal, full)


def test_past_the_chamber_cap_there_is_no_certificate(monkeypatch):
    # On the chamber K5^3's largest coefficient is the barycenter's.
    poly = _polynomial(pl.complete_pattern(5, 3))
    fresh = lambda: _Poly(poly.slots.copy(), poly.num.copy(), poly.den, poly.m)
    monkeypatch.setattr(lagrangian, "CHAMBER_CAP", 5**3)
    assert fresh().certificate == (Fraction(12, 25), ((0, 1, 2, 3, 4),))
    monkeypatch.setattr(lagrangian, "CHAMBER_CAP", 5**3 - 1)
    assert fresh().certificate is None


def test_past_the_chamber_cap_the_ascent_finds_a_diagonal_edge(monkeypatch):
    # The diagonal <1,1,1> puts the maximum 1 at the vertex e_1, which the
    # certificate would prove; past the cap the ascent has to find it.
    poly = _polynomial(pl.Pattern(3, 3, [[1, 1, 1], [1, 2, 3]]))
    monkeypatch.setattr(lagrangian, "CHAMBER_CAP", 3**3 - 1)
    fresh = _Poly(poly.slots.copy(), poly.num.copy(), poly.den, poly.m)
    assert fresh.certificate is None
    report = _maximize_poly(fresh, pl.OptimizerConfig())
    assert report.value == 1.0 and report.converged


def test_a_long_edge_certifies_without_a_pass_per_arrangement():
    # x1^12 + 924 x1^6 x2^6 has Bernstein coefficients 1 at e_1 and at the
    # middle, 0 elsewhere.  The symmetric array is filled cell by cell, 2^12
    # cells, never by the 12! arrangements of a monomial.
    P = pl.Pattern(2, 12, [[1] * 12, [1] * 6 + [2] * 6])
    start = time.perf_counter()
    assert _polynomial(P).certificate == (Fraction(1), ((0,),))
    report = pl.maximize(P)
    assert time.perf_counter() - start < 1.0
    assert report.value == 1.0 and report.converged


@KERNEL_SETTINGS
@given(patterns(), st.data())
def test_chamber_coefficients_are_blossoms_of_the_prefix_indicators(P, data):
    # T[p] / scale is the blossom (polar form) at the 0/1 indicators of the
    # vertices' prefixes, the symmetrized product over the r! arrangements
    # of each slot column; L[p] is the product of the prefix lengths.
    poly = _drawn_polynomial(P, data)
    T, L, vertices, scale = _chamber_piece(poly)
    columns = list(zip(poly.slots.T.tolist(), map(Fraction, poly.coef.tolist())))
    for _ in range(3):
        p = data.draw(st.tuples(*[st.integers(0, P.m - 1)] * P.r))
        blossom = sum(c * sum(math.prod(column[s] in vertices[q] for s, q in zip(arrangement, p))
                              for arrangement in itertools.permutations(range(P.r)))
                      for column, c in columns) / math.factorial(P.r)
        assert Fraction(int(T[p]), scale) == blossom
        assert L[p] == math.prod(len(vertices[q]) for q in p)


def test_a_blowup_of_k4_3_does_not_certify():
    # Every chamber vertex lies inside one class, where the blowup has no
    # edge, while the maximum 3/8 spreads over all twelve vertices.
    G, _ = pl.blowup(pl.complete_pattern(4, 3), (3, 3, 3, 3))
    poly = _polynomial(pl.pattern_of_hypergraph(G))
    assert len(poly.twins) == 4
    assert poly.certificate is None


@KERNEL_SETTINGS
@given(patterns(), st.lists(st.integers(0, 12), min_size=6, max_size=6).filter(any))
def test_chamber_vertices_rebuild_every_sorted_point(P, k):
    # Sorted to decrease within each twin class, a point x is the convex
    # combination of the chamber vertices with weights
    # mu = l * (x_l - x_(l+1)) along each class (x past the class is 0).
    x = [Fraction(v, sum(k[:P.m]) or 1) for v in k[:P.m]]
    if not any(x):
        x[0] = Fraction(1)
    poly = _polynomial(P)
    for members in poly.twins:
        for i, v in zip(members, sorted((x[i] for i in members), reverse=True)):
            x[i] = v
    vertices = _chamber_piece(poly)[2]
    mu = []
    for members in vertices:
        cls = next(c for c in poly.twins if c[0] == members[0])
        after = x[cls[len(members)]] if len(members) < len(cls) else 0
        mu.append(len(members) * (x[members[-1]] - after))
    assert all(w >= 0 for w in mu) and sum(mu) == 1
    rebuilt = [sum(w * Fraction(int(i in members), len(members))
                   for w, members in zip(mu, vertices)) for i in range(P.m)]
    assert rebuilt == x


@st.composite
def pattern_and_rows(draw):
    """A pattern and a seeded stack of Dirichlet simplex points of its
    dimension, some with coordinates pinned to zero."""
    P = draw(patterns())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.standard_exponential((draw(st.integers(1, 12)), P.m))
    X[rng.random(X.shape) < 0.3] = 0.0
    X[X.sum(axis=1) == 0, 0] = 1.0
    return P, X / X.sum(axis=1, keepdims=True)


@st.composite
def large_patterns(draw):
    """Patterns with 60 to 2380 edges, so that a block is 16 to 546 rows."""
    r = draw(st.sampled_from([3, 4]))
    m = draw(st.integers(8, 14) if r == 3 else st.integers(6, 14))
    universe = list(itertools.combinations_with_replacement(range(1, m + 1), r))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    keep = rng.random(len(universe)) < draw(st.floats(0.5, 1.0))
    return pl.Pattern(m, r, [e for e, k in zip(universe, keep) if k])


@settings(max_examples=30)
@given(large_patterns(), st.integers(0, 2**32 - 1))
def test_row_blocks_match_row_by_row(P, seed):
    poly = _polynomial(P)
    X = np.random.default_rng(seed).dirichlet(np.ones(P.m), size=poly.block + 3)
    values = _value_rows(poly, X)
    grads = _grad_rows(poly, X)
    for x, v, g in zip(X, values, grads):
        assert v == pytest.approx(_value_rows(poly, x[None, :])[0], abs=1e-14)
        np.testing.assert_allclose(g, _grad_rows(poly, x[None, :])[0], rtol=0, atol=1e-14)


@settings(max_examples=30)
@given(large_patterns(), st.integers(0, 2**32 - 1))
def test_blocked_hessians_equal_one_shot_hessians(P, seed):
    # bincount sums each row's cells in the same order in a block as in one
    # call over every row, so the blocks change no bit.
    poly = _polynomial(P)
    X = np.random.default_rng(seed).dirichlet(np.ones(P.m), size=poly.block + 3)
    np.testing.assert_array_equal(_hessian_rows(poly, X), _hessian_rows.__wrapped__(poly, X))


def test_row_blocks_of_the_empty_pattern():
    poly = _polynomial(pl.Pattern(3, 3, []))
    X = np.full((poly.block + 3, 3), 1.0 / 3)
    np.testing.assert_array_equal(_value_rows(poly, X), 0.0)
    np.testing.assert_array_equal(_grad_rows(poly, X), 0.0)


@KERNEL_SETTINGS
@given(pattern_and_rows())
def test_stacked_finish_never_loses_value(case):
    P, X = case
    poly = _polynomial(P)
    R = _finish_rows(poly, X)
    assert R.shape[1] == P.m and len(X) <= len(R) <= 3 * len(X)
    assert np.isfinite(R).all() and (R >= 0).all()
    np.testing.assert_allclose(R.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    # The first rows are the face polishes of X, in order: coordinates off
    # a row's support face stay as they are.  Polished in another stack, a
    # row's batched kernels and solves differ in the last bits, which a
    # singular Newton matrix spreads to about 1e-9.
    off = X <= 1e-12
    np.testing.assert_array_equal(R[:len(X)][off], X[off])
    assert (R[:len(X)][~off] > 0).all()
    np.testing.assert_allclose(R[:len(X)], _kkt_polish_rows(poly, X), rtol=0, atol=1e-8)


def _grad_row_by_row(poly, X):
    return np.vstack([_grad_rows(poly, x[None, :]) for x in X] + [np.empty((0, poly.m))])


@KERNEL_SETTINGS
@given(pattern_and_rows())
def test_batched_polish_matches_each_row_polished_alone(case):
    # The gradient's matmul rounds a row differently in stacks of other
    # sizes.  Where a row's Newton target lies on its face's boundary, or
    # is reached only linearly, those last bits decide what the guards take
    # in 25 steps, and the polishes of two stacks can part by 1e-3.  With
    # the gradient taken row by row, the batching itself must move no bit.
    P, X = case
    poly = _polynomial(P)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lagrangian, "_grad_rows", _grad_row_by_row)
        R = _kkt_polish_rows(poly, X)
        alone = np.vstack([_kkt_polish_rows(poly, x[None, :]) for x in X])
    off = X <= 1e-12
    np.testing.assert_array_equal(R[off], X[off])
    np.testing.assert_array_equal(R, alone)


def _face_residuals(poly, X, on):
    G = _grad_rows(poly, X)
    mu = (X * G).sum(axis=1)
    return np.where(on, np.abs(G - mu[:, None]), 0.0).max(axis=1)


def test_a_failed_solve_stops_only_the_rows_of_its_size(monkeypatch):
    # Interior points of K4^3 and points on its 3-index faces: the sizes 4
    # and 3 are solved apart, and a failure at size 3 leaves size 4 going.
    poly = _polynomial(pl.complete_pattern(4, 3))
    rng = np.random.default_rng(5)
    X = 0.25 + rng.uniform(-0.02, 0.02, (6, 4))
    X[3:, :] = 1 / 3 + rng.uniform(-0.02, 0.02, (3, 4))
    X[3:, 3] = 0.0
    X /= X.sum(axis=1, keepdims=True)
    on = X > 1e-12
    assert (_face_residuals(poly, _kkt_polish_rows(poly, X), on) < 1e-14).all()
    pinv = np.linalg.pinv

    def failing(J, *args, **kwargs):
        if J.shape[-1] == 3 + 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return pinv(J, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", failing)
    R = _kkt_polish_rows(poly, X)
    np.testing.assert_array_equal(R[3:], X[3:])
    assert (_face_residuals(poly, R[:3], on[:3]) < 1e-14).all()
    assert (_face_residuals(poly, X[:3], on[:3]) > 1e-3).all()


def test_the_k4_3_blowup_finish_takes_one_gradient_per_step(monkeypatch):
    # The finish stack of K4^3(3,3,3,3) spans more than ten support faces;
    # all its rows step together, one gradient call per step.
    G, _ = pl.blowup(pl.complete_pattern(4, 3), (3, 3, 3, 3))
    stacks = []
    polish = lagrangian._kkt_polish_rows

    def kept(poly, X):
        stacks.append((poly, X))
        return polish(poly, X)

    with monkeypatch.context() as patch:
        patch.setattr(lagrangian, "_kkt_polish_rows", kept)
        pl.lagrangian_of_hypergraph(G)
    poly, X = max(stacks, key=lambda stack: len(stack[1]))
    assert len(np.unique(X > 1e-12, axis=0)) > 10
    calls = Counter()
    for name in ("_grad_rows", "_hessian_rows"):
        monkeypatch.setattr(lagrangian, name, _counted(calls, name, getattr(lagrangian, name)))
    polish(poly, X)
    assert 1 <= calls["_hessian_rows"] < calls["_grad_rows"] <= lagrangian.KKT_POLISH_STEPS


@settings(max_examples=60)
@given(patterns(), st.integers(0, 2**32 - 1))
def test_the_report_is_the_winner_rule_over_the_ascent_rows(P, seed):
    # The rule, applied here to every row the ascent returns: the best
    # value within 1e-12, then the smallest (kkt residual, point).
    cfg = pl.OptimizerConfig(restarts=8, seed=seed)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Poly, "certificate", property(lambda poly: None))
        poly = _polynomial(P)
        X, used = _maximize_arrays(poly, cfg)
        report = pl.maximize(P, cfg)
    F, kkt, _ = _describe_rows(poly, X)
    near = F >= F.max() - 1e-12
    X, kkt = X[near], kkt[near]
    winner = min(range(len(X)), key=lambda i: (kkt[i], *X[i]))
    assert report.argmax == pl.SimplexPoint(X[winner])
    assert report.value == pl.eval_lagrange(P, X[winner])
    assert report.restarts_used == used


def _twin_pairs(classes):
    return {(i, j) for members in classes for i, j in itertools.combinations(members, 2)}


@KERNEL_SETTINGS
@given(patterns(), st.data())
def test_twin_classes_match_the_swap_oracle(P, data):
    # With a glue set this is map_f's reduced polynomial: its diagonal terms
    # can repeat host edges, and at lambda2 = 0 they weigh 0.
    poly = _drawn_polynomial(P, data)
    classes = poly.twins
    assert sorted(i for members in classes for i in members) == list(range(P.m))
    assert all(list(members) == sorted(members) for members in classes)
    assert [members[0] for members in classes] == sorted(members[0] for members in classes)
    assert _twin_pairs(classes) == reference_twin_pairs(poly.slots, poly.coef, P.m)


@KERNEL_SETTINGS
@given(patterns(), st.data())
def test_twin_classes_follow_relabelling(P, data):
    perm = data.draw(st.permutations(range(1, P.m + 1)))
    moved = {frozenset(perm[i] - 1 for i in members) for members in _polynomial(P).twins}
    relabelled = _polynomial(pl.relabel_pattern(P, perm)).twins
    assert {frozenset(members) for members in relabelled} == moved


@settings(max_examples=50)
@given(patterns(), st.data())
def test_planted_twins_are_found(P, data):
    k = data.draw(st.integers(1, P.m))
    twins = _polynomial(duplicate_index(P, k)).twins
    assert any({k - 1, P.m} <= set(members) for members in twins)
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=P.m, max_size=P.m))
    G, part = pl.blowup(P, sizes)
    twins = _polynomial(pl.pattern_of_hypergraph(G)).twins
    for block in part.parts:
        assert any({v - 1 for v in block} <= set(members) for members in twins)


@pytest.mark.parametrize("m, r", [(2, 2), (3, 3), (5, 2), (6, 3), (4, 4), (12, 3)])
def test_complete_and_offdiagonal_patterns_form_one_class(m, r):
    assert _polynomial(pl.complete_pattern(m, r)).twins == (tuple(range(m)),)
    assert _polynomial(pl.offdiagonal_pattern(m, r)).twins == (tuple(range(m)),)


@KERNEL_SETTINGS
@given(patterns(), st.data())
def test_glued_and_unglued_indices_never_share_a_class(P, data):
    # A glued diagonal weighs lambda2 or 1 + lambda2, an unglued one 0 or 1,
    # so they differ for every lambda2 strictly between 0 and 1.
    glue = data.draw(st.sets(st.integers(1, P.m), min_size=1))
    lambda2 = data.draw(st.fractions(Fraction(1, 50), Fraction(49, 50), max_denominator=50))
    poly = _reduced_polynomial(P, tuple(glue), float(lambda2))
    for members in poly.twins:
        assert len({i + 1 in glue for i in members}) == 1
