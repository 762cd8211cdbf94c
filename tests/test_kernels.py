"""Property tests of the slot-table polynomial kernels against exact
rational evaluation and the identities every homogeneous polynomial obeys."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patternlab as pl
from patternlab.algebra import ReducedObjective, _reduced_polynomial, eval_phi
from patternlab.lagrangian import (_finish_rows, _grad_rows, _hessian_rows,
                                   _polynomial, _value_rows)

from conftest import duplicate_index, integer_terms, reference_twin_pairs


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
def test_reduced_polynomial_matches_eval_phi(case, data):
    P, x = case
    glue = data.draw(st.sets(st.integers(1, P.m), min_size=1))
    lambda2 = data.draw(st.fractions(0, 1, max_denominator=50))
    ro = ReducedObjective(P, tuple(glue), float(lambda2))
    w = np.array([float(v) for v in x])
    w /= w.sum()
    got = _value_rows(_reduced_polynomial(ro), w[None, :])[0]
    assert got == pytest.approx(eval_phi(ro, w), abs=1e-12)


@KERNEL_SETTINGS
@given(pattern_and_point(), st.data())
def test_simplex_upper_bound(case, data):
    # Every pattern edge has ratio 1; a glued index's diagonal adds lambda2
    # to its host diagonal coefficient, if any.
    P, x = case
    glue = data.draw(st.sets(st.integers(1, P.m), min_size=1))
    lambda2 = float(data.draw(st.fractions(0, 1, max_denominator=50)))
    ro = ReducedObjective(P, tuple(glue), lambda2)
    poly = _reduced_polynomial(ro)
    w = np.array([float(v) for v in x])
    w /= w.sum()
    assert _polynomial(P).bound == (1.0 if P.edges else 0.0)
    diagonals = set(P.edges)
    expected = max([_polynomial(P).bound] + [
        lambda2 + (pl.Multiset([i] * P.r) in diagonals) for i in glue])
    assert poly.bound == pytest.approx(expected, abs=1e-15)
    assert _value_rows(poly, w[None, :])[0] <= poly.bound + 1e-12


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
    values, _, points = _finish_rows(poly, X)
    assert points.shape == X.shape
    np.testing.assert_allclose(points.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    assert (points >= 0).all()
    assert (values >= _value_rows(poly, X) - 1e-12).all()
    np.testing.assert_allclose(values, _value_rows(poly, points), rtol=0, atol=1e-14)


def _twin_pairs(classes):
    return {(i, j) for members in classes for i, j in itertools.combinations(members, 2)}


@KERNEL_SETTINGS
@given(patterns(), st.data())
def test_twin_classes_match_the_swap_oracle(P, data):
    # With a glue set this is map_f's reduced polynomial: its diagonal terms
    # can repeat host edges, and at lambda2 = 0 they weigh 0.
    glue = data.draw(st.sets(st.integers(1, P.m)))
    lambda2 = float(data.draw(st.fractions(0, 1, max_denominator=50)))
    poly = (_reduced_polynomial(ReducedObjective(P, tuple(glue), lambda2)) if glue
            else _polynomial(P))
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
    poly = _reduced_polynomial(ReducedObjective(P, tuple(glue), float(lambda2)))
    for members in poly.twins:
        assert len({i + 1 in glue for i in members}) == 1
