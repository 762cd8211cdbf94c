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
from patternlab.lagrangian import (_grad_rows, _hessian, _integer_terms,
                                   _polynomial, _value_rows)


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


# Fixed example sequence and no example database: the suite gives the same
# verdict on every run and writes nothing to the checkout.
KERNEL_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True,
                           database=None)


def _exact_value(P, x):
    total = Fraction(0)
    for coef, items in _integer_terms(P):
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
    p = _value_rows(poly, w[None, :])[0]
    g = _grad_rows(poly, w[None, :])[0]
    H = _hessian(poly, w)
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
