"""Shared fixtures and independent oracles used across the test suite."""

import math

import numpy as np
import pytest

import patternlab as pl


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def p112():
    return pl.Pattern(2, 3, [[1, 1, 2]])


@pytest.fixture
def pb():
    return pl.Pattern(2, 3, [[1, 1, 2], [1, 2, 2]])


@pytest.fixture
def triple_pattern():
    return pl.pattern_of_hypergraph(pl.Hypergraph(3, 3, [[1, 2, 3]]))


def all_multisets(indices, size):
    """Independent recursive multiset enumerator (oracle side)."""
    items = sorted(indices)
    out = []

    def rec(start, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for pos in range(start, len(items)):
            rec(pos, remaining - 1, acc + [items[pos]])

    rec(0, size, [])
    return out


def slow_lagrange(P, x):
    """Direct transcription of the density polynomial, independent of numpy."""
    total = 0.0
    for e in P.edges:
        term = float(math.factorial(P.r))
        for i, mult in e.counts().items():
            term *= x[i - 1] ** mult / math.factorial(mult)
        total += term
    return total


def integer_terms(P):
    """Per edge: the exact coefficient r!/prod(mult!) and the (0-based index,
    multiplicity) pairs, from Multiset.counts() alone."""
    terms = []
    for e in P.edges:
        counts = sorted(e.counts().items())
        coef = math.factorial(P.r) // math.prod(math.factorial(k) for _, k in counts)
        terms.append((coef, [(i - 1, k) for i, k in counts]))
    return terms


def random_simplex(rng, m):
    w = rng.standard_exponential(m)
    return w / w.sum()
