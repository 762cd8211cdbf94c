"""Shared fixtures and independent oracles used across the test suite."""

import itertools
import math
import warnings

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


def reference_pattern(m, r, edges):
    """The per-edge Multiset-and-set loop Pattern once ran, kept as the oracle.

    Returns the canonical edges as a sorted tuple of Multiset, warns as
    Pattern does when a duplicate is dropped, and raises Pattern's error for
    the first offending edge in input order: its length, then an index
    below 1 (Multiset's own check), then an index above m.
    """
    canon = set()
    read = 0
    for e in edges:
        expansion = sorted(int(v) for v in e)
        if len(expansion) != r:
            raise ValueError(f"multiset {expansion} has multiplicity sum {len(expansion)} != r={r}")
        multiset = pl.Multiset(expansion)
        if expansion[-1] > m:
            raise ValueError(f"multiset {expansion} uses index {expansion[-1]} > m={m}")
        canon.add(multiset)
        read += 1
    if len(canon) < read:
        warnings.warn("duplicate multisets in edge list were deduplicated", stacklevel=2)
    return tuple(sorted(canon))


def reference_grid_chunks(d, m, chunk):
    """The itertools stars-and-bars enumerator grid_oracle once ran, kept as
    the oracle: every composition of d into m parts in lexicographic order,
    as int64 arrays of ``chunk`` rows (the last one shorter).  A composition
    is a choice of m - 1 bar positions among d + m - 1 slots, and part i is
    the number of stars between bars i - 1 and i, with sentinel bars at -1
    and d + m - 1."""
    bars = itertools.combinations(range(d + m - 1), m - 1)
    while batch := list(itertools.islice(bars, chunk)):
        flat = np.fromiter(itertools.chain.from_iterable(batch), dtype=np.int64,
                           count=len(batch) * (m - 1))
        yield np.diff(flat.reshape(len(batch), m - 1), axis=1,
                      prepend=-1, append=d + m - 1) - 1


def random_simplex(rng, m):
    w = rng.standard_exponential(m)
    return w / w.sum()
