"""Shared fixtures and independent oracles used across the test suite."""

import itertools
import math
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

import patternlab as pl

# Fixed example sequence, no deadline and no example database: the suite
# gives the same verdict on every run and writes nothing to the checkout.
# Property tests set only their own max_examples.
settings.register_profile("patternlab", deadline=None, derandomize=True, database=None)
settings.load_profile("patternlab")
assert settings.default.derandomize


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


def reference_twin_pairs(slots, coef, m):
    """Brute-force twin relation, kept as the oracle for _Poly.twins.

    Sums the coefficient of each sorted slot column into a dict, then for
    every pair i < j swaps the two indices in every key and compares the
    swapped dict with the original.  Returns the set of twin pairs (i, j).
    """
    table = {}
    for column, c in zip(slots.T.tolist(), coef.tolist()):
        key = tuple(sorted(column))
        table[key] = table.get(key, 0.0) + c

    def swapped(i, j):
        swap = {i: j, j: i}
        return {tuple(sorted(swap.get(v, v) for v in key)): c for key, c in table.items()}

    return {(i, j) for i, j in itertools.combinations(range(m), 2) if swapped(i, j) == table}


def reference_barycenter_starts(m, twins=()):
    """The enumerate-then-filter loop _barycenter_starts once ran, kept as the
    oracle: the barycenter of every nonempty subset for m <= 10 (beyond
    that, the singletons, the pairs and the full set), in size-then-
    lexicographic order, keeping the subsets that take a prefix of each twin
    class, where no coordinate exceeds that of its class predecessor."""
    if m <= 10:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(m), size) for size in range(1, m + 1))
    else:
        subsets = itertools.chain(itertools.combinations(range(m), 1),
                                  itertools.combinations(range(m), 2), [tuple(range(m))])
    rows = []
    for sub in subsets:
        x = np.zeros(m)
        x[list(sub)] = 1.0 / len(sub)
        rows.append(x)
    X = np.array(rows)
    prev = np.arange(m)  # the previous member of each index's class
    for members in twins:
        prev[list(members[1:])] = members[:-1]
    return X[(X <= X[:, prev]).all(axis=1)]


def reference_simplex_bound(poly):
    """The ratio bound maximize once stopped at, kept as the oracle, in exact
    arithmetic: the largest ratio of a monomial's coefficient, summed
    exactly over its slot columns, to its multinomial coefficient
    r!/prod(mult!), and 0.  The multinomial-weighted monomials sum to 1 on
    the simplex, so the polynomial is a convex combination of these ratios
    (0 for absent monomials)."""
    summed = {}
    for column, c in zip(poly.slots.T.tolist(), poly.coef.tolist()):
        key = tuple(sorted(column))
        summed[key] = summed.get(key, Fraction(0)) + Fraction(c)
    r = poly.slots.shape[0]
    ratios = [c / Fraction(math.factorial(r),
                           math.prod(math.factorial(k) for k in Counter(key).values()))
              for key, c in summed.items()]
    return max([Fraction(0), *ratios])


def duplicate_index(P, k):
    """P with index k duplicated as a new index m + 1: the polynomial
    p(x_1, ..., x_k + x_{m+1}, ..., x_m).  An edge with s copies of k becomes
    s + 1 edges, with b = 0..s of those copies moved to m + 1; the
    coefficients r!/prod(mult!) of the new edges are the binomial split of
    the old one, so k and m + 1 are twins."""
    edges = []
    for row in P.rows.tolist():
        s = row.count(k)
        rest = [v for v in row if v != k]
        edges += [sorted(rest + [k] * (s - b) + [P.m + 1] * b) for b in range(s + 1)]
    return pl.Pattern(P.m + 1, P.r, edges)


def random_simplex(rng, m):
    w = rng.standard_exponential(m)
    return w / w.sum()


def _is_integer(value) -> bool:
    """An integer of a JSON document: ``bool`` is an ``int`` subclass, so
    ``true`` and ``false`` would otherwise pass as 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def reference_validate_pattern_document(doc) -> list[str]:
    """The per-edge, per-value loop validate_pattern_document once ran, kept
    as the oracle for the shared document check.

    Diagnostics for a raw (parsed-JSON) pattern document; empty iff valid.

    Duplicate edges are reported with a ``warning:`` prefix: they are legal
    on load (deduplicated with a warning) but noted here.
    """
    diags: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    for key in ("r", "m", "edges"):
        if key not in doc:
            diags.append(f"missing field '{key}'")
    if diags:
        return diags
    r, m, edges = doc["r"], doc["m"], doc["edges"]
    if not _is_integer(r) or r < 2:
        diags.append(f"r: must be an integer >= 2, got {r!r}")
    if not _is_integer(m) or m < 1:
        diags.append(f"m: must be an integer >= 1, got {m!r}")
    if not isinstance(edges, list):
        diags.append(f"edges: must be a list, got {type(edges).__name__}")
    if diags:
        return diags
    seen: dict[tuple[int, ...], int] = {}
    for k, e in enumerate(edges):
        loc = f"edges[{k}]"
        if not isinstance(e, list) or not all(map(_is_integer, e)):
            diags.append(f"{loc}: must be a list of integers")
            continue
        if len(e) != r:
            diags.append(f"{loc}: multiplicity sum {len(e)} != r={r}")
        for v in e:
            if v < 1:
                diags.append(f"{loc}: index {v} < 1")
            elif v > m:
                diags.append(f"{loc}: index {v} > m={m}")
        key = tuple(sorted(e))
        if key in seen:
            diags.append(f"warning: {loc} duplicates edges[{seen[key]}]")
        else:
            seen[key] = k
    return diags


def reference_validate_hypergraph_document(doc) -> list[str]:
    """The per-edge, per-value loop validate_hypergraph_document once ran,
    kept as the oracle for the shared document check.

    Diagnostics for a raw hypergraph document; empty iff valid."""
    diags: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    for key in ("r", "n", "edges"):
        if key not in doc:
            diags.append(f"missing field '{key}'")
    if diags:
        return diags
    r, n, edges = doc["r"], doc["n"], doc["edges"]
    if not _is_integer(r) or r < 2:
        diags.append(f"r: must be an integer >= 2, got {r!r}")
    if not _is_integer(n) or n < 1:
        diags.append(f"n: must be an integer >= 1, got {n!r}")
    if not isinstance(edges, list):
        diags.append(f"edges: must be a list, got {type(edges).__name__}")
    if diags:
        return diags
    for k, e in enumerate(edges):
        loc = f"edges[{k}]"
        if not isinstance(e, list) or not all(map(_is_integer, e)):
            diags.append(f"{loc}: must be a list of integers")
            continue
        if len(e) != r or len(set(e)) != len(e):
            diags.append(f"{loc}: must contain exactly {r} distinct vertices")
        for v in e:
            if v < 1:
                diags.append(f"{loc}: vertex {v} < 1")
            elif v > n:
                diags.append(f"{loc}: vertex {v} > n={n}")
    return diags
