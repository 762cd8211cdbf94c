import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import patternlab as pl
from patternlab import Hypergraph, Multiset, Pattern, patterns
from patternlab.errors import FormatError
from patternlab.lagrangian import _polynomial

from conftest import (all_multisets, reference_pattern,
                      reference_validate_hypergraph_document,
                      reference_validate_pattern_document)


# ---------------------------------------------------------------------------
# Multisets
# ---------------------------------------------------------------------------


def test_multiset_canonical_expansion():
    assert Multiset([2, 1, 1]).expansion == (1, 1, 2)
    assert Multiset([2, 1, 1]) == Multiset([1, 2, 1])
    assert hash(Multiset([1, 1, 2])) == hash(Multiset([2, 1, 1]))


def test_multiset_rejects_empty_and_bad_indices():
    with pytest.raises(ValueError):
        Multiset([])
    with pytest.raises(ValueError):
        Multiset([0, 1])


# ---------------------------------------------------------------------------
# Pattern construction
# ---------------------------------------------------------------------------


def test_pattern_rejects_wrong_multiplicity_sum():
    with pytest.raises(ValueError):
        Pattern(2, 3, [[1, 1]])


def test_pattern_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        Pattern(2, 3, [[1, 1, 3]])


def test_pattern_bounds():
    with pytest.raises(ValueError):
        Pattern(0, 3, [])
    with pytest.raises(ValueError):
        Pattern(2, 1, [])


def test_duplicate_edges_deduplicated_with_warning():
    with pytest.warns(UserWarning):
        P = Pattern(2, 3, [[1, 1, 2], [2, 1, 1]])
    assert P.edge_count == 1


def test_edges_sorted_canonically():
    P = Pattern(3, 3, [[3, 3, 3], [1, 1, 2]])
    assert [e.expansion for e in P.edges] == [(1, 1, 2), (3, 3, 3)]


# ---------------------------------------------------------------------------
# Induced subpatterns and index removal
# ---------------------------------------------------------------------------


def test_induced_no_multiset_fits(p112):
    assert pl.induced_subpattern(p112, {1}) == Pattern(1, 3, [])


def test_induced_full_set_is_identity(p112):
    assert pl.induced_subpattern(p112, {1, 2}) == p112


def test_induced_relabels():
    P = Pattern(3, 3, [[1, 1, 2], [3, 3, 3]])
    assert pl.induced_subpattern(P, {3}) == Pattern(1, 3, [[1, 1, 1]])


def _induced_oracle(P, S):
    """Independent filter-by-support + order-preserving relabel."""
    s = sorted(S)
    rank = {old: new for new, old in enumerate(s, start=1)}
    kept = [tuple(rank[i] for i in e.expansion) for e in P.edges
            if set(e.expansion) <= set(s)]
    return Pattern(len(s), P.r, kept)


def test_induced_matches_oracle(rng):
    for _ in range(100):
        m = int(rng.integers(1, 6))
        P = pl.random_pattern(rng, m, 3)
        size = int(rng.integers(1, m + 1))
        S = list(rng.choice(range(1, m + 1), size=size, replace=False))
        assert pl.induced_subpattern(P, S) == _induced_oracle(P, S)


def test_induced_nested_restriction(rng):
    for _ in range(50):
        m = int(rng.integers(2, 6))
        P = pl.random_pattern(rng, m, 3)
        t_size = int(rng.integers(1, m + 1))
        T = sorted(rng.choice(range(1, m + 1), size=t_size, replace=False))
        s_size = int(rng.integers(1, len(T) + 1))
        S = sorted(rng.choice(T, size=s_size, replace=False))
        # positions of S inside T, as indices of the restricted pattern
        S_in_T = [T.index(i) + 1 for i in S]
        via_T = pl.induced_subpattern(pl.induced_subpattern(P, T), S_in_T)
        assert via_T == pl.induced_subpattern(P, S)


def test_induced_errors(p112):
    with pytest.raises(ValueError):
        pl.induced_subpattern(p112, {1, 3})
    with pytest.raises(ValueError):
        pl.induced_subpattern(p112, set())


def test_remove_index_examples(p112, pb):
    assert pl.remove_index(p112, 2) == Pattern(1, 3, [])
    assert pl.remove_index(pb, 1) == Pattern(1, 3, [])
    P = Pattern(3, 3, [[1, 1, 2], [3, 3, 3]])
    assert pl.remove_index(P, 2) == Pattern(2, 3, [[2, 2, 2]])


def test_remove_index_equals_complement_restriction(rng):
    for _ in range(50):
        m = int(rng.integers(2, 6))
        P = pl.random_pattern(rng, m, 3)
        i = int(rng.integers(1, m + 1))
        rest = [j for j in range(1, m + 1) if j != i]
        assert pl.remove_index(P, i) == pl.induced_subpattern(P, rest)


def test_remove_index_errors(p112):
    with pytest.raises(ValueError):
        pl.remove_index(p112, 3)
    with pytest.raises(ValueError):
        pl.remove_index(Pattern(1, 3, [[1, 1, 1]]), 1)


# ---------------------------------------------------------------------------
# Hypergraphs
# ---------------------------------------------------------------------------


def test_pattern_of_single_triple():
    G = Hypergraph(3, 3, [[1, 2, 3]])
    assert pl.pattern_of_hypergraph(G) == Pattern(3, 3, [[1, 2, 3]])


def test_pattern_of_empty_graph():
    G = Hypergraph(4, 3, [])
    assert pl.pattern_of_hypergraph(G) == Pattern(4, 3, [])


def test_pattern_of_k4():
    P = pl.pattern_of_hypergraph(pl.complete_graph(4))
    assert P.m == 4 and P.edge_count == 6


def test_pattern_of_hypergraph_preserves_edge_count(rng):
    for _ in range(20):
        n = int(rng.integers(3, 8))
        universe = all_multisets(range(1, n + 1), 3)
        plain = [e for e in universe if len(set(e)) == 3]
        edges = [e for e in plain if rng.random() < 0.4]
        G = Hypergraph(n, 3, edges)
        assert pl.pattern_of_hypergraph(G).edge_count == G.edge_count


def test_hypergraph_invariants():
    with pytest.raises(ValueError):
        Hypergraph(3, 3, [[1, 1, 2]])  # repeated vertex
    with pytest.raises(ValueError):
        Hypergraph(3, 3, [[1, 2, 4]])  # out of range
    with pytest.raises(ValueError):
        Hypergraph(3, 3, [[1, 2, 2**64]])  # out of range and past int64
    with pytest.raises(ValueError):
        Hypergraph(3, 3, [[1, 2]])  # wrong size


def reference_hypergraph_edges(n, r, edges):
    """The per-edge set-and-sort loop Hypergraph once ran, kept as the oracle."""
    canon = set()
    for e in edges:
        tup = tuple(sorted(int(v) for v in e))
        if len(tup) != r or len(set(tup)) != r:
            raise ValueError(f"edge {list(e)} is not a set of {r} distinct vertices")
        if tup[0] < 1 or tup[-1] > n:
            raise ValueError(f"edge {list(tup)} leaves the vertex range [1, {n}]")
        canon.add(tup)
    return tuple(sorted(canon))


INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


def _edge_forms(edges, r, n):
    """The same edges as a list, tuples, generators and integer ndarrays."""
    yield [list(e) for e in edges]
    yield tuple(tuple(e) for e in edges)
    yield ((v for v in e) for e in edges)
    for dtype in INT_DTYPES:
        if np.iinfo(dtype).max >= n:
            yield np.array(edges, dtype=dtype).reshape(-1, r)
    yield np.asfortranarray(np.array(edges, dtype=np.int64).reshape(-1, r))


@st.composite
def hypergraph_inputs(draw):
    r = draw(st.integers(2, 5))
    n = draw(st.integers(r, 300))
    edge = st.lists(st.integers(1, n), min_size=r, max_size=r, unique=True)
    edges = draw(st.lists(edge, max_size=30))
    if edges:
        repeats = draw(st.lists(st.sampled_from(edges), max_size=10))
        edges += [draw(st.permutations(e)) for e in repeats]
        edges = draw(st.permutations(edges))
    return n, r, edges


@settings(max_examples=150)
@given(hypergraph_inputs())
def test_hypergraph_edges_match_reference(case):
    n, r, edges = case
    want = reference_hypergraph_edges(n, r, edges)
    first = Hypergraph(n, r, edges)
    for form in _edge_forms(edges, r, n):
        G = Hypergraph(n, r, form)
        assert G.rows.dtype == np.min_scalar_type(n)
        assert G.rows.tolist() == [list(e) for e in want]
        assert G == first and hash(G) == hash(first)
    doc = {"r": r, "n": n, "edges": [list(e) for e in want]}
    assert pl.hypergraph_to_json(first) == json.dumps(doc, separators=(",", ":"))


def test_hypergraph_rows_are_a_read_only_copy():
    for n, dtype in ((4, np.uint8), (300, np.uint16), (70_000, np.uint32)):
        edges = np.array([[1, 2, 3], [1, 2, n]], dtype=dtype)  # canonical already
        G = Hypergraph(n, 3, edges)
        assert G.rows.dtype == dtype and not G.rows.flags.writeable
        assert not np.shares_memory(G.rows, edges)
        edges[0, 0] = 2
        assert G.rows.tolist() == [[1, 2, 3], [1, 2, n]]
        with pytest.raises(ValueError):
            G.rows[0, 0] = 2
    assert Hypergraph(3, 2, [[1, 2]]) != Hypergraph(4, 2, [[1, 2]])
    assert Hypergraph(3, 2, [[1, 2]]) != Pattern(3, 2, [[1, 2]])


def test_pattern_rejects_unsigned_indices_past_intp():
    n = 2**63 + 5
    G = Hypergraph(n, 2, [[1, n]])
    assert G.rows.tolist() == [[1, n]] and G.rows.dtype == np.uint64
    with pytest.raises(OverflowError):
        pl.pattern_of_hypergraph(G)
    with pytest.raises(OverflowError):
        Pattern(n, 2, np.array([[1, n]], dtype=np.uint64))  # never wrapped to negative


def test_hypergraph_does_not_mutate_input_array():
    edges = np.array([[3, 1, 2], [2, 3, 1], [4, 2, 1]], dtype=np.int32)
    before = edges.copy()
    G = Hypergraph(4, 3, edges)
    assert G.rows.tolist() == [[1, 2, 3], [1, 2, 4]]
    assert np.array_equal(edges, before) and edges.dtype == np.int32


def test_hypergraph_accepts_no_edges():
    for form in ([], (), iter(()), np.empty((0, 3), dtype=np.int64)):
        assert Hypergraph(4, 3, form).rows.shape == (0, 3)


@pytest.mark.parametrize("n, r, edges", [
    (4, 3, [[1, 2, 3], [2, 2, 1], [1, 2, 5]]),  # repeated vertex before out of range
    (4, 3, [[1, 2, 3], [3, 5, 1], [1, 1, 2]]),  # n + 1 before a repeated vertex
    (4, 3, [[2, 0, 1]]),  # vertex 0
    (4, 3, [[4, 2, 3], [3, -1, 2]]),  # negative vertex
    (255, 3, [[2, 3, -1]]),  # negative vertex that would wrap to 255 in uint8
    (4, 3, [[1, 2, 3], [1, 2]]),  # too short
    (4, 3, [[1, 2], [1, 3]]),  # every edge too short: an array of the wrong width
    (4, 3, [[1, 2, 3, 4], [1, 1, 2]]),  # too long, before a repeated vertex
    (4, 3, [[1, 1, 2], [1, 2]]),  # repeated vertex before a short edge
    (4, 3, [[1, 2, 5], [1, 2, 3, 4]]),  # out of range before a long edge
    (4, 3, [[1, 2, 3], [1, 2, 3, 4]]),  # a valid edge before a long edge
])
def test_hypergraph_errors_match_reference(n, r, edges):
    with pytest.raises(ValueError) as want:
        reference_hypergraph_edges(n, r, edges)
    forms = [edges, tuple(tuple(e) for e in edges)]
    if len({len(e) for e in edges}) == 1:
        forms += [np.array(edges, dtype=dtype) for dtype in (np.int8, np.int16, np.int64)]
    for form in forms:
        if isinstance(form, np.ndarray):
            with pytest.raises(ValueError) as want:
                reference_hypergraph_edges(n, r, form)
        with pytest.raises(ValueError) as got:
            Hypergraph(n, r, form)
        assert str(got.value) == str(want.value)


def _bad_then_failing_iterable():
    yield [1, 1, 2]
    raise RuntimeError("the iterable itself fails")


@pytest.mark.parametrize("edges", [
    [[1, 1, 2], [None, 2, 3]],  # repeated vertex before a vertex int rejects
    [[1, 2, 3], [2, 3, 4], ["x", 1, 2], [1, 1, 2]],  # a vertex int rejects comes first
    [[1, 2, 5], (1, None)],  # out of range before a short edge with a bad vertex
    _bad_then_failing_iterable,  # repeated vertex before the iterable raises
])
def test_hypergraph_read_errors_keep_input_order(edges):
    def fresh():
        return edges() if callable(edges) else edges
    with pytest.raises(Exception) as want:
        reference_hypergraph_edges(4, 3, fresh())
    with pytest.raises(Exception) as got:
        Hypergraph(4, 3, fresh())
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# Pattern storage: one canonical array whatever the input form
# ---------------------------------------------------------------------------


def _pattern_forms(edges, r, m):
    """The hypergraph edge forms, plus the same edges as a list of Multiset."""
    yield from _edge_forms(edges, r, m)
    yield [Multiset(e) for e in edges]


@st.composite
def pattern_inputs(draw):
    r = draw(st.integers(2, 4))
    m = draw(st.one_of(st.integers(1, 5), st.integers(6, 300)))
    edge = st.lists(st.integers(1, m), min_size=r, max_size=r)
    edges = draw(st.lists(edge, max_size=25))
    if edges:
        repeats = draw(st.lists(st.sampled_from(edges), max_size=6))
        edges += [draw(st.permutations(e)) for e in repeats]
        edges = draw(st.permutations(edges))
    return m, r, edges


def _warnings_of(build):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = build()
    return result, [(w.category, str(w.message)) for w in caught]


@settings(max_examples=150)
@given(pattern_inputs())
@example((3, 3, []))
@example((2, 3, [[1, 1, 2], [2, 1, 1], [2, 2, 2], [1, 2, 1]]))
def test_pattern_matches_reference_for_every_input_form(case):
    m, r, edges = case
    want, want_warnings = _warnings_of(lambda: reference_pattern(m, r, edges))
    want_json = json.dumps({"r": r, "m": m, "edges": [list(e.expansion) for e in want]},
                           separators=(",", ":"))
    first = None
    for form in _pattern_forms(edges, r, m):
        before = form.copy() if isinstance(form, np.ndarray) else None
        P, got_warnings = _warnings_of(lambda: Pattern(m, r, form))
        assert got_warnings == want_warnings
        assert P.edges == want and all(type(e) is Multiset for e in P.edges)
        assert P.edge_count == len(want)
        assert pl.pattern_to_json(P) == want_json
        assert P.rows.dtype == np.intp and not P.rows.flags.writeable
        if before is not None:
            assert np.array_equal(form, before) and form.dtype == before.dtype
            assert not np.shares_memory(P.rows, form)
        first = first or P
        assert P == first and hash(P) == hash(first)
        assert _polynomial(P) is _polynomial(first)
    assert Pattern(m, r, want) == first and hash(Pattern(m, r, want)) == hash(first)


def test_pattern_names_first_offending_edge_in_input_order():
    with pytest.raises(ValueError, match=r"^multiset \[2, 2, 3\] uses index 3 > m=2$"):
        Pattern(2, 3, [[2, 2, 3], [1, 1, 3]])
    with pytest.raises(ValueError, match=r"^multiset \[1, 1\] has multiplicity sum 2 != r=3$"):
        Pattern(2, 3, [[1, 1], [0, 1, 1]])


@pytest.mark.parametrize("m, r, edges", [
    (2, 3, [[2, 2, 3], [1, 1, 3]]),  # index > m: the first such edge in input order
    (2, 3, [[1, 1], [0, 1, 1]]),  # too short before index 0
    (2, 3, [[1, 1, 2], [1, 2, 0]]),  # index 0
    (3, 3, [[1, 2, 3], [3, -2, 1]]),  # negative index
    (255, 3, [[2, 3, -1]]),  # negative index that would wrap to 255 in uint8
    (2, 3, [[1, 2, 2, 1]]),  # too long: an array of the wrong width
    (2, 3, [[1, 2, 3], [1, 1]]),  # index > m before a short edge
    (2, 3, [[1, 0, 2], [1, 1, 5]]),  # index 0 before index > m
    (2, 3, [[0, 1, 5]]),  # index 0 and index > m in one edge
    (2, 3, [[1, 1, 2], []]),  # an empty edge
    (2, 3, [[1, 1, 5], ["x", 1, 1]]),  # index > m before a value int rejects
    (2, 3, [["x", 1, 1], [1, 1, 5]]),  # a value int rejects comes first
    (2, 3, [[1, 1, 2], [1, 1, 2, 2]]),  # a valid edge before a long edge
])
def test_pattern_errors_match_reference(m, r, edges):
    forms = [lambda: edges, lambda: tuple(tuple(e) for e in edges),
             lambda: ((v for v in e) for e in edges)]
    values = [v for e in edges for v in e]
    if len({len(e) for e in edges}) == 1 and all(isinstance(v, int) for v in values):
        forms += [lambda dtype=dtype: np.array(edges, dtype=dtype) for dtype in INT_DTYPES
                  if np.iinfo(dtype).min <= min(values) and max(values) <= np.iinfo(dtype).max]
    for form in forms:
        with pytest.raises(ValueError) as want:
            reference_pattern(m, r, form())
        with pytest.raises(ValueError) as got:
            Pattern(m, r, form())
        assert str(got.value) == str(want.value)


def test_pattern_copies_its_input_array():
    edges = np.array([[1, 1, 2], [1, 2, 2]], dtype=np.intp)  # canonical already
    P = Pattern(2, 3, edges)
    assert not np.shares_memory(P.rows, edges)
    edges[0, 2] = 1
    assert P.edges == (Multiset([1, 1, 2]), Multiset([1, 2, 2]))
    with pytest.raises(ValueError):
        P.rows[0, 0] = 2


def test_pattern_does_not_mutate_input_array():
    edges = np.array([[2, 1, 1], [2, 2, 1], [1, 2, 1]], dtype=np.int16)
    before = edges.copy()
    with pytest.warns(UserWarning, match="duplicate multisets"):
        P = Pattern(2, 3, edges)
    assert P.edges == (Multiset([1, 1, 2]), Multiset([1, 2, 2]))
    assert np.array_equal(edges, before) and edges.dtype == np.int16


def test_pattern_edges_are_built_once(pb):
    assert pb.edges is pb.edges
    assert repr(pb) == "Pattern(m=2, r=3, edges=[[1, 1, 2], [1, 2, 2]])"


# ---------------------------------------------------------------------------
# Validation diagnostics
# ---------------------------------------------------------------------------


def test_validate_clean_pattern(p112):
    assert pl.validate_pattern_document(json.loads(pl.pattern_to_json(p112))) == []


def test_validate_document_multiplicity_sum():
    diags = pl.validate_pattern_document({"r": 3, "m": 2, "edges": [[1, 1]]})
    assert any("multiplicity sum 2 != r=3" in d for d in diags)


def test_validate_document_out_of_range():
    diags = pl.validate_pattern_document({"r": 3, "m": 2, "edges": [[1, 1, 3]]})
    assert any("index 3 > m=2" in d for d in diags)


def test_validate_document_duplicates_and_missing():
    diags = pl.validate_pattern_document({"r": 3, "m": 2,
                                          "edges": [[1, 1, 2], [2, 1, 1]]})
    assert any(d.startswith("warning:") and "duplicates" in d for d in diags)
    assert pl.validate_pattern_document({"r": 3, "m": 2}) == ["missing field 'edges'"]


@pytest.mark.parametrize("doc, want", [
    ({"r": 3, "m": 2, "edges": [[True, True, 2]]}, "edges[0]: must be a list of integers"),
    ({"r": 3, "m": True, "edges": []}, "m: must be an integer >= 1, got True"),
    ({"r": True, "m": 2, "edges": []}, "r: must be an integer >= 2, got True"),
])
def test_pattern_document_rejects_booleans(doc, want):
    assert pl.validate_pattern_document(doc) == [want]
    with pytest.raises(FormatError, match=want.replace("[", r"\[").replace("]", r"\]")):
        pl.pattern_from_json(json.dumps(doc))


@pytest.mark.parametrize("doc, want", [
    ({"r": 3, "n": 4, "edges": [[True, 2, 3]]}, "edges[0]: must be a list of integers"),
    ({"r": 2, "n": 4, "edges": [[1, False]]}, "edges[0]: must be a list of integers"),
    ({"r": 2, "n": True, "edges": []}, "n: must be an integer >= 1, got True"),
    ({"r": True, "n": 4, "edges": []}, "r: must be an integer >= 2, got True"),
])
def test_hypergraph_document_rejects_booleans(doc, want):
    assert pl.validate_hypergraph_document(doc) == [want]
    with pytest.raises(FormatError, match=want.replace("[", r"\[").replace("]", r"\]")):
        pl.hypergraph_from_json(json.dumps(doc))


# Values a JSON document can hold where an integer belongs.
_NOT_INTEGERS = [True, False, 1.0, 2.5, "1", None, [1], {}]
_HUGE = [2**70, -2**70, 2**63, -2**63 - 1]


@st.composite
def raw_documents(draw):
    """A parsed-JSON pattern ("m") or hypergraph ("n") document: mostly well
    formed, with each of the faults the validators name now and then."""
    def rarely(strategy, usual):
        return draw(strategy) if draw(st.integers(0, 9)) == 9 else usual

    size_key = draw(st.sampled_from(["m", "n"]))
    odd = st.sampled_from(_NOT_INTEGERS + _HUGE) | st.integers(-1, 1)
    r = rarely(odd, draw(st.integers(2, 4)))
    size = rarely(odd, draw(st.integers(1, 6)))
    width = r if type(r) is int and 2 <= r <= 4 else 3
    top = size if type(size) is int and 1 <= size <= 6 else 4
    value = st.integers(1, top)
    outside = st.sampled_from([-1, 0, top + 1, top + 2] + _HUGE)
    edges = []
    for _ in range(draw(st.integers(0, 12))):
        e = draw(st.lists(value, min_size=width, max_size=width,
                          unique=size_key == "n" and top >= width))
        for entries in (value, value | outside, value | st.sampled_from(_NOT_INTEGERS)):
            e = rarely(st.lists(entries, min_size=width, max_size=width), e)
        e = rarely(st.lists(value, max_size=width + 2), e)
        edges.append(rarely(st.sampled_from([None, 3, "edge", {}]), e))
    lists = [e for e in edges if isinstance(e, list)]
    if lists:
        for e in draw(st.lists(st.sampled_from(lists), max_size=4)):
            edges.insert(draw(st.integers(0, len(edges))), draw(st.permutations(e)))
    doc = {"r": r, size_key: size, "edges": rarely(odd, edges)}
    for key in rarely(st.sets(st.sampled_from(["r", size_key, "edges"]), min_size=1), ()):
        del doc[key]
    return size_key, rarely(st.sampled_from([[], 7, "doc", None]), doc)


def _outcome(build):
    """What ``build`` returns, or its exception's type and text; with its warnings."""
    def attempt():
        try:
            return build()
        except Exception as exc:
            return type(exc), str(exc)
    return _warnings_of(attempt)


_KINDS = {"m": (Pattern, pl.validate_pattern_document, reference_validate_pattern_document,
                pl.pattern_from_json),
          "n": (Hypergraph, pl.validate_hypergraph_document,
                reference_validate_hypergraph_document, pl.hypergraph_from_json)}


@settings(max_examples=400)
@given(raw_documents())
@example(("m", [1, 2]))
@example(("n", {"r": 2}))
@example(("m", {"r": True, "m": "2", "edges": []}))
@example(("n", {"r": 2.0, "n": None, "edges": []}))
@example(("m", {"r": 2**70, "m": 2**70, "edges": []}))
@example(("n", {"r": 2, "n": 2**70, "edges": [[1, 2**65], [2**65, 1], [2**70, 3]]}))
@example(("m", {"r": 2, "m": 2**70, "edges": [[1, 2**65], [2**65, 1]]}))
@example(("n", {"r": 2, "n": 3, "edges": {"0": [1, 2]}}))
@example(("m", {"r": 2, "m": 3, "edges": [[1, 2], None, "12", 5, {}]}))
@example(("n", {"r": 2, "n": 3, "edges": [[1, True], [1.0, 2], ["1", 2], [None, 2], [1, 2]]}))
@example(("m", {"r": 3, "m": 2, "edges": [[1], [1, 1, 2, 2], [], [2, 2, 1], [1, 2, 1], []]}))
@example(("n", {"r": 3, "n": 4, "edges": [[1], [1, 2, 3, 4], [], [4, 2, 3]]}))
@example(("n", {"r": 3, "n": 4, "edges": [[0, 2, 5], [2**70, 1, 2], [-2**70, 3, 4]]}))
@example(("m", {"r": 3, "m": 4, "edges": [[0, 2, 5], [2**70, 1, 2], [-2**70, 3, 4]]}))
@example(("n", {"r": 3, "n": 4, "edges": [[1, 1, 2], [3, 3, 3], [1, 2, 3], [3, 2, 1]]}))
@example(("m", {"r": 3, "m": 3, "edges": [[1, 1, 2], [2, 1, 1], [1, 2], [2, 1], [1, 2, 1],
                                          [3, 0, 1], [1, 3, 0], [1, 2, 2, 3], [3, 2, 2, 1]]}))
def test_document_check_matches_reference(case):
    size_key, doc = case
    kind, validate, reference, from_json = _KINDS[size_key]
    want = reference(doc)
    assert validate(doc) == want
    hard = [d for d in want if not d.startswith("warning:")]
    loaded = _outcome(lambda: from_json(json.dumps(doc)))
    if hard:
        message = f"invalid {kind.__name__.lower()} document: " + "; ".join(hard)
        assert loaded == ((FormatError, message), [])
        return
    built = _outcome(lambda: kind(doc[size_key], doc["r"], doc["edges"]))
    if isinstance(built[0], tuple) and built[0][0] is OverflowError:  # bad input on load
        built = ((FormatError, f"invalid {kind.__name__.lower()} document: {built[0][1]}"), [])
    assert loaded == built
    if isinstance(loaded[0], Pattern):
        written = json.loads(pl.pattern_to_json(loaded[0]))
        assert pl.validate_pattern_document(written) == reference(written) == []


def test_each_valid_load_checks_the_edges_once(tmp_path, monkeypatch):
    calls = {"_read_edges": [], "_check_edges": []}
    for name in calls:
        def spy(*args, name=name, real=getattr(patterns, name)):
            calls[name].append(args)
            return real(*args)
        monkeypatch.setattr(patterns, name, spy)
    pattern_text = '{"r":3,"m":2,"edges":[[2,1,1],[1,2,2],[1,1,2]]}'
    hypergraph_text = '{"r":2,"n":4,"edges":[[2,1],[1,3],[4,2]]}'
    (tmp_path / "p.json").write_text(pattern_text)
    (tmp_path / "g.json").write_text(hypergraph_text)
    loads = [(Pattern, lambda: pl.pattern_from_json(pattern_text)),
             (Pattern, lambda: pl.load_pattern(tmp_path / "p.json")),
             (Pattern, lambda: pl.load_any(tmp_path / "p.json")),
             (Hypergraph, lambda: pl.hypergraph_from_json(hypergraph_text)),
             (Hypergraph, lambda: pl.load_hypergraph(tmp_path / "g.json")),
             (Hypergraph, lambda: pl.load_any(tmp_path / "g.json"))]
    for kind, load in loads:
        for seen in calls.values():
            seen.clear()
        loaded, _ = _warnings_of(load)
        assert type(loaded) is kind and len(calls["_check_edges"]) == 1
        [(edges,)] = calls["_read_edges"]  # the array path: no per-value int() loop
        assert isinstance(edges, np.ndarray) and edges.dtype == np.int64


@st.composite
def integer_edge_lists(draw):
    """r, a size and edges of integers below 2^63, some of the wrong length,
    out of range, with a repeated entry or repeating another edge."""
    r = draw(st.integers(2, 4))
    size = draw(st.one_of(st.integers(1, 6), st.integers(7, 2**63 - 1)))
    entry = st.integers(1, min(size, 8)) | st.sampled_from(
        [-2**63, -1, 0, size, size + 1, 2**63 - 1])
    edge = st.lists(entry, min_size=r, max_size=r) | st.lists(entry, max_size=r + 2)
    edges = draw(st.lists(edge, max_size=8))
    if edges:
        edges += [draw(st.permutations(e)) for e in draw(st.lists(st.sampled_from(edges),
                                                                  max_size=3))]
    return r, size, edges


@settings(max_examples=300)
@given(integer_edge_lists())
def test_constructor_and_document_check_agree(case):
    r, size, edges = case
    for kind, validate, size_key in ((Pattern, pl.validate_pattern_document, "m"),
                                     (Hypergraph, pl.validate_hypergraph_document, "n")):
        hard = [d for d in validate({"r": r, size_key: size, "edges": edges})
                if not d.startswith("warning:")]
        built, _ = _outcome(lambda: kind(size, r, edges))
        assert isinstance(built, tuple) == bool(hard)
        if isinstance(built, tuple):
            assert built[0] is ValueError


def test_load_rejects_indices_past_intp(tmp_path):
    text = '{"r":2,"m":1180591620717411303424,"edges":[[1,36893488147419103232]]}'
    path = tmp_path / "huge.json"
    path.write_text(text)
    want = "invalid pattern document: index 36893488147419103232 does not fit in np.intp"
    for load in (lambda: pl.pattern_from_json(text), lambda: pl.load_pattern(path),
                 lambda: pl.load_any(path)):
        with pytest.raises(FormatError) as got:
            load()
        assert str(got.value) == want


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_canonical_text_form(pb):
    assert pl.pattern_to_json(pb) == '{"r":3,"m":2,"edges":[[1,1,2],[1,2,2]]}'


def test_empty_pattern_text_form():
    assert pl.pattern_to_json(Pattern(1, 3, [])) == '{"r":3,"m":1,"edges":[]}'


def test_round_trip_random(rng):
    for _ in range(100):
        m = int(rng.integers(1, 7))
        r = int(rng.integers(2, 5))
        P = pl.random_pattern(rng, m, r)
        assert pl.pattern_from_json(pl.pattern_to_json(P)) == P


def test_serialization_idempotent(rng):
    for _ in range(20):
        P = pl.random_pattern(rng, 4, 3)
        text = pl.pattern_to_json(P)
        assert pl.pattern_to_json(pl.pattern_from_json(text)) == text


def test_parse_error_reports_location():
    with pytest.raises(FormatError, match=r"line 1 column"):
        pl.pattern_from_json("{not json")


def test_load_rejects_invariant_violations():
    with pytest.raises(FormatError, match="multiplicity sum"):
        pl.pattern_from_json('{"r":3,"m":2,"edges":[[1,1]]}')
    with pytest.raises(FormatError, match="index 3"):
        pl.pattern_from_json('{"r":3,"m":2,"edges":[[1,1,3]]}')


def test_hypergraph_round_trip(rng):
    G = pl.complete_graph(5)
    assert pl.hypergraph_from_json(pl.hypergraph_to_json(G)) == G
    with pytest.raises(FormatError):
        pl.hypergraph_from_json('{"r":2,"n":3,"edges":[[1,1]]}')


def test_load_any_sniffs_kind(tmp_path):
    p = tmp_path / "p.json"
    p.write_text('{"r":3,"m":2,"edges":[[1,1,2]]}')
    g = tmp_path / "g.json"
    g.write_text('{"r":2,"n":3,"edges":[[1,2]]}')
    assert isinstance(pl.load_any(p), Pattern)
    assert isinstance(pl.load_any(g), Hypergraph)


def test_load_any_parses_once(tmp_path, monkeypatch):
    calls = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        calls.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", counting)
    for text, kind in (('{"r":3,"m":2,"edges":[[1,1,2]]}', Pattern),
                       ('{"r":2,"n":3,"edges":[[1,2]]}', Hypergraph)):
        path = tmp_path / "doc.json"
        path.write_text(text)
        calls.clear()
        assert isinstance(pl.load_any(path), kind)
        assert calls == [text]


@pytest.mark.parametrize("text, want", [
    ('{"r":2,"n":3,"edges":[[1,1]]}',
     "invalid hypergraph document: edges[0]: must contain exactly 2 distinct vertices"),
    ('{"r":3,"m":2,"edges":[[1,1,3]]}', "invalid pattern document: edges[0]: index 3 > m=2"),
    ('[1, 2]', "invalid pattern document: document must be an object, got list"),
    ('{not json', "parse error at line 1 column 2: Expecting property name enclosed in double quotes"),
])
def test_load_any_errors_match_from_json(tmp_path, text, want):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(FormatError) as got:
        pl.load_any(path)
    assert str(got.value) == want
    from_json = pl.hypergraph_from_json if '"n"' in text else pl.pattern_from_json
    with pytest.raises(FormatError) as direct:
        from_json(text)
    assert str(direct.value) == want


def test_save_and_load(tmp_path, pb):
    path = tmp_path / "pb.json"
    pl.save_pattern(pb, path)
    assert pl.load_pattern(path) == pb
    assert path.read_text().endswith("\n")


# ---------------------------------------------------------------------------
# Stock constructions
# ---------------------------------------------------------------------------


def test_complete_pattern_counts():
    assert pl.complete_pattern(4, 3).edge_count == math.comb(4, 3)
    assert pl.complete_pattern(3, 3).edge_count == 1
    with pytest.raises(ValueError):
        pl.complete_pattern(2, 3)


def test_complete_graph_counts():
    assert pl.complete_graph(2).rows.tolist() == [[1, 2]]
    assert pl.complete_graph(5).edge_count == math.comb(5, 2)
    with pytest.raises(ValueError, match="need m >= 2, got m=1"):
        pl.complete_graph(1)


def test_offdiagonal_pattern_counts():
    for m in (2, 3, 4):
        for r in (2, 3):
            P = pl.offdiagonal_pattern(m, r)
            assert P.edge_count == math.comb(m + r - 1, r) - m
            assert all(len(set(e.expansion)) > 1 for e in P.edges)


def test_offdiagonal_m2_r3_is_crossing_pattern(pb):
    assert pl.offdiagonal_pattern(2, 3) == pb


def test_iter_multisets_matches_independent_enumeration():
    for m in (1, 2, 3, 4):
        for size in (1, 2, 3):
            got = list(pl.iter_multisets(range(1, m + 1), size))
            want = all_multisets(range(1, m + 1), size)
            assert got == want
            assert len(got) == math.comb(m + size - 1, size)


def test_relabel_pattern_roundtrip(rng):
    P = pl.random_pattern(rng, 4, 3)
    perm = [3, 1, 4, 2]
    inverse = [0] * 4
    for old, new in enumerate(perm, start=1):
        inverse[new - 1] = old
    assert pl.relabel_pattern(pl.relabel_pattern(P, perm), inverse) == P
    with pytest.raises(ValueError):
        pl.relabel_pattern(P, [1, 1, 2, 3])


def test_random_pattern_exclude(rng):
    for _ in range(20):
        P = pl.random_pattern(rng, 2, 3, exclude=[[2, 2, 2]])
        assert Multiset([2, 2, 2]) not in P.edges
