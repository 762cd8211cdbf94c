"""Core types: multisets, patterns, hypergraphs, and their canonical JSON encoding.

A pattern is a pair (m, edges) where every edge is an r-multiset on the
index set {1, ..., m}.  Patterns are templates for hypergraph families:
replacing each index by a vertex class and collecting all r-sets whose
class profile is an edge of the pattern yields the blowup constructions
handled in :mod:`patternlab.blowups`.

Indices are 1-based throughout, both in memory and in serialized form.
All types here are immutable after construction and safe to share.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import warnings
from collections import Counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError

__all__ = [
    "Multiset",
    "Pattern",
    "Hypergraph",
    "induced_subpattern",
    "remove_index",
    "relabel_pattern",
    "pattern_of_hypergraph",
    "validate",
    "validate_pattern_document",
    "validate_hypergraph_document",
    "pattern_to_json",
    "pattern_from_json",
    "hypergraph_to_json",
    "hypergraph_from_json",
    "load_pattern",
    "load_hypergraph",
    "load_any",
    "save_pattern",
    "save_hypergraph",
    "iter_multisets",
    "complete_graph",
    "complete_hypergraph",
    "complete_pattern",
    "offdiagonal_pattern",
    "random_pattern",
]


class Multiset:
    """An unordered collection of indices with repetition, e.g. <1,1,2>.

    Stored as a sorted expansion tuple; two multisets are equal iff their
    expansions agree.  The multiset does not know the ambient index count m;
    range checks against m happen where m is available.
    """

    __slots__ = ("_expansion",)

    def __init__(self, indices: Iterable[int]):
        expansion = tuple(sorted(int(i) for i in indices))
        if not expansion:
            raise ValueError("a multiset needs at least one element")
        if expansion[0] < 1:
            raise ValueError(f"indices must be >= 1, got {expansion[0]}")
        self._expansion = expansion

    @property
    def expansion(self) -> tuple[int, ...]:
        return self._expansion

    @property
    def size(self) -> int:
        return len(self._expansion)

    @property
    def support(self) -> frozenset[int]:
        return frozenset(self._expansion)

    def multiplicity(self, i: int, m: int | None = None) -> int:
        """Number of copies of index i; 0 when absent.

        When m is given, i is range-checked against {1, ..., m}.
        """
        i = int(i)
        if i < 1 or (m is not None and i > m):
            bound = f"[1, {m}]" if m is not None else "[1, inf)"
            raise ValueError(f"index {i} out of range {bound}")
        return self._expansion.count(i)

    def counts(self) -> dict[int, int]:
        """Mapping index -> positive multiplicity."""
        return dict(Counter(self._expansion))

    def __eq__(self, other) -> bool:
        return isinstance(other, Multiset) and self._expansion == other._expansion

    def __lt__(self, other: "Multiset") -> bool:
        return self._expansion < other._expansion

    def __hash__(self) -> int:
        return hash(self._expansion)

    def __iter__(self) -> Iterator[int]:
        return iter(self._expansion)

    def __len__(self) -> int:
        return len(self._expansion)

    def __repr__(self) -> str:
        return f"Multiset({list(self._expansion)})"


class Pattern:
    """An r-uniform pattern: m indices plus a set of r-multisets on {1..m}.

    ``edges`` may be any iterable of multisets or index iterables, each
    index read through ``int``, or an integer ndarray of shape (E, r), which
    is copied and never modified.  The pattern stores them once, as
    ``rows``: a read-only (E, r) ``np.intp`` array of sorted expansions,
    deduplicated (with a warning) and in lexicographic order, so equal
    patterns hold equal arrays however they were built and the canonical
    JSON form is unique.  ``edges``, the same edges as a tuple of
    ``Multiset``, is built from ``rows`` on first access and kept.  The
    empty edge set is allowed (its Lagrangian is 0); m >= 1 and r >= 2 are
    enforced.
    """

    __slots__ = ("m", "r", "rows", "_edges", "_hash")

    def __init__(self, m: int, r: int,
                 edges: Iterable[Multiset | Iterable[int]] | np.ndarray = ()):
        m = int(m)
        r = int(r)
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if r < 2:
            raise ValueError(f"r must be >= 2, got {r}")
        rows, duplicates = _canonical_edge_array(m, r, edges, multisets=True)
        if duplicates:
            warnings.warn("duplicate multisets in edge list were deduplicated", stacklevel=2)
        rows.flags.writeable = False
        self.m = m
        self.r = r
        self.rows = rows
        self._edges = None
        self._hash = None

    @property
    def edges(self) -> tuple[Multiset, ...]:
        if self._edges is None:
            self._edges = tuple(map(Multiset, self.rows.tolist()))
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self.rows)

    def edges_with_multiplicity(self, i: int, s: int) -> tuple[Multiset, ...]:
        """Edges in which index i appears exactly s times."""
        if not 1 <= i <= self.m:
            raise ValueError(f"index {i} out of range [1, {self.m}]")
        return tuple(e for e in self.edges if e.multiplicity(i) == s)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Pattern)
            and self.m == other.m
            and self.r == other.r
            and np.array_equal(self.rows, other.rows)
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.m, self.r, self.rows.tobytes()))
        return self._hash

    def __repr__(self) -> str:
        return f"Pattern(m={self.m}, r={self.r}, edges={self.rows.tolist()})"


class Hypergraph:
    """An r-uniform hypergraph on vertex set {1..n}; edges are r-sets.

    ``edges`` may be any iterable of vertex iterables, each vertex read
    through ``int``, or an integer ndarray of shape (N, r), which is copied
    and never modified.  Stored edges are sorted tuples of Python ints,
    deduplicated and in lexicographic order.
    """

    __slots__ = ("n", "r", "edges")

    def __init__(self, n: int, r: int,
                 edges: Iterable[Iterable[int]] | np.ndarray = ()):
        n = int(n)
        r = int(r)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if r < 2:
            raise ValueError(f"r must be >= 2, got {r}")
        rows, _ = _canonical_edge_array(n, r, edges)
        self.n = n
        self.r = r
        self.edges = tuple(itertools.chain.from_iterable(
            zip(*rows[i:i + _EDGE_CHUNK].T.tolist())
            for i in range(0, len(rows), _EDGE_CHUNK)))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Hypergraph)
            and self.n == other.n
            and self.r == other.r
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.r, self.edges))

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, edges={self.edge_count})"


_EDGE_CHUNK = 4096  # rows turned into tuples at a time, so no list of lists is held in full


def _edge_rows(edges, r: int, wrong_length):
    """Read edges into an (N, r) integer array, in input order.

    Reading stops at the first edge that cannot be read as r integers: one
    whose length is not r (``wrong_length(edge, r)`` makes its error), a
    value that ``int`` rejects, or an error from the iterable itself.  That
    error is returned beside the rows before it (None when every edge was
    read), so the caller can still report an earlier offending edge first.
    """
    if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.dtype.kind in "iu":
        if edges.shape[1] == r or len(edges) == 0:
            return edges.reshape(-1, r), None
        return np.empty((0, r), dtype=edges.dtype), wrong_length(edges[0], r)
    flat: list[int] = []
    stop = None
    try:
        for e in edges:
            row = [int(v) for v in e]
            if len(row) != r:
                raise wrong_length(row, r)
            flat.extend(row)
    except Exception as exc:
        stop = exc
    try:
        rows = np.array(flat, dtype=np.int64)
    except OverflowError:  # a value past int64; the range check rejects it
        rows = np.array(flat, dtype=object)
    return rows.reshape(-1, r), stop


def _not_a_set(edge, r: int) -> ValueError:
    return ValueError(f"edge {list(edge)} is not a set of {r} distinct vertices")


def _not_r_indices(edge, r: int) -> ValueError:
    expansion = sorted(int(v) for v in edge)
    return ValueError(f"multiset {expansion} has multiplicity sum {len(expansion)} != r={r}")


def _canonical_edge_array(n: int, r: int, edges, *,
                          multisets: bool = False) -> tuple[np.ndarray, int]:
    """Check edges and return them row-sorted, deduplicated and in lexicographic
    order, with the number of duplicate edges dropped.

    Hypergraph edges are r-sets on [1, n] and come back in the narrowest
    unsigned dtype that holds n.  Pattern edges (``multisets``) may repeat
    an index and come back as ``np.intp``.  The result never shares memory
    with ``edges``.

    The first offending edge in input order raises ValueError: one whose
    length is not r, one with a repeated vertex (sets only), or one leaving
    [1, n], checked in that order within an edge.  An edge that cannot be
    read raises its reading error at its place in that order.  A set's
    message shows its vertices as read through ``int`` (an ndarray row as
    given), a multiset's its sorted expansion.  The checks run in the
    input's dtype, so a negative value cannot wrap.
    """
    rows, stop = _edge_rows(edges, r, _not_r_indices if multisets else _not_a_set)
    ordered = np.sort(rows, axis=1)
    low = ordered[:, 0] < 1
    bad = low | (ordered[:, -1] > n)
    if not multisets:
        repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        bad |= repeated
    if bad.any():
        k = int(bad.argmax())
        edge = ordered[k].tolist()
        if multisets:
            if low[k]:
                raise ValueError(f"indices must be >= 1, got {edge[0]}")
            raise ValueError(f"multiset {edge} uses index {edge[-1]} > m={n}")
        if repeated[k]:
            raise _not_a_set(edges[k] if isinstance(edges, np.ndarray) else rows[k].tolist(), r)
        raise ValueError(f"edge {edge} leaves the vertex range [1, {n}]")
    if stop is not None:
        raise stop
    ordered = ordered.astype(np.intp if multisets else np.min_scalar_type(n), copy=False)
    ordered = ordered[np.lexsort(ordered.T[::-1])]
    fresh = np.ones(len(ordered), dtype=bool)
    fresh[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return ordered[fresh], len(ordered) - np.count_nonzero(fresh)


# ---------------------------------------------------------------------------
# Pattern operations
# ---------------------------------------------------------------------------


def induced_subpattern(P: Pattern, S: Iterable[int]) -> Pattern:
    """Restrict P to the index set S, relabeling the survivors to {1..|S|}.

    Keeps exactly the edges supported inside S.  Relabeling preserves the
    relative order of the surviving indices.
    """
    s_sorted = sorted(set(int(i) for i in S))
    if not s_sorted:
        raise ValueError("S must be nonempty")
    if s_sorted[0] < 1 or s_sorted[-1] > P.m:
        raise ValueError(f"S={s_sorted} is not a subset of [1, {P.m}]")
    relabel = np.zeros(P.m + 1, dtype=np.intp)
    relabel[s_sorted] = np.arange(1, len(s_sorted) + 1)
    rows = relabel[P.rows]
    return Pattern(len(s_sorted), P.r, rows[rows.all(axis=1)])


def remove_index(P: Pattern, i: int) -> Pattern:
    """Delete index i and every edge containing it; survivors are relabeled.

    Requires m >= 2: removing the only index would leave no index set.
    """
    i = int(i)
    if not 1 <= i <= P.m:
        raise ValueError(f"index {i} out of range [1, {P.m}]")
    if P.m < 2:
        raise ValueError("cannot remove an index from a pattern with m=1")
    return induced_subpattern(P, (j for j in range(1, P.m + 1) if j != i))


def relabel_pattern(P: Pattern, permutation: Sequence[int]) -> Pattern:
    """Apply a permutation of {1..m}: old index j becomes permutation[j-1]."""
    perm = [int(p) for p in permutation]
    if sorted(perm) != list(range(1, P.m + 1)):
        raise ValueError(f"{perm} is not a permutation of [1, {P.m}]")
    return Pattern(P.m, P.r, np.array([0] + perm, dtype=np.intp)[P.rows])


def pattern_of_hypergraph(G: Hypergraph) -> Pattern:
    """View a hypergraph as a pattern: every edge becomes a multiplicity-1 multiset."""
    return Pattern(G.n, G.r, np.array(G.edges, dtype=np.intp).reshape(-1, G.r))


def _runs(row: list[int]) -> list[tuple[int, int]]:
    """(index, multiplicity) of each run of equal indices in a sorted row."""
    return [(i, row.count(i)) for i in dict.fromkeys(row)]


def _substitute(P: Pattern, picks, dtype) -> np.ndarray:
    """Replace the indices of every edge of P by families of multisets.

    An edge using index i with multiplicity s becomes every way of taking
    one s-tuple of picks(i, s) per index, concatenated in index order, so
    it contributes the product of the family sizes as rows of the returned
    (rows, r) array.  Each edge fills its own block of rows: the families
    are broadcast into an (a_1, ..., a_t, r) view of the block.  Both
    blowups (r-sets of vertex classes) and gluing (multisets on blocks) are
    this substitution.
    """
    @functools.cache
    def family(i: int, s: int) -> np.ndarray:
        return np.fromiter(itertools.chain.from_iterable(picks(i, s)),
                           dtype=dtype).reshape(-1, s)

    layouts = [[family(i, s) for i, s in _runs(row)] for row in P.rows.tolist()]
    rows = np.empty((sum(math.prod(map(len, layout)) for layout in layouts), P.r), dtype=dtype)
    row = 0
    for layout in layouts:
        shape = tuple(map(len, layout))
        count = math.prod(shape)
        block = rows[row:row + count].reshape(*shape, P.r)
        col = 0
        for axis, pick in enumerate(layout):
            lead = [1] * len(layout)
            lead[axis] = len(pick)
            width = pick.shape[1]
            block[..., col:col + width] = pick.reshape(*lead, width)
            col += width
        row += count
    return rows


# ---------------------------------------------------------------------------
# Validation diagnostics
# ---------------------------------------------------------------------------


def validate_pattern_document(doc) -> list[str]:
    """Diagnostics for a raw (parsed-JSON) pattern document; empty iff valid.

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
    if not isinstance(r, int) or r < 2:
        diags.append(f"r: must be an integer >= 2, got {r!r}")
    if not isinstance(m, int) or m < 1:
        diags.append(f"m: must be an integer >= 1, got {m!r}")
    if not isinstance(edges, list):
        diags.append(f"edges: must be a list, got {type(edges).__name__}")
    if diags:
        return diags
    seen: dict[tuple[int, ...], int] = {}
    for k, e in enumerate(edges):
        loc = f"edges[{k}]"
        if not isinstance(e, list) or not all(isinstance(v, int) for v in e):
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


def validate(P: Pattern) -> list[str]:
    """Re-check a constructed pattern's invariants; empty report iff valid."""
    doc = {"r": P.r, "m": P.m, "edges": P.rows.tolist()}
    return validate_pattern_document(doc)


def validate_hypergraph_document(doc) -> list[str]:
    """Diagnostics for a raw hypergraph document; empty iff valid."""
    diags: list[str] = []
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"]
    for key in ("r", "n", "edges"):
        if key not in doc:
            diags.append(f"missing field '{key}'")
    if diags:
        return diags
    r, n, edges = doc["r"], doc["n"], doc["edges"]
    if not isinstance(r, int) or r < 2:
        diags.append(f"r: must be an integer >= 2, got {r!r}")
    if not isinstance(n, int) or n < 1:
        diags.append(f"n: must be an integer >= 1, got {n!r}")
    if not isinstance(edges, list):
        diags.append(f"edges: must be a list, got {type(edges).__name__}")
    if diags:
        return diags
    for k, e in enumerate(edges):
        loc = f"edges[{k}]"
        if not isinstance(e, list) or not all(isinstance(v, int) for v in e):
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


# ---------------------------------------------------------------------------
# Canonical JSON serialization
# ---------------------------------------------------------------------------


def _dumps(doc: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(doc, indent=2)
    return json.dumps(doc, separators=(",", ":"))


def pattern_to_json(P: Pattern, *, pretty: bool = False) -> str:
    """Canonical text form: sorted expansions, edge list sorted lexicographically."""
    doc = {"r": P.r, "m": P.m, "edges": P.rows.tolist()}
    return _dumps(doc, pretty)


def _parse(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def pattern_from_json(text: str) -> Pattern:
    doc = _parse(text)
    diags = validate_pattern_document(doc)
    hard = [d for d in diags if not d.startswith("warning:")]
    if hard:
        raise FormatError("invalid pattern document: " + "; ".join(hard))
    return Pattern(doc["m"], doc["r"], doc["edges"])


def _hypergraph_doc(G: Hypergraph) -> dict:
    """The JSON document of a hypergraph file, as a dict."""
    return {"r": G.r, "n": G.n, "edges": [list(e) for e in G.edges]}


def hypergraph_to_json(G: Hypergraph, *, pretty: bool = False) -> str:
    return _dumps(_hypergraph_doc(G), pretty)


def hypergraph_from_json(text: str) -> Hypergraph:
    doc = _parse(text)
    diags = validate_hypergraph_document(doc)
    if diags:
        raise FormatError("invalid hypergraph document: " + "; ".join(diags))
    return Hypergraph(doc["n"], doc["r"], doc["edges"])


def load_pattern(path) -> Pattern:
    with open(path, "r", encoding="utf-8") as fh:
        return pattern_from_json(fh.read())


def load_hypergraph(path) -> Hypergraph:
    with open(path, "r", encoding="utf-8") as fh:
        return hypergraph_from_json(fh.read())


def load_any(path) -> Pattern | Hypergraph:
    """Load a pattern or hypergraph file, sniffing by the 'm' vs 'n' field."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    doc = _parse(text)
    if isinstance(doc, dict) and "n" in doc and "m" not in doc:
        return hypergraph_from_json(text)
    return pattern_from_json(text)


def save_pattern(P: Pattern, path, *, pretty: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pattern_to_json(P, pretty=pretty) + "\n")


def save_hypergraph(G: Hypergraph, path, *, pretty: bool = False) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hypergraph_to_json(G, pretty=pretty) + "\n")


# ---------------------------------------------------------------------------
# Stock constructions and enumeration helpers
# ---------------------------------------------------------------------------


def iter_multisets(indices: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """All size-multisets on the given indices, as sorted expansion tuples.

    Yields C(len(indices) + size - 1, size) tuples in lexicographic order.
    """
    yield from itertools.combinations_with_replacement(sorted(indices), size)


def complete_graph(m: int) -> Hypergraph:
    """K_m: the complete 2-graph on m vertices."""
    return complete_hypergraph(m, 2)


def complete_hypergraph(n: int, r: int) -> Hypergraph:
    """All r-subsets of {1..n}."""
    if n < r:
        raise ValueError(f"need n >= r, got n={n}, r={r}")
    return Hypergraph(n, r, itertools.combinations(range(1, n + 1), r))


def complete_pattern(m: int, r: int) -> Pattern:
    """All plain r-subsets of {1..m} as multiplicity-1 edges (m >= r).

    Blowups of this pattern are exactly the complete m-partite r-graphs.
    """
    if m < r:
        raise ValueError(f"need m >= r, got m={m}, r={r}")
    return Pattern(m, r, itertools.combinations(range(1, m + 1), r))


def offdiagonal_pattern(m: int, r: int) -> Pattern:
    """Every r-multiset on {1..m} except the m single-index (diagonal) ones.

    Its density polynomial collapses to 1 - sum_i x_i^r on the simplex, which
    makes it the canonical host pattern for gluing constructions.
    """
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
    edges = (e for e in iter_multisets(range(1, m + 1), r) if len(set(e)) > 1)
    return Pattern(m, r, edges)


def random_pattern(rng, m: int, r: int, *, edge_probability: float = 0.5,
                   allow_empty: bool = True,
                   exclude: Iterable[Multiset | Iterable[int]] = ()) -> Pattern:
    """Sample a pattern by keeping each r-multiset on {1..m} independently.

    rng is a numpy Generator (anything with .random() works).  Multisets in
    exclude are never drawn.  When allow_empty is false and the draw comes
    out empty, one multiset is forced in, chosen by an extra draw.
    """
    banned = {(e if isinstance(e, Multiset) else Multiset(e)).expansion for e in exclude}
    universe = [e for e in iter_multisets(range(1, m + 1), r) if e not in banned]
    edges = [e for e in universe if rng.random() < edge_probability]
    if not edges and not allow_empty:
        if not universe:
            raise ValueError("every multiset is excluded; cannot force an edge")
        edges = [universe[int(rng.random() * len(universe)) % len(universe)]]
    return Pattern(m, r, edges)
