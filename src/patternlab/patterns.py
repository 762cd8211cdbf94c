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
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class _EdgeArray:
    """What ``Pattern`` and ``Hypergraph`` share: r, a size (m or n) and the edges.

    ``edges`` may be any iterable of index iterables, each index read
    through ``int``, or an integer ndarray of shape (E, r), which is copied
    and never modified.  They are kept once, as ``rows``: a read-only (E, r)
    array of sorted edges, deduplicated and in lexicographic order, so equal
    objects hold equal arrays however they were built.  The first offending
    edge in input order raises ValueError, worded by ``_fault``; an edge that
    cannot be read raises its reading error at its place in that order.
    """

    __slots__ = ("r", "rows", "_size", "_edges", "_hash")

    def _build(self, size: int, r: int, edges) -> int:
        """Check and keep the edges; return the number of duplicates dropped."""
        self._size, self.r = int(size), int(r)
        if self._size < 1:
            raise ValueError(f"{self._size_key} must be >= 1, got {self._size}")
        if self.r < 2:
            raise ValueError(f"r must be >= 2, got {self.r}")
        values, lengths, stop = _read_edges(edges)
        rows, faults = _check_edges(values, lengths, self.r, self._size, self._multisets)
        if rows is None:
            k = int(faults.bad.argmax())
            start = int(lengths[:k].sum())
            entries = values[start:start + lengths[k]]
            given = list(edges[k]) if isinstance(edges, np.ndarray) else entries.tolist()
            raise ValueError(self._fault(faults, k, given, sorted(entries.tolist())))
        if stop is not None:
            raise stop
        rows = self._stored(rows.reshape(-1, self.r))
        rows.flags.writeable = False
        self.rows, self._edges, self._hash = rows, None, None
        return len(lengths) - len(rows)

    def _stored(self, rows: np.ndarray) -> np.ndarray:
        return rows

    @property
    def edge_count(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._size == other._size and self.r == other.r
                and np.array_equal(self.rows, other.rows))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._size, self.r, self.rows.tobytes()))
        return self._hash


class Pattern(_EdgeArray):
    """An r-uniform pattern: m indices plus a set of r-multisets on {1..m}.

    ``rows`` is ``np.intp``, and a dropped duplicate warns.  ``edges``, the
    same edges as a tuple of ``Multiset``, is built on first access and kept.
    The empty edge set is allowed (its Lagrangian is 0).
    """

    __slots__ = ()
    _size_key, _noun, _bad_shape = "m", "index", "multiplicity sum {length} != r={r}"
    _multisets = True
    m = property(lambda self: self._size, doc="The number of indices.")

    def __init__(self, m: int, r: int, edges: Iterable[Multiset | Iterable[int]] | np.ndarray = ()):
        if self._build(m, r, edges):
            warnings.warn("duplicate multisets in edge list were deduplicated", stacklevel=2)

    def _stored(self, rows: np.ndarray) -> np.ndarray:
        # The rows come in np.min_scalar_type(m), which can hold indices past intp.
        if self.m > _INTP_MAX and rows.size and (top := int(rows.max())) > _INTP_MAX:
            raise OverflowError(f"index {top} does not fit in np.intp")
        return rows.astype(np.intp, copy=False)

    def _fault(self, faults: "_Faults", k: int, given: list, edge: list[int]) -> str:
        if faults.shape[k]:
            return f"multiset {edge} has multiplicity sum {len(edge)} != r={self.r}"
        if faults.low[k]:
            return f"indices must be >= 1, got {edge[0]}"
        return f"multiset {edge} uses index {edge[-1]} > m={self.m}"

    @property
    def edges(self) -> tuple[Multiset, ...]:
        if self._edges is None:
            self._edges = tuple(map(Multiset, self.rows.tolist()))
        return self._edges

    def __repr__(self) -> str:
        return f"Pattern(m={self.m}, r={self.r}, edges={self.rows.tolist()})"


class Hypergraph(_EdgeArray):
    """An r-uniform hypergraph on vertex set {1..n}; edges are r-sets.

    ``rows`` is in ``np.min_scalar_type(n)``, and a duplicate is dropped
    silently.
    """

    __slots__ = ()
    _size_key, _noun, _bad_shape = "n", "vertex", "must contain exactly {r} distinct vertices"
    _multisets = False
    n = property(lambda self: self._size, doc="The number of vertices.")

    def __init__(self, n: int, r: int, edges: Iterable[Iterable[int]] | np.ndarray = ()):
        self._build(n, r, edges)

    def _fault(self, faults: "_Faults", k: int, given: list, edge: list[int]) -> str:
        if faults.shape[k]:
            return f"edge {given} is not a set of {self.r} distinct vertices"
        return f"edge {edge} leaves the vertex range [1, {self.n}]"

    def __repr__(self) -> str:
        return f"Hypergraph(n={self.n}, r={self.r}, edges={self.edge_count})"


EDGE_PROBABILITY = 0.5  # random_pattern keeps each multiset with this probability
_INTP_MAX = np.iinfo(np.intp).max


def _integers(values: list[int]) -> np.ndarray:
    """Python ints as one int64 array, or as an object array when one is past int64."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _read_edges(edges) -> tuple[np.ndarray, np.ndarray, Exception | None]:
    """Every edge's entries in input order as one flat integer array, each
    edge's length, and the error that stopped the reading (or None).  An
    integer (E, w) ndarray is used as it is; otherwise entries are read
    through ``int`` until an edge cannot be (``int`` rejects an entry, or the
    iterable fails), so that an earlier offending edge is still reported first."""
    if isinstance(edges, np.ndarray) and edges.ndim == 2 and edges.dtype.kind in "iu":
        return edges.reshape(-1), np.full(len(edges), edges.shape[1], dtype=np.intp), None
    flat, lengths, stop = [], [], None
    try:
        for e in edges:
            row = [int(v) for v in e]
            flat.extend(row)
            lengths.append(len(row))
    except Exception as exc:
        stop = exc
    return _integers(flat), np.array(lengths, dtype=np.intp), stop


class _Faults(NamedTuple):
    """Per edge: misshapen (length not r, or a set repeats an entry); an entry
    below 1; an entry above the size (both exact for edges of length r); any of
    these; and, for a duplicate, the first edge equal to it up to order (else -1)."""

    shape: np.ndarray
    low: np.ndarray
    high: np.ndarray
    bad: np.ndarray
    first: np.ndarray


def _check_edges(values: np.ndarray, lengths: np.ndarray, r: int, size: int,
                 multisets: bool) -> tuple[np.ndarray | None, _Faults]:
    """The edge rules over all edges at once: ``values`` holds every edge's
    entries in input order, ``lengths`` their number per edge.  Each edge is
    sorted, then flagged, in the input's dtype so that a negative entry
    cannot wrap.  One stable ``np.lexsort`` of the sorted edges gives both
    the canonical order and, among equal edges, the first in input order.
    If no edge is at fault, the edges are narrowed to ``np.min_scalar_type(size)``
    for that sort and returned deduplicated as the canonical rows; otherwise
    the rows are None."""
    count = len(lengths)
    shape = lengths != r
    if shape.any():
        # Pad each column with its own value above every entry (and >= 1):
        # an edge's entries then sort first, a pad neither repeats nor falls
        # below 1, and edges of different lengths never compare equal.
        width = max(int(lengths.max()), 1)
        pads = np.arange(width, dtype=object) + int(values.max(initial=0)) + 1
        block = np.tile(pads, (count, 1))
        block[np.arange(width) < lengths[:, None]] = values
    else:  # with no edge, one column: r may exceed any array dimension
        block = values.reshape(count, r if count else 1)
    block = np.sort(block, axis=1)
    low = block[:, 0] < 1
    high = block[:, min(r, block.shape[1]) - 1] > size  # an edge of length r ends there
    if not multisets:
        shape = shape | (block[:, 1:] == block[:, :-1]).any(axis=1)
    bad = shape | low | high
    valid = not bad.any()
    if valid:
        block = block.astype(np.min_scalar_type(size), copy=False)
    order = np.lexsort(block.T[::-1])
    block = block[order]
    same = np.zeros(count, dtype=bool)
    same[1:] = (block[1:] == block[:-1]).all(axis=1)
    first = np.full(count, -1)
    if same.any():
        head = np.maximum.accumulate(np.where(same, 0, np.arange(count)))
        first[order[same]] = order[head[same]]
    return block[~same] if valid else None, _Faults(shape, low, high, bad, first)


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
    return Pattern(G.n, G.r, G.rows)


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
# JSON documents: validation, loading and canonical serialization
# ---------------------------------------------------------------------------


def _is_integer(value) -> bool:
    """An integer of a JSON document: ``bool`` is an ``int`` subclass, so
    ``true`` and ``false`` would otherwise pass as 1 and 0."""
    return isinstance(value, int) and not isinstance(value, bool)


def _read_document(doc, kind) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """A raw document's header faults (an object with ``r``, the size field
    of ``kind`` and an ``edges`` list); if there are none, the entries of the
    edges that are lists of integers as one flat array, every edge's length
    (0 for the others) and which are such lists."""
    size_key = kind._size_key
    if not isinstance(doc, dict):
        return [f"document must be an object, got {type(doc).__name__}"], None, None, None
    diags = [f"missing field '{key}'" for key in ("r", size_key, "edges") if key not in doc]
    if not diags:
        r, size, edges = doc["r"], doc[size_key], doc["edges"]
        if not _is_integer(r) or r < 2:
            diags.append(f"r: must be an integer >= 2, got {r!r}")
        if not _is_integer(size) or size < 1:
            diags.append(f"{size_key}: must be an integer >= 1, got {size!r}")
        if not isinstance(edges, list):
            diags.append(f"edges: must be a list, got {type(edges).__name__}")
    if diags:
        return diags, None, None, None
    edges = doc["edges"]
    # One check over the types of the edges and of the flattened values
    # settles the usual case, where every edge is a list of integers; only a
    # document with a type fault is read edge by edge to locate it.
    if set(map(type, edges)) <= {list}:
        flat = list(itertools.chain.from_iterable(edges))
        if set(map(type, flat)) <= {int}:
            lengths = np.fromiter(map(len, edges), dtype=np.intp, count=len(edges))
            return diags, _integers(flat), lengths, np.ones(len(edges), dtype=bool)
    flat, lengths, typed = [], [], []
    for e in edges:
        ok = isinstance(e, list) and all(map(_is_integer, e))
        typed.append(ok)
        lengths.append(len(e) if ok else 0)
        flat.extend(e if ok else ())
    return diags, _integers(flat), np.array(lengths, dtype=np.intp), np.array(typed, dtype=bool)


def _check(doc, kind) -> list[str]:
    """Diagnostics for a raw (parsed-JSON) ``Pattern`` or ``Hypergraph`` document:
    its header's faults, or else those of the edges ``_check_edges`` flags, in order."""
    diags, values, lengths, typed = _read_document(doc, kind)
    if diags:
        return diags
    r, size, edges = doc["r"], doc[kind._size_key], doc["edges"]
    members = np.flatnonzero(typed)
    _, faults = _check_edges(values, lengths[members], r, size, kind._multisets)
    flagged = ~typed
    flagged[members] = faults.bad
    first = np.full(len(edges), -1)  # for a duplicate edge, the edge it repeats
    first[members] = np.where(faults.first >= 0, members[faults.first], -1)
    for k in np.flatnonzero(flagged | (first >= 0)).tolist():
        e, loc = edges[k], f"edges[{k}]"
        if not typed[k]:
            diags.append(f"{loc}: must be a list of integers")
            continue
        if len(e) != r or (not kind._multisets and len(set(e)) < r):
            diags.append(f"{loc}: " + kind._bad_shape.format(length=len(e), r=r))
        for v in e:
            if v < 1:
                diags.append(f"{loc}: {kind._noun} {v} < 1")
            elif v > size:
                diags.append(f"{loc}: {kind._noun} {v} > {kind._size_key}={size}")
        if first[k] >= 0 and kind._multisets:
            diags.append(f"warning: {loc} duplicates edges[{first[k]}]")
    return diags


def validate_pattern_document(doc) -> list[str]:
    """Diagnostics for a raw (parsed-JSON) pattern document; empty iff valid.

    Duplicate edges are reported with a ``warning:`` prefix: they are legal
    on load (deduplicated with a warning) but noted here.
    """
    return _check(doc, Pattern)


def validate_hypergraph_document(doc) -> list[str]:
    """Diagnostics for a raw hypergraph document; empty iff valid."""
    return _check(doc, Hypergraph)


def _document(obj: Pattern | Hypergraph) -> dict:
    """The JSON document of a pattern or hypergraph file, as a dict."""
    return {"r": obj.r, obj._size_key: obj._size, "edges": obj.rows.tolist()}


def pattern_to_json(P: Pattern) -> str:
    """Canonical text form: sorted expansions, edge list sorted lexicographically."""
    return json.dumps(_document(P), separators=(",", ":"))


def hypergraph_to_json(G: Hypergraph) -> str:
    return json.dumps(_document(G), separators=(",", ":"))


def _parse(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"parse error at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _read(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return _parse(fh.read())


def _from_doc(doc, kind):
    """Build a ``kind`` from a raw document, or raise FormatError listing every fault.

    A document whose edges are all lists of r integers goes straight to the
    constructor, which checks it once; the diagnostics are built only if
    that fails.  An index past ``np.intp`` is bad input too."""
    invalid = f"invalid {kind.__name__.lower()} document: "
    diags, values, lengths, typed = _read_document(doc, kind)
    rejected = None
    if not diags and typed.all() and (lengths == doc["r"]).all():
        try:
            return kind(doc[kind._size_key], doc["r"], values.reshape(-1, doc["r"]))
        except OverflowError as exc:
            raise FormatError(invalid + str(exc)) from exc
        except ValueError as exc:
            rejected = exc
    hard = [d for d in _check(doc, kind) if not d.startswith("warning:")]
    # With no rule broken, the constructor's own error (a numpy limit, such as r
    # past an array dimension) stands.
    raise FormatError(invalid + "; ".join(hard)) if hard else rejected


def pattern_from_json(text: str) -> Pattern:
    return _from_doc(_parse(text), Pattern)


def hypergraph_from_json(text: str) -> Hypergraph:
    return _from_doc(_parse(text), Hypergraph)


def load_pattern(path) -> Pattern:
    return _from_doc(_read(path), Pattern)


def load_hypergraph(path) -> Hypergraph:
    return _from_doc(_read(path), Hypergraph)


def load_any(path) -> Pattern | Hypergraph:
    """Load a pattern or hypergraph file, sniffing by the 'm' vs 'n' field."""
    doc = _read(path)
    hypergraph = isinstance(doc, dict) and "n" in doc and "m" not in doc
    return _from_doc(doc, Hypergraph if hypergraph else Pattern)


def save_pattern(P: Pattern, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(pattern_to_json(P) + "\n")


def save_hypergraph(G: Hypergraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(hypergraph_to_json(G) + "\n")


# ---------------------------------------------------------------------------
# Stock constructions and enumeration helpers
# ---------------------------------------------------------------------------


def iter_multisets(indices: Sequence[int], size: int) -> Iterator[tuple[int, ...]]:
    """All size-multisets on the given indices, as sorted expansion tuples.

    Yields C(len(indices) + size - 1, size) tuples in lexicographic order.
    """
    yield from itertools.combinations_with_replacement(sorted(indices), size)


def complete_graph(m: int) -> Hypergraph:
    """K_m: the complete 2-graph on m vertices (m >= 2)."""
    if m < 2:
        raise ValueError(f"need m >= 2, got m={m}")
    return Hypergraph(m, 2, itertools.combinations(range(1, m + 1), 2))


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


def random_pattern(rng, m: int, r: int, *, allow_empty: bool = True,
                   exclude: Iterable[Multiset | Iterable[int]] = ()) -> Pattern:
    """Keep each r-multiset on {1..m} independently with probability EDGE_PROBABILITY.

    rng is a numpy Generator (anything with .random() works).  Multisets in
    exclude are never drawn.  When allow_empty is false and the draw comes
    out empty, one multiset is forced in, chosen by an extra draw.
    """
    banned = {(e if isinstance(e, Multiset) else Multiset(e)).expansion for e in exclude}
    universe = [e for e in iter_multisets(range(1, m + 1), r) if e not in banned]
    edges = [e for e in universe if rng.random() < EDGE_PROBABILITY]
    if not edges and not allow_empty:
        if not universe:
            raise ValueError("every multiset is excluded; cannot force an edge")
        edges = [universe[int(rng.random() * len(universe)) % len(universe)]]
    return Pattern(m, r, edges)
