"""Blowups of patterns as concrete hypergraphs, their densities, and the
finite-data checks for Lagrangian sequence conditions.

A blowup replaces each pattern index i by a class of size_i fresh vertices
and takes every r-set of vertices whose class profile (multiset of
intersection sizes) is an edge of the pattern.  The edge density of a
blowup with class fractions x converges to the pattern's density polynomial
at x as the blowup grows, which is what ties the simplex optimization to
actual hypergraphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapExceeded
from .lagrangian import OptimizerConfig, lagrangian_of_hypergraph, maximize
from .patterns import (Hypergraph, Pattern, _runs, _substitute, induced_subpattern,
                       random_pattern)

__all__ = [
    "Partition",
    "blowup",
    "blowup_edge_count",
    "density",
    "blowup_density",
    "ConstructionCheck",
    "construction_lagrangian_check",
    "construction_suite",
    "SequenceCheckReport",
    "sequence_check",
]

MATERIALIZE_CAP = 2_000_000  # max C(n, r) candidate r-sets for materialization
SEQUENCE_CAP = 10_000  # max subpattern maximizations run by sequence_check

CONSTRUCTION_SLACK = 1e-8  # float hair by which a blowup's Lagrangian may pass its pattern's
COND3_SLACK = 1e-8  # float hair by which a condition-3 subpattern value may pass lambda0
CONSTRUCTION_TRIALS = 20  # random blowups checked by construction_suite
CONSTRUCTION_N_CAP = 8  # max vertices of a construction_suite blowup


@dataclass(frozen=True)
class Partition:
    """Disjoint vertex classes covering {1..n}, in class order."""

    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen: set[int] = set()
        for part in self.parts:
            for v in part:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two classes")
                seen.add(v)
        n = len(seen)
        if seen and seen != set(range(1, n + 1)):
            raise ValueError("classes must cover exactly {1..n}")

    @classmethod
    def from_sizes(cls, sizes: Sequence[int]) -> "Partition":
        """Contiguous classes: the first size_1 vertices, the next size_2, ..."""
        parts = []
        next_vertex = 1
        for s in sizes:
            s = _whole(s)
            if s < 0:
                raise ValueError(f"class sizes must be >= 0, got {s}")
            parts.append(tuple(range(next_vertex, next_vertex + s)))
            next_vertex += s
        return cls(tuple(parts))

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.parts)

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts)


def _whole(size) -> int:
    """A class size as an int; one with a fractional part raises ValueError."""
    n = int(size)
    if n != size:
        raise ValueError(f"class sizes must be integers, got {size}")
    return n


def _class_sizes(P: Pattern, sizes: Sequence[int]) -> list[int]:
    """The class sizes of a blowup of P as ints: one per index, none negative."""
    if len(sizes) != P.m:
        raise ValueError(f"expected {P.m} sizes, got {len(sizes)}")
    sizes = [_whole(s) for s in sizes]
    if min(sizes, default=0) < 0:
        raise ValueError(f"class sizes must be >= 0, got {min(sizes)}")
    return sizes


def blowup(P: Pattern, sizes: Sequence[int]) -> tuple[Hypergraph, Partition]:
    """Materialize the blowup of P with the given class sizes.

    Every edge's profile is an edge of P, and every r-set whose profile is
    an edge of P is included.  Raises CapExceeded when C(n, r) > MATERIALIZE_CAP.
    """
    part = Partition.from_sizes(_class_sizes(P, sizes))
    n = part.n
    if n < 1:
        raise ValueError("blowup needs at least one vertex")
    candidates = math.comb(n, P.r)
    if candidates > MATERIALIZE_CAP:
        raise CapExceeded(f"C({n}, {P.r}) = {candidates} r-sets, cap is {MATERIALIZE_CAP}")
    # Classes are contiguous and each edge's classes are taken in index
    # order, so every row comes out sorted and distinct pattern edges fill
    # disjoint blocks; Hypergraph re-sorts and deduplicates regardless.
    edges = _substitute(P, lambda i, s: itertools.combinations(part.parts[i - 1], s),
                        np.min_scalar_type(n))
    return Hypergraph(n, P.r, edges), part


def blowup_edge_count(P: Pattern, sizes: Sequence[int]) -> int:
    """Closed-form edge count: sum over edges of prod_i C(size_i, mult_i)."""
    sizes = _class_sizes(P, sizes)
    total = 0
    for row in P.rows.tolist():
        term = 1
        for i, mult in _runs(row):
            term *= math.comb(sizes[i - 1], mult)
            if term == 0:
                break
        total += term
    return total


def density(G: Hypergraph) -> float:
    """Edge density |edges| / C(n, r); requires n >= r."""
    if G.n < G.r:
        raise ValueError(f"density needs n >= r, got n={G.n}, r={G.r}")
    return G.edge_count / math.comb(G.n, G.r)


def blowup_density(P: Pattern, sizes: Sequence[int]) -> float:
    """Blowup density from the closed-form count, without materializing."""
    sizes = _class_sizes(P, sizes)
    n = sum(sizes)
    if n < P.r:
        raise ValueError(f"density needs n >= r, got n={n}, r={P.r}")
    return blowup_edge_count(P, sizes) / math.comb(n, P.r)


@dataclass
class ConstructionCheck:
    """A blowup's Lagrangian never exceeds the pattern's (ok allows CONSTRUCTION_SLACK)."""

    pattern_value: float
    construction_value: float
    ok: bool
    converged: bool


def construction_lagrangian_check(P: Pattern, sizes: Sequence[int],
                                  cfg: OptimizerConfig | None = None) -> ConstructionCheck:
    """Materialize a blowup and compare its Lagrangian with the pattern's."""
    cfg = cfg or OptimizerConfig()
    G, _ = blowup(P, sizes)
    rep_c = lagrangian_of_hypergraph(G, cfg)
    rep_p = maximize(P, cfg)
    ok = rep_c.value <= rep_p.value + CONSTRUCTION_SLACK
    return ConstructionCheck(rep_p.value, rep_c.value, ok,
                             rep_c.converged and rep_p.converged)


def construction_suite(seed: int = 0, cfg: OptimizerConfig | None = None) -> dict:
    """Randomized blowup-vs-pattern inequality checks; JSON-ready report."""
    cfg = cfg or OptimizerConfig()
    rng = np.random.default_rng(seed)
    cases = []
    all_ok = True
    for _ in range(CONSTRUCTION_TRIALS):
        m = int(rng.integers(1, 4))
        P = random_pattern(rng, m, 3, allow_empty=False)
        while True:
            sizes = [int(rng.integers(0, 4)) for _ in range(m)]
            if P.r <= sum(sizes) <= CONSTRUCTION_N_CAP:
                break
        chk = construction_lagrangian_check(P, sizes, cfg)
        all_ok = all_ok and chk.ok
        cases.append({
            "m": m,
            "sizes": sizes,
            "pattern_value": chk.pattern_value,
            "construction_value": chk.construction_value,
            "ok": chk.ok,
        })
    return {"suite": "construction", "trials": CONSTRUCTION_TRIALS, "slack": CONSTRUCTION_SLACK,
            "cases": cases, "passed": all_ok}


# ---------------------------------------------------------------------------
# Sequence condition checks
# ---------------------------------------------------------------------------


@dataclass
class PerTermCheck:
    """Per-term verdicts for a pattern sequence against a target level."""

    t: int
    m: int
    lambda_value: float
    eps: float
    cond2_ok: bool
    worst_subset: tuple[int, ...]
    worst_subset_value: float
    cond3_ok: bool


@dataclass
class SequenceCheckReport:
    """Finite-data evidence for the three sequence conditions.

    Condition 1 (the limit) is reported as a trailing-window slope only: a
    finite prefix cannot certify a limit.  No verdict is certified: each value
    is maximize's, either a certified maximum correctly rounded or the
    optimizer's float value, so a lower bound only up to rounding.  So
    condition-2 passes and condition-3 violations hold up to rounding; the
    rest is evidence.
    """

    lambda0: float
    k: int
    per_t: list[PerTermCheck]
    trend_slope: float | None
    cond2_all: bool
    cond3_all: bool
    verdicts: dict[str, str]

    @property
    def ok(self) -> bool:
        return self.cond2_all and self.cond3_all


def sequence_check(patterns: Sequence[Pattern], k: int, lambda0: float,
                   eps: Sequence[float] | float,
                   cfg: OptimizerConfig | None = None) -> SequenceCheckReport:
    """Check a finite pattern list against the sequence conditions.

    Condition 2: Lagrangian of term t at least lambda0 + eps(t).
    Condition 3: every k-index subpattern's Lagrangian at most lambda0
    (checked exhaustively over all C(m_t, k) subsets, with slack for the
    optimizer's float hair).  eps must be supplied explicitly, either as a
    per-term sequence or a single constant.  Raises CapExceeded before the
    first maximization when the subsets, sum over t of C(m_t, k), exceed
    SEQUENCE_CAP.
    """
    cfg = cfg or OptimizerConfig()
    patterns = list(patterns)
    if not patterns:
        raise ValueError("need at least one pattern")
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if isinstance(eps, (int, float)):
        eps_list = [float(eps)] * len(patterns)
    else:
        eps_list = [float(v) for v in eps]
        if len(eps_list) < len(patterns):
            raise ValueError(f"eps has {len(eps_list)} entries for {len(patterns)} patterns")
    for t, P in enumerate(patterns, start=1):
        if P.m < k:
            raise ValueError(f"term {t} has m={P.m} < k={k}")
    subsets = sum(math.comb(P.m, k) for P in patterns)
    if subsets > SEQUENCE_CAP:
        raise CapExceeded(f"condition 3 needs {subsets} subpattern maximizations, "
                          f"cap is {SEQUENCE_CAP}")

    per_t: list[PerTermCheck] = []
    values = []
    for t, P in enumerate(patterns, start=1):
        rep = maximize(P, cfg)
        values.append(rep.value)
        cond2 = rep.value >= lambda0 + eps_list[t - 1]
        worst_subset: tuple[int, ...] = ()
        worst_value = -math.inf
        for S in itertools.combinations(range(1, P.m + 1), k):
            sub_value = maximize(induced_subpattern(P, S), cfg).value
            if sub_value > worst_value:
                worst_value = sub_value
                worst_subset = S
        cond3 = worst_value <= lambda0 + COND3_SLACK
        per_t.append(PerTermCheck(t, P.m, rep.value, eps_list[t - 1], cond2,
                                  worst_subset, worst_value, cond3))

    window = min(5, len(values))
    if window >= 2:
        ts = np.arange(len(values) - window, len(values), dtype=float)
        slope = float(np.polyfit(ts, values[-window:], 1)[0])
    else:
        slope = None
    cond2_all = all(p.cond2_ok for p in per_t)
    cond3_all = all(p.cond3_ok for p in per_t)
    verdicts = {
        "condition1": f"reported only (trailing-window slope {slope}); a finite prefix cannot certify a limit",
        "condition2": "pass (optimizer float values, lower bounds up to rounding)" if cond2_all
                      else "fail (lower-bound evidence did not reach lambda0 + eps)",
        "condition3": "pass (evidence; optimizer values are lower bounds)" if cond3_all
                      else "fail (conclusive: a subpattern lower bound exceeds lambda0)",
    }
    return SequenceCheckReport(float(lambda0), k, per_t, slope, cond2_all,
                               cond3_all, verdicts)
