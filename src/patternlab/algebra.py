"""Pattern gluing: the union operation, its decomposition identity, and the
reduced one-parameter objective it induces.

Gluing a pattern P2 into an index i of a host pattern P1 replaces i by a
block of m2 fresh indices; edges of P2 land inside the block, edges of P1
avoiding i survive untouched, and an edge of P1 using i with multiplicity s
spawns one copy for every way of refilling those s slots with a multiset on
the block.  The density polynomial of the glued pattern splits exactly into
the host polynomial at the aggregated point plus the inner polynomial on
each block, which reduces the glued Lagrangian to a one-parameter family

    f(a) = max over the host simplex of  host(x) + a * sum_{i in glue} x_i^r

depending on the inner pattern only through its Lagrangian a.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .errors import CapExceeded
from .lagrangian import (OptimizerConfig, OptimizerReport, _as_weights, _finite,
                         _maximize_poly, _multinomials, _Poly, _polynomial,
                         _random_starts, eval_lagrange, eval_lagrange_unnormalized, maximize)
from .patterns import (Pattern, _runs, _substitute, iter_multisets, random_pattern,
                       relabel_pattern)

__all__ = [
    "UnionLabeling",
    "UnionLambdaCheck",
    "CatalogEntry",
    "union_on_set",
    "eval_decomposition",
    "map_f",
    "grosu_map",
    "verify_union_lambda",
    "nonjump_catalog",
    "multiset_power_gap",
    "decomposition_suite",
    "union_lambda_suite",
]

UNION_CAP = 2_000_000  # max edge images enumerated by union_on_set
GLUED_INDEX_CAP = 16  # max indices of the glued pattern verify_union_lambda maximizes
SUITE_R = 3  # uniformity of both gluing suites' random patterns
DECOMPOSITION_M_CAP = 4  # decomposition_suite: host and inner have 1..4 indices
DECOMPOSITION_TOLERANCE = 1e-12  # decomposition_suite: max |lhs - rhs|
UNION_LAMBDA_M_CAP = 3  # union_lambda_suite: every shape with 1..3 indices a side
UNION_LAMBDA_PER_SHAPE = 2  # union_lambda_suite: instances per shape and glue index
UNION_LAMBDA_TOLERANCE = 1e-6  # union_lambda_suite: max |direct - reduced|


@dataclass(frozen=True)
class UnionLabeling:
    """Where each index of a glued pattern came from.

    origin[k-1] describes new index k: ("base", j) for a surviving host
    index j, or ("block", i, j) for copy j of the inner pattern glued into
    host index i.  Blocks sit in place of the index they replace, so the
    new index order mirrors the host order.
    """

    m1: int
    m2: int
    glue: tuple[int, ...]
    origin: tuple[tuple, ...]

    @property
    def new_m(self) -> int:
        return len(self.origin)

    def block(self, i: int) -> tuple[int, ...]:
        """New indices of the block glued into host index i."""
        return tuple(k + 1 for k, o in enumerate(self.origin)
                     if o[0] == "block" and o[1] == i)

    def aggregate(self, weights: np.ndarray) -> np.ndarray:
        """Collapse a glued-point weight vector to host dimension m1 by
        summing each block onto its glued index."""
        w = np.asarray(weights, dtype=float)
        if w.size != self.new_m:
            raise ValueError(f"expected dimension {self.new_m}, got {w.size}")
        agg = np.zeros(self.m1)
        for k, o in enumerate(self.origin):
            agg[o[1] - 1] += w[k]
        return agg

    def to_dict(self) -> dict:
        rows = []
        for k, o in enumerate(self.origin, start=1):
            if o[0] == "base":
                rows.append({"new": k, "kind": "base", "index": o[1]})
            else:
                rows.append({"new": k, "kind": "block", "glued": o[1], "inner": o[2]})
        return {"m1": self.m1, "m2": self.m2, "glue": list(self.glue), "origin": rows}


def _check_glue(m1: int, glue) -> tuple[int, ...]:
    if isinstance(glue, int):
        glue = (glue,)
    T = tuple(sorted(set(int(i) for i in glue)))
    if not T:
        raise ValueError("glue set must be nonempty")
    if T[0] < 1 or T[-1] > m1:
        raise ValueError(f"glue set {list(T)} is not a subset of [1, {m1}]")
    return T


def union_on_set(P1: Pattern, P2: Pattern, glue) -> tuple[Pattern, UnionLabeling]:
    """Glue a copy of P2 into every index of the glue set of P1.

    The result has m1 + |glue|*(m2 - 1) indices and does not depend on any
    iteration order.  Raises CapExceeded before enumerating when the edge
    images exceed UNION_CAP: |glue|*|E2| inner images plus, per host edge, the
    product of C(m2 + s - 1, s) over its glued indices of multiplicity s.
    """
    if P1.r != P2.r:
        raise ValueError(f"uniformity mismatch: r={P1.r} vs r={P2.r}")
    T = _check_glue(P1.m, glue)
    images = len(T) * P2.edge_count + sum(
        math.prod(math.comb(P2.m + s - 1, s) for j, s in _runs(row) if j in T)
        for row in P1.rows.tolist())
    if images > UNION_CAP:
        raise CapExceeded(f"gluing enumerates {images} edge images, cap is {UNION_CAP}")

    origin: list[tuple] = []
    block: dict[int, tuple[int, ...]] = {}
    base_image: dict[int, int] = {}
    for j in range(1, P1.m + 1):
        if j in T:
            start = len(origin) + 1
            block[j] = tuple(range(start, start + P2.m))
            origin.extend(("block", j, inner) for inner in range(1, P2.m + 1))
        else:
            base_image[j] = len(origin) + 1
            origin.append(("base", j))
    labeling = UnionLabeling(P1.m, P2.m, T, tuple(origin))
    assert labeling.new_m == P1.m + len(T) * (P2.m - 1)

    # Inner images are P2's rows moved onto each block.  A host
    # diagonal <j, ..., j> on a glued j refills every r-multiset on block j,
    # so the inner images of that block are already among its refills.
    diagonals = set(P1.rows[P1.rows[:, 0] == P1.rows[:, -1], 0].tolist())
    refill = lambda j, s: (itertools.combinations_with_replacement(block[j], s)
                           if j in block else [(base_image[j],) * s])
    edges = np.concatenate([P2.rows + (block[j][0] - 1) for j in T if j not in diagonals]
                           + [_substitute(P1, refill, np.intp)])
    return Pattern(labeling.new_m, P1.r, edges), labeling


# ---------------------------------------------------------------------------
# Decomposition identity
# ---------------------------------------------------------------------------


def eval_decomposition(P1: Pattern, P2: Pattern, glue, x) -> tuple[float, float]:
    """Both sides of the gluing decomposition at a glued-simplex point x.

    Left: the glued pattern's polynomial at x.  Right: the host polynomial
    at the block-aggregated point plus the inner polynomial on each block
    slice.  The two agree identically provided the host carries no glued
    index's full diagonal multiset <i, ..., i> (hosts with Lagrangian below
    1, e.g. minimal ones, never do): a glued diagonal's refills already
    cover every block multiset, so the gluing skips that block's inner
    images, and the left side falls short by exactly the inner polynomial's
    block value.
    """
    U, lab = union_on_set(P1, P2, glue)
    w = _as_weights(U.m, x)
    lhs = eval_lagrange(U, w)
    rhs = eval_lagrange_unnormalized(P1, lab.aggregate(w))
    for i in lab.glue:
        idx = [k - 1 for k in lab.block(i)]
        rhs += eval_lagrange_unnormalized(P2, w[idx])
    return lhs, float(rhs)


def multiset_power_gap(y, s: int) -> float:
    """|sum over s-multisets A of (s!/prod A!) * prod y^A  -  (sum y)^s|.

    The multinomial collapse that makes the decomposition identity telescope:
    summing the weighted monomials of all s-multisets on a block reproduces
    the s-th power of the block total.
    """
    w = _finite(np.asarray(y, dtype=float))
    if s < 1:
        raise ValueError("s must be >= 1")
    total = 0.0
    multisets = list(iter_multisets(range(len(w)), s))
    for A, coef in zip(multisets, _multinomials(np.array(multisets).reshape(-1, s).T)):
        term = float(coef)
        for i in A:
            term *= w[i]
        total += term
    return float(abs(total - float(w.sum()) ** s))


# ---------------------------------------------------------------------------
# Reduced objective and the map f
# ---------------------------------------------------------------------------


def _reduced_polynomial(P1: Pattern, glue: tuple[int, ...], lambda2: float | Fraction) -> _Poly:
    """The reduced objective as one slot-table polynomial: the host's edges
    plus a diagonal term <i, ..., i> of weight lambda2 per glued index i."""
    return _polynomial(P1).plus_powers([i - 1 for i in glue], lambda2)


def map_f(P1: Pattern, glue, lambda2: float | Fraction,
          cfg: OptimizerConfig | None = None) -> OptimizerReport:
    """Maximize the reduced objective, host polynomial plus lambda2 * sum of
    r-th powers over the glue set, over the host simplex.

    The value is the Lagrangian of P1 glued (on the glue set) with any
    pattern of Lagrangian lambda2, which must lie in [0, 1]; the inner
    pattern's structure is irrelevant beyond that number.  As with
    eval_decomposition, the identification with the glued Lagrangian
    assumes the host carries no glued index's full diagonal multiset.
    A Fraction lambda2 enters the polynomial exactly, so 2/9 on the Grosu
    host offdiagonal_pattern(3, 3) certifies 74/81; any other number is
    taken as a float.
    """
    lambda2 = lambda2 if isinstance(lambda2, Fraction) else float(lambda2)
    glue = _check_glue(P1.m, glue)
    if not 0.0 <= lambda2 <= 1.0:
        raise ValueError(f"lambda2 must lie in [0, 1], got {lambda2}")
    return _maximize_poly(_reduced_polynomial(P1, glue, lambda2), cfg or OptimizerConfig())


def grosu_map(a, m: int, r: int) -> Fraction:
    """Exact value of 1 - (1 - a) / m^(r-1).

    This is the glued Lagrangian of the off-diagonal host pattern on m
    indices with the full glue set, as a function of the inner Lagrangian a.
    """
    m = int(m)
    r = int(r)
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    a = Fraction(a)
    if not 0 <= a <= 1:
        raise ValueError(f"a must lie in [0, 1], got {a}")
    return 1 - Fraction(1 - a, m ** (r - 1))


@dataclass
class UnionLambdaCheck:
    """Comparison of a glued Lagrangian against its reduced-objective value."""

    union_value: float
    reduced_value: float
    lambda2: float
    gap: float
    new_m: int
    converged: bool


def verify_union_lambda(P1: Pattern, P2: Pattern, glue,
                        cfg: OptimizerConfig | None = None) -> UnionLambdaCheck:
    """Maximize the glued pattern directly and through the reduced objective.

    Both routes are computed independently; the reported gap is their
    absolute difference.  The routes agree under the decomposition
    hypothesis (no glued-index diagonal in the host).  Raises CapExceeded
    when the glued pattern would have more than GLUED_INDEX_CAP indices.
    """
    cfg = cfg or OptimizerConfig()
    T = _check_glue(P1.m, glue)
    new_m = P1.m + len(T) * (P2.m - 1)
    if new_m > GLUED_INDEX_CAP:
        raise CapExceeded(f"glued pattern has {new_m} indices, cap is {GLUED_INDEX_CAP}")
    inner = maximize(P2, cfg)
    lambda2 = min(max(inner.value, 0.0), 1.0)
    U, _ = union_on_set(P1, P2, T)
    direct = maximize(U, cfg)
    reduced = map_f(P1, T, lambda2, cfg)
    gap = abs(direct.value - reduced.value)
    converged = inner.converged and direct.converged and reduced.converged
    return UnionLambdaCheck(direct.value, reduced.value, lambda2, gap, new_m, converged)


# ---------------------------------------------------------------------------
# Non-jump catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """One cataloged density value (or value family) with its provenance."""

    statement: str
    value: Fraction | None
    status: str
    source: str
    note: str = ""


def nonjump_catalog(r: int, *, frankl_rodl_l: Iterable[int] = ()) -> list[CatalogEntry]:
    """Known non-jump densities for uniformity r, as exact rationals.

    Includes the supremum of the interval of known jumps, the two published
    scalar non-jump constants, and the two (mutually inconsistent) printed
    forms of the original non-jump family, recorded without asserting either;
    passing l values materializes the family entries.  A further r=3 family
    from the literature is excluded because its printed closed form leaves
    [0, 1] for every admissible parameter choice.
    """
    r = int(r)
    if r < 3:
        raise ValueError(f"catalog is defined for r >= 3, got {r}")
    r_fact = math.factorial(r)
    entries = [
        CatalogEntry(
            statement="r!/r^r",
            value=Fraction(r_fact, r**r),
            status="jump-interval-supremum",
            source="Erdos 1964",
            note="every density below this value is a jump; status at the value is open",
        ),
        CatalogEntry(
            statement="5*r!/(2*r^r)",
            value=Fraction(5 * r_fact, 2 * r**r),
            status="non-jump",
            source="Frankl, Peng, Rodl, Talbot 2007",
        ),
        CatalogEntry(
            statement="54*r!/(25*r^r)",
            value=Fraction(54 * r_fact, 25 * r**r),
            status="non-jump",
            source="Yan, Peng 2021",
            note="smallest currently known non-jump",
        ),
        CatalogEntry(
            statement="1 - 1/l^(r-1), l > 2r",
            value=None,
            status="recorded-form",
            source="Frankl, Rodl 1984 (form A)",
            note="two inconsistent printed forms of this family circulate; recorded, not asserted",
        ),
        CatalogEntry(
            statement="1 - 1/(l^r - 1), l > 2r",
            value=None,
            status="recorded-form",
            source="Frankl, Rodl 1984 (form B)",
            note="two inconsistent printed forms of this family circulate; recorded, not asserted",
        ),
        CatalogEntry(
            statement="1 - l/3 + (3s+2)/l^2 (r=3 family)",
            value=None,
            status="excluded",
            source="Frankl, Peng, Rodl, Talbot 2007",
            note="printed closed form leaves [0, 1] for admissible parameters; omitted",
        ),
    ]
    for l in sorted(set(frankl_rodl_l)):
        if int(l) != l or l <= 2 * r:
            raise ValueError(f"family parameter l must be an integer exceeding 2r={2 * r}, got {l}")
        l = int(l)
        entries.append(CatalogEntry(
            statement=f"1 - 1/{l}^(r-1)",
            value=1 - Fraction(1, l ** (r - 1)),
            status="recorded-form",
            source="Frankl, Rodl 1984 (form A)",
            note="recorded, not asserted",
        ))
        entries.append(CatalogEntry(
            statement=f"1 - 1/({l}^r - 1)",
            value=1 - Fraction(1, l**r - 1),
            status="recorded-form",
            source="Frankl, Rodl 1984 (form B)",
            note="recorded, not asserted",
        ))
    return entries


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def decomposition_suite(trials: int = 200, seed: int = 0) -> dict:
    """Random-instance check of the gluing decomposition identity.

    Also spot-checks the multinomial power collapse for every block size up
    to 5 and every exponent up to SUITE_R.  Returns a JSON-ready report.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    r = SUITE_R
    rng = np.random.default_rng(seed)
    max_gap = 0.0
    for _ in range(int(trials)):
        m1 = int(rng.integers(1, DECOMPOSITION_M_CAP + 1))
        m2 = int(rng.integers(1, DECOMPOSITION_M_CAP + 1))
        i = int(rng.integers(1, m1 + 1))
        # Sample within the identity's hypothesis: no glued-index diagonal.
        P1 = random_pattern(rng, m1, r, exclude=[[i] * r])
        P2 = random_pattern(rng, m2, r)
        x = _random_starts(rng, m1 + m2 - 1, 1)[0]  # the glued pattern's m
        lhs, rhs = eval_decomposition(P1, P2, (i,), x)
        max_gap = max(max_gap, abs(lhs - rhs))
    power_gap = 0.0
    for m2 in range(1, 6):
        for s in range(1, r + 1):
            y = rng.standard_exponential(m2)
            y = y / (y.sum() * rng.uniform(1.0, 3.0))
            power_gap = max(power_gap, multiset_power_gap(y, s))
    passed = bool(max_gap < DECOMPOSITION_TOLERANCE and power_gap < DECOMPOSITION_TOLERANCE)
    return {
        "suite": "decomposition",
        "trials": int(trials),
        "max_gap": float(max_gap),
        "power_identity_max_gap": float(power_gap),
        "tolerance": DECOMPOSITION_TOLERANCE,
        "passed": passed,
    }


def union_lambda_suite(cfg: OptimizerConfig | None = None, seed: int = 0) -> dict:
    """Exhaustive small-shape check that the glued Lagrangian matches the
    reduced objective, plus structure-independence and empty-inner checks."""
    cfg = cfg or OptimizerConfig()
    r = SUITE_R
    rng = np.random.default_rng(seed)
    instances = []
    max_gap = 0.0
    for m1 in range(1, UNION_LAMBDA_M_CAP + 1):
        for m2 in range(1, UNION_LAMBDA_M_CAP + 1):
            for i in range(1, m1 + 1):
                for _ in range(UNION_LAMBDA_PER_SHAPE):
                    P1 = random_pattern(rng, m1, r, exclude=[[i] * r])
                    P2 = random_pattern(rng, m2, r)
                    chk = verify_union_lambda(P1, P2, (i,), cfg)
                    max_gap = max(max_gap, chk.gap)
                    instances.append({
                        "m1": m1, "m2": m2, "glue": [i],
                        "union_value": chk.union_value,
                        "reduced_value": chk.reduced_value,
                        "gap": chk.gap,
                    })

    # Two inner patterns with equal Lagrangian give equal glued values.
    P1 = random_pattern(rng, 3, r, allow_empty=False, exclude=[[2] * r])
    P2 = random_pattern(rng, 3, r, allow_empty=False)
    P2_relabeled = relabel_pattern(P2, (3, 1, 2))
    va = maximize(union_on_set(P1, P2, (2,))[0], cfg).value
    vb = maximize(union_on_set(P1, P2_relabeled, (2,))[0], cfg).value
    structure_gap = abs(va - vb)

    # An empty inner pattern leaves the host Lagrangian unchanged.
    empty = Pattern(1, r, ())
    host = random_pattern(rng, 3, r, allow_empty=False)
    glued_value = maximize(union_on_set(host, empty, (1,))[0], cfg).value
    empty_gap = abs(glued_value - maximize(host, cfg).value)

    passed = max_gap < UNION_LAMBDA_TOLERANCE and structure_gap < 1e-9 and empty_gap < 1e-9
    return {
        "suite": "union-lambda",
        "instances": len(instances),
        "max_gap": max_gap,
        "structure_independence_gap": structure_gap,
        "empty_inner_gap": empty_gap,
        "tolerance": UNION_LAMBDA_TOLERANCE,
        "passed": passed,
        "details": instances,
    }
