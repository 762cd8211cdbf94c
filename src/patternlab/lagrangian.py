"""Evaluation and maximization of pattern density polynomials over the simplex.

The density polynomial of a pattern P = (m, edges) with uniformity r is

    lam(x) = r! * sum_over_edges prod_i x_i^mult(i) / mult(i)!

restricted to the standard simplex (nonnegative weights summing to 1).  Its
maximum over the simplex, the Lagrangian of P, equals the supremum of edge
densities over large blowups of P.  Global maximization is NP-hard in
general (it contains max-clique through the Motzkin-Straus identity).
First, exact integer Bernstein coefficients on the twin chamber (the points
whose coordinates decrease within each class of interchangeable indices)
can prove the maximum attained at chamber vertices; :func:`maximize` then
reports such a vertex with the exact maximum, correctly rounded, and builds
no start row.  Otherwise it reports the best point that multistart
projected gradient ascent finds, with the polynomial's float value there (a
lower bound on the Lagrangian only up to float rounding) and the KKT
stationarity residual.  :func:`grid_oracle` provides exact
rational grid maxima as independent ground truth at desk scale: one integer
numpy pass over the denominator-d grid, enumerated by stars and bars in
bounded chunks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, wraps
from typing import Iterator

import numpy as np

from .errors import CapExceeded
from .patterns import (Hypergraph, Pattern, complete_graph, complete_pattern,
                       offdiagonal_pattern, pattern_of_hypergraph, random_pattern,
                       remove_index)

__all__ = [
    "SimplexPoint",
    "OptimizerConfig",
    "OptimizerReport",
    "MinimalityReport",
    "eval_lagrange",
    "eval_lagrange_unnormalized",
    "grad_lagrange",
    "maximize",
    "grid_oracle",
    "is_minimal",
    "lagrangian_of_hypergraph",
    "project_to_simplex",
    "minimality_suite",
]

# Accept a run as converged when the KKT residual is within this factor of
# the stopping target; ascent stalls near sqrt(eps) in the objective, which
# still leaves the residual orders of magnitude below this at default tol.
KKT_ACCEPT_FACTOR = 1e3

SIMPLEX_SUM_TOL = 1e-12

# Sufficient-increase constant of the Armijo test.  A full step at the 2/L
# stability edge of a symmetric optimum (offdiagonal_pattern(3, 3)) swaps
# the deviation between two coordinates every iteration and gains only a
# third-order amount, which a 1e-4 test still accepts, so the objective gap
# decays like 1/k over thousands of iterations.  1e-2 rejects such steps;
# the step then halves and the iterate converges in a few dozen passes.
ARMIJO_INCREASE = 1e-2

SUPPORT_THRESHOLD = 1e-7  # argmax coordinates above this form the reported support
KKT_POLISH_STEPS = 25  # max Newton steps of each row in _kkt_polish_rows
GRID_CAP = 1_000_000  # max C(d+m-1, m-1) grid points enumerated by grid_oracle
CHAMBER_CAP = 2**18  # max m**r coefficients of the certificate; past it there is none
MINIMALITY_MARGIN = 1e-9  # least value drop, per removed index, of a minimal pattern


def _finite(w: np.ndarray) -> np.ndarray:
    """w, checked finite: NaN fails every comparison, so the sign and sum
    tests of a point let it through."""
    if not np.isfinite(w).all():
        raise ValueError(f"non-finite weight in {w.tolist()}")
    return w


class SimplexPoint:
    """A point of the standard simplex: nonnegative weights summing to 1.

    The weight vector is validated on construction (finite, sum within
    1e-12) and exposed as a read-only numpy array.
    """

    __slots__ = ("_w",)

    def __init__(self, weights):
        w = _finite(np.array(weights, dtype=float))
        if w.ndim != 1 or w.size == 0:
            raise ValueError("weights must be a nonempty 1-D sequence")
        if (w < 0).any():
            raise ValueError(f"negative weight {w.min()}")
        total = float(w.sum())
        if abs(total - 1.0) > SIMPLEX_SUM_TOL:
            raise ValueError(f"weights sum to {total}, not 1 within {SIMPLEX_SUM_TOL}")
        w.setflags(write=False)
        self._w = w

    @classmethod
    def uniform(cls, m: int) -> "SimplexPoint":
        if int(m) != m:
            raise ValueError(f"m must be an integer, got {m}")
        m = int(m)
        return cls(np.full(m, 1.0 / m) if m >= 1 else [])

    @property
    def weights(self) -> np.ndarray:
        return self._w

    def __len__(self) -> int:
        return self._w.size

    def __iter__(self):
        return iter(self._w)

    def __getitem__(self, i):
        return self._w[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplexPoint) and np.array_equal(self._w, other._w)

    def __repr__(self) -> str:
        return f"SimplexPoint({self._w.tolist()})"


@dataclass(frozen=True)
class OptimizerConfig:
    """Multistart ascent settings.

    restarts counts the random (symmetric Dirichlet) starts drawn on top of
    the deterministic subset-barycenter starts; tolerance is the KKT
    stationarity target that stops a run, and a run is flagged converged
    when its final residual is within KKT_ACCEPT_FACTOR of that target.
    The command line sets every field (--restarts, --iters, --tol, --seed).
    """

    restarts: int = 64
    max_iterations: int = 5000
    tolerance: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not 0 < self.tolerance < math.inf:  # also false for NaN
            raise ValueError(f"tolerance must be finite and > 0, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class OptimizerReport:
    """Outcome of a simplex maximization.

    When the polynomial's exact Bernstein certificate holds, argmax is a
    certified vertex, value is the exact maximum correctly rounded, and
    restarts_used counts the certified vertices; no ascent runs.
    Otherwise value is the polynomial's float value at argmax, a lower
    bound on the true maximum only up to float rounding, and restarts_used
    counts the start rows built: one subset barycenter per orbit of the
    twin-class permutations, plus the random starts.  support lists the
    1-based coordinates of argmax above SUPPORT_THRESHOLD.
    """

    value: float
    argmax: SimplexPoint
    support: tuple[int, ...]
    restarts_used: int
    converged: bool
    kkt_residual: float


# ---------------------------------------------------------------------------
# Polynomial tables
# ---------------------------------------------------------------------------


class _Poly:
    """A homogeneous degree-r polynomial on m indices as a slot table.

    Column e of the r x E slot table is edge e's sorted multiset expansion
    with 0-based indices, so the edge <1,1,2> owns slots (0, 0, 1); its
    coefficient is num[e] / den, exactly.  Each term is the
    product of the weights in its r slots, so every kernel gathers r columns
    of the point matrix.  For S points the value and the gradient cost
    O(S*E*r), whatever m is, and the Hessians are S x m x m.  Each kernel
    computes a row with the same operations in the same order whatever
    other rows share the call, so neither blocks nor stacks change a bit.
    The value and gradient kernels take block rows at a time, so each
    S x E temporary stays cache-sized (256 KB) however many points are
    passed; the Hessian kernel's blocks are r(r-1) times shorter, as it
    holds that many such arrays.  A single point is one block.  The derived
    tables (merged, twins, certificate) are built on first use and kept.

    num holds Python integers (object dtype) over one positive int den; a
    pattern has den = 1 and num[e] = r!/prod(mult!).  The float kernels read
    coef, num / den correctly rounded by Python's int division, which a
    float copy of num could not give once den passes the float range.
    """

    def __init__(self, slots: np.ndarray, num: np.ndarray, den: int, m: int):
        coef = (num / den).astype(float)
        for table in (slots, num, coef):
            table.setflags(write=False)
        self.slots = slots
        self.num = num
        self.den = den
        self.coef = coef
        self.m = m
        self.r = slots.shape[0]
        self.block = max(16, 32768 // max(1, slots.shape[1]))

    @cached_property
    def merged(self) -> tuple[np.ndarray, np.ndarray]:
        """(monomials, summed): the distinct slot columns, sorted within
        each column already, in lexicographic order, and the summed
        numerator of each, a Python integer over den.

        A pattern's columns are already distinct, but plus_powers can add a
        diagonal <i,...,i> that the table already holds, and a float sum
        would round its 1 + lambda2."""
        monomials, which = np.unique(self.slots, axis=1, return_inverse=True)
        summed = np.zeros(monomials.shape[1], dtype=object)
        np.add.at(summed, which.reshape(-1), self.num)
        return np.ascontiguousarray(monomials), summed

    @cached_property
    def twins(self) -> tuple[tuple[int, ...], ...]:
        """The twin classes: the partition of the 0-based indices in which i
        and j share a class when swapping them maps every merged monomial,
        with its summed coefficient, onto a merged monomial with the same
        coefficient.  Classes are ordered by first member, members ascending.

        Twinship is an equivalence relation, and the polynomial is invariant
        under every permutation within classes."""
        monomials, summed = self.merged
        return _twin_classes(monomials, summed, self.m)

    @cached_property
    def certificate(self) -> tuple[Fraction, tuple[tuple[int, ...], ...]] | None:
        """(value, vertices) when exact Bernstein coefficients prove the
        maximum: value is the largest coefficient on a piece that covers the
        simplex up to the twin-class permutations, and it is attained at
        each listed vertex of the piece, the uniform point on those 0-based
        indices.  None when the largest coefficient is at no vertex.

        The piece is the twin chamber (see _chamber_piece), which is the
        whole simplex when every class is a singleton.  On it the polynomial
        is a convex combination of its Bernstein coefficients, and the
        coefficient at a vertex is the value there, so such a vertex is a
        proven maximizer and value is the exact maximum of the polynomial
        with the coefficients num / den.  Past CHAMBER_CAP the certificate
        is None."""
        if self.m**self.r > CHAMBER_CAP:
            return None
        T, L, vertices, scale = _chamber_piece(self)
        diagonal = (np.arange(self.m),) * self.r
        values = [Fraction(int(n), int(d) * scale) for n, d in zip(T[diagonal], L[diagonal])]
        top = max(values)
        best = (values.index(top),) * self.r
        # Cross-multiplied, T / L <= T[best] / L[best] in integers.
        if not (T * L[best] <= T[best] * L).all():
            return None
        return top, tuple(v for v, f in zip(vertices, values) if f == top)

    def plus_powers(self, indices, weight) -> "_Poly":
        """This polynomial plus weight * sum of x_i^r over 0-based indices,
        the weight taken exactly over the denominator lcm(den, its own)."""
        idx = np.asarray(indices, dtype=np.intp)
        w = Fraction(weight)
        den = math.lcm(self.den, w.denominator)
        slots = np.hstack([self.slots, np.tile(idx, (self.r, 1))])
        added = np.full(idx.size, w.numerator * (den // w.denominator), dtype=object)
        num = np.concatenate([self.num * (den // self.den), added])
        return _Poly(slots, num, den, self.m)


def _run_lengths(columns: np.ndarray) -> np.ndarray:
    """The length of the run of equal indices ending at each slot of an
    r x E table of sorted columns.  A run's last slot holds its index's
    multiplicity, and the product down a column is prod(mult!)."""
    run = np.ones(columns.shape, dtype=np.int64)
    for j in range(1, columns.shape[0]):
        run[j] = np.where(columns[j] == columns[j - 1], run[j - 1] + 1, 1)
    return run


def _multinomials(columns: np.ndarray) -> np.ndarray:
    """r!/prod(mult!) of each sorted column of an r x E index table, as exact
    Python integers (object dtype)."""
    return math.factorial(columns.shape[0]) // _run_lengths(columns).prod(axis=0, dtype=object)


def _twin_classes(monomials: np.ndarray, summed: np.ndarray,
                  m: int) -> tuple[tuple[int, ...], ...]:
    """Twin classes of a merged monomial table (see _Poly.twins).

    Twins share a signature: for each multiplicity and each coefficient,
    the number of monomials in which the index has that multiplicity and
    that coefficient.  Within a signature group each index is tested against
    the first member of every class found so far; one test per class is
    enough, as twinship is an equivalence relation.
    """
    r, U = monomials.shape
    coefs, coef_id = np.unique(summed, return_inverse=True)
    kinds = max(1, coefs.size)
    # Multiplicity of an index in a sorted column: its run length, read at
    # the run's last slot.
    ends = np.ones((r, U), dtype=bool)
    ends[:-1] = monomials[1:] != monomials[:-1]
    cell = (monomials * r + _run_lengths(monomials) - 1) * kinds + coef_id
    signature = np.bincount(cell[ends], minlength=m * r * kinds).reshape(m, r * kinds)
    group = np.unique(signature, axis=0, return_inverse=True)[1].reshape(-1)

    heads: dict[int, list[int]] = {}
    classes: dict[int, list[int]] = {}
    for i in range(m):
        candidates = heads.setdefault(int(group[i]), [])
        head = next((h for h in candidates if _swap_fixes(monomials, coef_id, h, i)), None)
        if head is None:
            candidates.append(i)
            classes[i] = [i]
        else:
            classes[head].append(i)
    return tuple(tuple(c) for c in classes.values())


def _swap_fixes(monomials: np.ndarray, coef_id: np.ndarray, i: int, j: int) -> bool:
    """Does swapping indices i and j map the merged table onto itself?

    Only the monomials holding i or j move.  Their images are re-sorted and
    compared with the originals, which np.unique left in lexicographic
    order; the swap is a bijection, so equal sorted tables mean it fixes
    the table."""
    held = np.nonzero(((monomials == i) | (monomials == j)).any(axis=0))[0]
    before = monomials[:, held]
    after = np.where(before == i, j, np.where(before == j, i, before))
    after.sort(axis=0)
    order = np.lexsort(after[::-1])
    return (np.array_equal(after[:, order], before)
            and np.array_equal(coef_id[held[order]], coef_id[held]))


def _chamber_piece(poly: _Poly):
    """(T, L, vertices, scale): the Bernstein coefficients of the polynomial
    on the twin chamber, the one at vertex multiset p being
    T[p] / (L[p] * scale).

    The chamber is the simplex of points whose coordinates do not increase
    along each twin class; with only singleton classes it is the whole
    simplex.  Its vertices are the uniform points on each class's first l
    members, l = 1..size; taken class by class, vertex p has l_p = its
    member's rank + 1.  Scaled by l, a vertex is the 0/1 indicator w_p of
    that prefix, so with merged's coefficients n / den the symmetric
    coefficient array times den holds integers: entry (i_1, ..., i_r) is r!
    times a monomial's coefficient over its number of arrangements,
    n * prod(mult!).  Contracting every axis with the prefix indicators, a
    cumulative sum within each class, gives T with
    T[p_1, ..., p_r] = r! * den * blossom(w_p1, ..., w_pr), an integer;
    L[p] = prod(l_p) and scale = r! * den.  Every |T[p] * l^r| is at most
    r! * sum|n| * max(l)^r, which picks int64 or Python integers.
    """
    monomials, coef = poly.merged
    m, r = poly.m, poly.r
    order = np.array([i for members in poly.twins for i in members])
    sizes = np.array([len(members) for members in poly.twins])
    starts = np.repeat(np.cumsum(sizes) - sizes, sizes)  # first position of each class
    bound = math.factorial(r) * sum(map(abs, coef.tolist())) * int(sizes.max()) ** r
    dtype = np.int64 if bound < 2**63 else object
    ells = (np.arange(m) - starts + 1).astype(dtype)
    shape = (m,) * r
    weights = (coef * _run_lengths(monomials).prod(axis=0, dtype=object)).astype(dtype)
    T = np.zeros(m**r, dtype=dtype)
    T[np.ravel_multi_index(monomials, shape)] = weights
    # Position p of the array stands for index order[p]: each of the m**r
    # cells, at most CHAMBER_CAP, reads the weight of its sorted index tuple.
    cells = np.sort(order[np.indices(shape).reshape(r, -1)], axis=0)
    T = T[np.ravel_multi_index(cells, shape)]
    # Contract axis 0 of the m x m**(r-1) view and move it last by a
    # transpose; after r rounds every axis is back in place.
    T = T.reshape(m, -1)
    for _ in range(r):
        total = np.vstack([np.zeros_like(T[:1]), np.cumsum(T, axis=0)])
        T = (total[1:] - total[starts]).T.reshape(m, -1)
    T = T.reshape(shape)
    L = ells
    for _ in range(r - 1):
        L = np.multiply.outer(L, ells)
    vertices = [tuple(order[starts[p]:p + 1].tolist()) for p in range(m)]
    return T, L, vertices, math.factorial(r) * poly.den


@lru_cache(maxsize=8192)
def _polynomial(P: Pattern) -> _Poly:
    """Slot table and integer coefficients r!/prod(mult!), over den = 1, of
    P's density polynomial."""
    slots = np.ascontiguousarray(P.rows.T - 1)
    return _Poly(slots, _multinomials(slots), 1, P.m)


def _as_weights(m: int, x) -> np.ndarray:
    if isinstance(x, SimplexPoint):
        w = x.weights
    else:
        w = SimplexPoint(x).weights
    if w.size != m:
        raise ValueError(f"point has dimension {w.size}, pattern has m={m}")
    return w


def _row_blocks(rows=lambda poly: poly.block):
    """Run kernel(poly, X) on blocks of at most rows(poly) rows of X and
    stack the results."""
    def wrap(kernel):
        @wraps(kernel)
        def blocked(poly: _Poly, X: np.ndarray) -> np.ndarray:
            n = rows(poly)
            if X.shape[0] <= n:
                return kernel(poly, X)
            return np.concatenate([kernel(poly, X[i:i + n]) for i in range(0, X.shape[0], n)])
        return blocked
    return wrap


@_row_blocks()
def _value_rows(poly: _Poly, X: np.ndarray) -> np.ndarray:
    """Row sums of the terms, coef times the product of r slots; np.take
    gathers C-ordered, so a row sums along itself, in a stack as alone."""
    terms = np.take(X, poly.slots[0], axis=1)
    for idx in poly.slots[1:]:
        terms *= np.take(X, idx, axis=1)
    # Integer rows are the grid oracle's, on a pattern polynomial (den 1).
    terms *= poly.coef if X.dtype.kind == "f" else poly.num.astype(X.dtype)
    return terms.sum(axis=1)


@_row_blocks()
def _grad_rows(poly: _Poly, X: np.ndarray) -> np.ndarray:
    """Row gradients: the derivative of a term along slot j is coef times the
    product of its other r-1 slots; one bincount over the flattened (row,
    index) cells sums them onto column slots[j, e]."""
    S, m = X.shape
    r, E = poly.slots.shape
    gathered = [np.take(X, idx, axis=1) for idx in poly.slots]
    # Exclusive prefix and suffix products over the r slots, unrolled: r is
    # tiny, and cumprod along a short axis is far slower than r-1 multiplies.
    prefix = [None] * r
    suffix = [None] * r
    prefix[1] = gathered[0]
    for j in range(2, r):
        prefix[j] = prefix[j - 1] * gathered[j - 1]
    suffix[r - 2] = gathered[r - 1]
    for j in range(r - 3, -1, -1):
        suffix[j] = suffix[j + 1] * gathered[j + 1]
    others = np.empty((S, r, E))
    others[:, 0] = suffix[0]
    others[:, r - 1] = prefix[r - 1]
    for j in range(1, r - 1):
        np.multiply(prefix[j], suffix[j], out=others[:, j])
    others *= poly.coef
    flat = np.arange(S)[:, None, None] * m + poly.slots
    return np.bincount(flat.ravel(), others.ravel(), minlength=S * m).reshape(S, m)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def eval_lagrange(P: Pattern, x) -> float:
    """Density polynomial of P at a simplex point x (dimension m)."""
    w = _as_weights(P.m, x)
    return float(_value_rows(_polynomial(P), w[None, :])[0])


def eval_lagrange_unnormalized(P: Pattern, y) -> float:
    """Density polynomial at an arbitrary nonnegative vector (no simplex check).

    Plumbing for homogeneity checks and for evaluating block slices of a
    glued point, which sum to less than 1.
    """
    w = _finite(np.asarray(y, dtype=float))
    if w.ndim != 1 or w.size != P.m:
        raise ValueError(f"point has dimension {w.size}, pattern has m={P.m}")
    if (w < 0).any():
        raise ValueError(f"negative weight {w.min()}")
    return float(_value_rows(_polynomial(P), w[None, :])[0])


def grad_lagrange(P: Pattern, x) -> np.ndarray:
    """Gradient of the density polynomial at x; satisfies x . grad = r * value."""
    w = _as_weights(P.m, x)
    return _grad_rows(_polynomial(P), w[None, :])[0]


# ---------------------------------------------------------------------------
# Simplex projection (sorting-based Euclidean projection)
# ---------------------------------------------------------------------------


def _project_rows(Y: np.ndarray) -> np.ndarray:
    S, m = Y.shape
    U = np.sort(Y, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1)
    j = np.arange(1, m + 1)
    cond = U + (1.0 - css) / j > 0.0
    # cond[:, 0] is always true; rho is the last true position per row.
    rho = m - 1 - np.argmax(cond[:, ::-1], axis=1)
    theta = (1.0 - css[np.arange(S), rho]) / (rho + 1.0)
    return np.maximum(Y + theta[:, None], 0.0)


def project_to_simplex(y) -> np.ndarray:
    """Euclidean projection of a vector onto the standard simplex."""
    w = _finite(np.asarray(y, dtype=float))
    if w.ndim != 1 or w.size == 0:
        raise ValueError("expected a nonempty 1-D vector")
    return _project_rows(w[None, :])[0]


def _kkt_rows(X: np.ndarray, G: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Stationarity residual per row: on the support the gradient must equal
    the multiplier mu = x . grad; off it, it must not exceed mu."""
    act = X > 1e-12
    dev = G - mu[:, None]
    r_eq = np.where(act, np.abs(dev), 0.0).max(axis=1)
    r_in = np.where(~act, np.maximum(dev, 0.0), 0.0).max(axis=1)
    return np.maximum(r_eq, r_in)


# The cell and weight arrays are r(r-1) S x E arrays, so a block is that
# many times shorter than the value and gradient kernels'.
@_row_blocks(lambda poly: max(1, poly.block // (poly.r * (poly.r - 1))))
def _hessian_rows(poly: _Poly, X: np.ndarray) -> np.ndarray:
    """S x m x m Hessians: each ordered slot pair (j, k), j != k, of a term
    adds coef times the product of its other r-2 slots to H[slots[j], slots[k]];
    one bincount over the flattened (row, index pair) cells sums them all."""
    S, m = X.shape
    E = poly.slots.shape[1]
    gathered = [np.take(X, idx, axis=1) for idx in poly.slots]
    cells, weights = [], []
    for j, k in itertools.combinations(range(poly.r), 2):
        rest = np.broadcast_to(poly.coef, (S, E))
        for other in range(poly.r):
            if other != j and other != k:
                rest = rest * gathered[other]
        cells += [poly.slots[j] * m + poly.slots[k], poly.slots[k] * m + poly.slots[j]]
        weights += [rest, rest]
    flat = np.arange(S)[:, None] * (m * m) + np.concatenate(cells)
    H = np.bincount(flat.ravel(), np.hstack(weights).ravel(), minlength=S * m * m)
    return H.reshape(S, m, m)


def _kkt_polish_rows(poly: _Poly, X: np.ndarray) -> np.ndarray:
    """Newton refinement of stationarity on the support face of each row.

    Ascent alone floors the KKT residual near sqrt(eps) because objective
    comparisons hit float noise; equalizing the support gradient by Newton
    steps takes the residual to machine precision.  When the maximizers form
    a face (a blowup's optimum can spread over a class in many ways), the
    Newton matrix is singular, so the step is the minimum-norm least-squares
    solution, pinv(J) @ rhs with lstsq's default cutoff.  All rows step
    together: one gradient and one Hessian call per step, then one batched
    solve per support size, whatever the faces.  The kernels and the solves
    compute each row as if it were alone, so a row polishes to the same bits
    in any stack.  The guards act per row: a row whose step leaves its face,
    blows up, or is large stops at its last point, and a solve that fails
    stops the rows of its size.
    """
    X = X.copy()
    on = X > 1e-12
    size = on.sum(axis=1)
    rows = np.nonzero(size)[0]
    for _ in range(KKT_POLISH_STEPS):
        x = X[rows]
        g = _grad_rows(poly, x)
        mu = (x * g).sum(axis=1)
        res = np.where(on[rows], g - mu[:, None], 0.0)
        live = np.abs(res).max(axis=1) > 1e-14 * np.maximum(1.0, np.abs(mu))
        rows, x, res = rows[live], x[live], res[live]
        if rows.size == 0:
            break
        H = _hessian_rows(poly, x)
        sizes = size[rows]
        ok = np.zeros(rows.size, dtype=bool)
        for k in np.unique(sizes):
            group = np.nonzero(sizes == k)[0]
            s = np.nonzero(on[rows[group]])[1].reshape(-1, k)
            J = np.zeros((group.size, k + 1, k + 1))
            J[:, :k, :k] = H[group[:, None, None], s[:, :, None], s[:, None, :]]
            J[:, :k, k] = -1.0
            J[:, k, :k] = 1.0
            rhs = np.zeros((group.size, k + 1, 1))
            rhs[:, :k, 0] = -np.take_along_axis(res[group], s, axis=1)
            try:
                dx = (np.linalg.pinv(J) @ rhs)[:, :k, 0]
            except np.linalg.LinAlgError:
                continue
            # The last row of J asks sum(dx) = 0.  At condition numbers near
            # 1/eps, pinv can miss it by 1e-7; removing the mean keeps the
            # point on the simplex.
            dx -= dx.mean(axis=1, keepdims=True)
            trial = np.take_along_axis(x[group], s, axis=1) + dx
            step = (np.isfinite(dx).all(axis=1) & (np.abs(dx).max(axis=1) <= 0.1)
                    & (trial > 0).all(axis=1))
            X[rows[group[step]][:, None], s[step]] = trial[step]
            ok[group] = step
        rows = rows[ok]
    return X


def _describe_rows(poly: _Poly, X: np.ndarray):
    """(values, kkt residuals, multipliers) of the rows of X."""
    G = _grad_rows(poly, X)
    mu = (X * G).sum(axis=1)
    return _value_rows(poly, X), _kkt_rows(X, G, mu), mu


def _finish_rows(poly: _Poly, X: np.ndarray) -> np.ndarray:
    """Refinement rows for plateaued iterates.

    Degenerate boundary optima (a coordinate decays like 1/k because its
    multiplier vanishes) plateau far from machine precision.  The rows are
    the support-face Newton polish of each row of X, in order, then polishes
    of copies whose coordinates below 1e-2 or 1e-3 snap to 0 (when that
    changes the support), all in one stacked polish.
    """
    support_size = (X > 1e-12).sum(axis=1)
    starts = [X]
    for threshold in (1e-2, 1e-3):
        Y = np.where(X < threshold, 0.0, X)
        total = Y.sum(axis=1)
        keep = (total > 0) & ((Y > 0).sum(axis=1) != support_size)
        starts.append(Y[keep] / total[keep, None])
    return _kkt_polish_rows(poly, np.vstack(starts))


# ---------------------------------------------------------------------------
# Multistart projected gradient ascent
# ---------------------------------------------------------------------------


def _barycenter_starts(m: int, twins=()) -> np.ndarray:
    """Barycenters of index subsets, one per orbit of the twin-class
    permutations; these hit symmetric optima exactly.

    The subsets are those that take a prefix of each twin class: exactly
    one per orbit, all in the chamber where coordinates do not increase
    within a class.  The polynomial is invariant under these permutations,
    so the other members of an orbit would climb to the same value.  For
    m <= 10 they are all such subsets; beyond that, those of size 1, 2 and m
    (the exhaustive list would grow exponentially).  Rows are ordered by
    size, then lexicographically by the sorted subset.  Indices missing from
    twins are singleton classes.
    """
    covered = {i for members in twins for i in members}
    classes = [*twins, *((i,) for i in range(m) if i not in covered)]
    sizes = np.array([len(members) for members in classes])
    if m <= 10:
        # Every choice of a prefix length per class, but the empty one.
        counts = np.indices(tuple(sizes + 1)).reshape(len(sizes), -1).T[1:]
    else:
        unit = np.eye(len(classes), dtype=np.intp)
        first, second = np.triu_indices(len(classes))
        counts = np.vstack([unit, unit[first] + unit[second], sizes])
        counts = counts[(counts <= sizes).all(axis=1)]
    class_of = np.empty(m, dtype=np.intp)
    rank = np.empty(m, dtype=np.intp)
    for c, members in enumerate(classes):
        class_of[list(members)] = c
        rank[list(members)] = np.arange(len(members))
    member = rank < counts[:, class_of]
    size = counts.sum(axis=1)
    # Among subsets of one size, the one holding the smallest index where
    # two differ comes first.
    order = np.lexsort(np.vstack([~member.T[::-1], size]))
    return member[order] / size[order, None]


def _random_starts(rng: np.random.Generator, m: int, count: int) -> np.ndarray:
    E = rng.standard_exponential((count, m))
    sums = E.sum(axis=1, keepdims=True)
    sums[sums <= 0] = 1.0
    return E / sums


def _maximize_arrays(poly: _Poly, cfg: OptimizerConfig):
    """Multistart projected gradient ascent with Armijo backtracking.

    All starts advance in lockstep (vectorized rows) until each has stopped.
    Returns (rows, starts_used): the final iterates followed by the
    refinement rows of those that plateaued near the best value, and the
    number of start rows built.
    """
    m = poly.m
    rng = np.random.default_rng(cfg.seed)
    X = np.vstack([_barycenter_starts(m, poly.twins), _random_starts(rng, m, cfg.restarts)])
    S = X.shape[0]
    F = _value_rows(poly, X)
    t = np.ones(S)
    stalled = np.zeros(S, dtype=int)
    needs_finish = np.zeros(S, dtype=bool)
    alive = np.ones(S, dtype=bool)

    for _ in range(cfg.max_iterations):
        G = _grad_rows(poly, X)
        mu = (X * G).sum(axis=1)
        kkt = _kkt_rows(X, G, mu)
        target = cfg.tolerance * np.maximum(1.0, np.abs(mu))
        alive &= kkt > target
        if not alive.any():
            break
        idx = np.nonzero(alive)[0]
        t[idx] = np.minimum(t[idx] * 2.0, 16.0)
        genuine = np.zeros(S, dtype=bool)
        todo = idx
        while todo.size:
            Y = _project_rows(X[todo] + t[todo, None] * G[todo])
            D = Y - X[todo]
            moved = np.abs(D).max(axis=1) > 1e-15
            gd = (G[todo] * D).sum(axis=1)
            FY = _value_rows(poly, Y)
            noise = 1e-15 * np.maximum(1.0, np.abs(F[todo]))
            # The noise slack keeps the line search alive once improvements
            # drop below float resolution; progress below the stall cutoff
            # only bumps the stall counter.
            accept = FY >= F[todo] + ARMIJO_INCREASE * gd - noise
            take = accept & moved
            genuine[todo[take]] = FY[take] > F[todo][take] + 1e-9 * np.maximum(
                1.0, np.abs(F[todo][take]))
            X[todo[take]] = Y[take]
            F[todo[take]] = FY[take]
            fixed = todo[accept & ~moved]  # projection fixed point
            alive[fixed] = False
            needs_finish[fixed] = True
            rest = todo[~accept]
            t[rest] *= 0.5
            exhausted = t[rest] < 1e-14
            alive[rest[exhausted]] = False
            needs_finish[rest[exhausted]] = True
            todo = rest[~exhausted]
        stalled[idx] = np.where(genuine[idx], 0, stalled[idx] + 1)
        slow = stalled >= 5  # plateaued: progress below the stall cutoff
        needs_finish |= alive & slow
        alive &= ~slow
    needs_finish |= alive  # ran out of iterations

    # Refine plateaued rows that could still contend for the maximum; rows
    # that plateaued at the same point share one refinement.
    rows = np.nonzero(needs_finish & (F >= F.max() - 1e-6))[0]
    _, first = np.unique(np.round(X[rows], 9), axis=0, return_index=True)
    return np.vstack([X, _finish_rows(poly, X[rows[first]])]), S


def maximize(P: Pattern, cfg: OptimizerConfig | None = None) -> OptimizerReport:
    """Best density-polynomial value found over the simplex.

    When the exact twin-chamber certificate holds, the report is a certified
    vertex, its value the exact maximum correctly rounded, and no ascent
    runs.  Otherwise the value is the polynomial's float value at the
    reported point, so it is a lower bound on the Lagrangian of P only up
    to float rounding.  converged means the KKT stationarity residual met
    the acceptance threshold.
    """
    return _maximize_poly(_polynomial(P), cfg or OptimizerConfig())


def _maximize_poly(poly: _Poly, cfg: OptimizerConfig) -> OptimizerReport:
    """Report for the maximum of any slot-table polynomial over the simplex;
    the one path behind maximize and the reduced objective of gluing.  The
    candidates are the certified vertices, else the ascent's rows and their
    refinements, described in one stacked call; a row's description does
    not depend on the stack, so an uncertified value is eval_lagrange at the
    winner.  The one winner rule: the best value within 1e-12, then the
    smallest (kkt residual, point)."""
    if poly.certificate:
        exact, vertices = poly.certificate
        X = np.array([np.isin(np.arange(poly.m), v) / len(v) for v in vertices])
        used = len(vertices)
    else:
        X, used = _maximize_arrays(poly, cfg)
    F, kkt, mu = _describe_rows(poly, X)
    near = np.nonzero(F >= F.max() - 1e-12)[0]
    best = near[np.lexsort((*X[near].T[::-1], kkt[near]))[0]]
    x = X[best]
    value, kkt, mu = float(F[best]), float(kkt[best]), float(mu[best])
    if poly.certificate:
        value = float(exact)
    converged = kkt <= KKT_ACCEPT_FACTOR * cfg.tolerance * max(1.0, abs(mu))
    support = tuple(int(i + 1) for i in np.nonzero(x > SUPPORT_THRESHOLD)[0])
    return OptimizerReport(value, SimplexPoint(x), support, used, bool(converged), kkt)


def lagrangian_of_hypergraph(G: Hypergraph, cfg: OptimizerConfig | None = None) -> OptimizerReport:
    """Lagrangian of a hypergraph: maximize the pattern of its edge set."""
    return maximize(pattern_of_hypergraph(G), cfg)


# ---------------------------------------------------------------------------
# Exact grid oracle
# ---------------------------------------------------------------------------


# Grid points per chunk of the oracle: enough to amortize numpy's per-call
# cost.  On the benchmark's four grids 32768 was no faster and raised peak
# RSS by 14 MB, against 2 MB at 4096.
GRID_CHUNK = 4096


def _grid_chunks(d: int, rest: tuple[int, ...]) -> Iterator[np.ndarray]:
    """One composition of d per orbit of the twin-class permutations, as
    int64 arrays of 1 to GRID_CHUNK rows, in lexicographic order.

    Column p stands for an index whose twin class has ``rest[p]`` more
    members in the next columns.  Within a class the parts do not decrease:
    a column's part is at least the previous member's, and at most
    1/(rest[p] + 1) of what is left, so that the later members can still
    reach it.  Such a composition is the one sorted point of its orbit.
    With only singleton classes (``rest`` all 0) the rules are vacuous and
    every composition comes out.

    Stars and bars by leading part: a leading part with more completions
    than a chunk holds is fixed, and the rest of the grid is chunked the
    same way; consecutive leading parts whose completions fit in one chunk
    together are expanded in one ``_grid_block``.
    """
    completions = _completions(d, rest)

    def chunks(d: int, lead: tuple[int, ...]) -> Iterator[np.ndarray]:
        p = len(lead)
        if p == len(rest) - 1:
            yield np.array([[*lead, d]], dtype=np.int64)
            return
        low = lead[-1] if p and rest[p - 1] else 0
        first = np.arange(low, d // (rest[p] + 1) + 1, dtype=np.int64)
        left = d - first
        # Taking first off each later member of its class leaves left - rest[p] * first.
        tails = completions[p][left - rest[p] * first]
        ends = np.cumsum(tails)
        k = 0
        while k < len(first):
            if tails[k] > GRID_CHUNK:
                yield from chunks(int(left[k]), (*lead, int(first[k])))
                k += 1
            else:
                stop = int(np.searchsorted(ends, ends[k] - tails[k] + GRID_CHUNK, side="right"))
                yield _grid_block(lead, d, left[k:stop], rest)
                k = stop

    return chunks(d, ())


def _completions(d: int, rest: tuple[int, ...]) -> list[np.ndarray]:
    """For each column p but the last and t = 0..d, the number of ways to
    fill the columns after p with total t once column p's part is taken off
    each later member of its class, capped at GRID_CHUNK + 1.

    These are the coefficients of prod_q 1/(1 - x^w_q) over the columns q
    from p on, but the last: w_q is rest[q] when q's class goes on past it,
    else the size of the class that starts at q + 1.  Dividing by 1 - x^w
    is a running sum along each residue class mod w; each step is exact on
    an exact count and keeps a capped one capped.
    """
    counts = np.zeros(d + 1, dtype=np.int64)
    counts[0] = 1
    table = []
    for q in range(len(rest) - 2, -1, -1):
        w = rest[q] or rest[q + 1] + 1
        pad = -(d + 1) % w
        padded = np.concatenate([counts, np.zeros(pad, dtype=np.int64)]) if pad else counts
        counts = np.minimum(padded.reshape(-1, w).cumsum(axis=0).reshape(-1)[:d + 1],
                            GRID_CHUNK + 1)
        table.append(counts)
    return table[::-1]


def _grid_block(lead: tuple[int, ...], d: int, left: np.ndarray, rest: tuple[int, ...]) -> np.ndarray:
    """The compositions of ``_grid_chunks`` whose leading parts leave
    ``left``, in lexicographic order and prefixed by ``lead``.

    Each column is one ``np.repeat``: a row with s still to place gets one
    child per next part from its lower bound (the previous part within a
    class, else 0) to s // (rest + 1).  The columns are then gathered into
    the chunk from the last back through the chain of parents.
    """
    p, m = len(lead), len(rest)
    parents, parts = [], [d - left]
    for q in range(p + 1, m - 1):
        low = parts[-1] if rest[q - 1] else 0
        high = left // (rest[q] + 1) if rest[q] else left
        counts = high + (1 - low)
        parent = np.repeat(np.arange(len(left)), counts)
        part = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent]
        if rest[q - 1]:
            part += low[parent]
        parents.append(parent)
        parts.append(part)
        left = left[parent] - part
    K = np.empty((len(left), m), dtype=np.int64)
    K[:, :p] = lead
    K[:, -1] = left
    row = slice(None)
    for col in range(m - 2, p - 1, -1):
        K[:, col] = parts[col - p][row]
        if col > p:
            row = parents[col - p - 1][row]
    return K


def grid_oracle(P: Pattern, d: int) -> Fraction:
    """Exact maximum of the density polynomial over denominator-d grid points.

    Takes every simplex point with coordinates k_i/d in exact integer
    arithmetic, so the returned Fraction is an unarguable lower bound on the
    Lagrangian, converging to it as d grows.  Raises CapExceeded when the
    C(d+m-1, m-1) grid is larger than GRID_CAP.

    The polynomial does not change when twin indices are permuted (see
    _Poly.twins), and neither does the grid, so one point per orbit is
    enough: the point whose parts do not increase along each twin class
    (see _grid_chunks).  The classes are laid out in contiguous columns,
    each in reverse, and the value kernel reads each index from its column
    through a relabelled slot table.

    At k the scaled value d^r * lam(k/d) is sum_e mc_e * prod_i k_i^mult_i,
    whose terms are distinct terms of the multinomial expansion of
    (k_1 + ... + k_m)^r = d^r.  Each chunk goes through the value kernel on
    P's cached polynomial, whose numerators are the integers mc_e (den is
    1); its slot products form each monomial before the coefficient is
    applied, which keeps every intermediate at most d^r, so int64 is exact
    when d^r and every coefficient are below 2^63; beyond that the same pass
    runs on Python integers (object dtype).
    """
    d = int(d)
    if d < 1:
        raise ValueError(f"denominator must be >= 1, got {d}")
    points = math.comb(d + P.m - 1, P.m - 1)
    if points > GRID_CAP:
        raise CapExceeded(f"grid has {points} points, cap is {GRID_CAP}")
    scale = d**P.r
    poly = _polynomial(P)
    # A coefficient can pass 2^63 when d^r does not (d = 1 and an edge of 21
    # distinct indices), though its products are then all 0.
    dtype = np.int64 if max([scale, *poly.num]) < 2**63 else object
    layout = [i for members in poly.twins for i in reversed(members)]
    rest = tuple(c for members in poly.twins for c in range(len(members) - 1, -1, -1))
    # The same polynomial, reading index i from column layout.index(i).
    columns = _Poly(np.argsort(layout)[poly.slots], poly.num, poly.den, poly.m)
    best = 0
    for K in _grid_chunks(d, rest):
        best = max(best, int(_value_rows(columns, K.astype(dtype, copy=False)).max()))
    return Fraction(best, scale)


# ---------------------------------------------------------------------------
# Minimality
# ---------------------------------------------------------------------------


@dataclass
class MinimalityReport:
    """Per-index Lagrangian drop when that index is removed.

    minimal is true when every removal drops the value by more than
    MINIMALITY_MARGIN; margins[i] = value(P) - value(P without i).  argmax
    is the maximizer of P itself.
    """

    minimal: bool
    value: float
    margins: dict[int, float]
    converged: bool
    argmax: SimplexPoint


def is_minimal(P: Pattern, cfg: OptimizerConfig | None = None) -> MinimalityReport:
    """Does removing any single index strictly decrease the Lagrangian?

    For m=1 the removal leaves nothing, whose Lagrangian is 0 by convention.
    """
    cfg = cfg or OptimizerConfig()
    base = maximize(P, cfg)
    margins: dict[int, float] = {}
    converged = base.converged
    for i in range(1, P.m + 1):
        if P.m == 1:
            sub_value = 0.0
        else:
            sub = maximize(remove_index(P, i), cfg)
            sub_value = sub.value
            converged = converged and sub.converged
        margins[i] = base.value - sub_value
    minimal = all(g > MINIMALITY_MARGIN for g in margins.values())
    return MinimalityReport(minimal, base.value, margins, converged, base.argmax)


# ---------------------------------------------------------------------------
# Verification suite: minimality and full-support argmaxes
# ---------------------------------------------------------------------------


def minimality_suite(cfg: OptimizerConfig | None = None, seed: int = 0) -> dict:
    """Check minimality verdicts on stock patterns and the full-support
    property of maximizers of minimal patterns.  Returns a JSON-ready report."""
    cfg = cfg or OptimizerConfig()
    cases = []
    expected_minimal = [
        ("one-heavy-edge", Pattern(2, 3, [[1, 1, 2]]), True),
        ("crossing-triples", Pattern(2, 3, [[1, 1, 2], [1, 2, 2]]), True),
        ("offdiagonal-3-3", offdiagonal_pattern(3, 3), True),
        ("complete-4-3", complete_pattern(4, 3), True),
        ("complete-graph-5", pattern_of_hypergraph(complete_graph(5)), True),
        ("untouched-index", Pattern(3, 3, [[1, 1, 2]]), False),
    ]
    rng = np.random.default_rng(seed)
    for t in range(4):
        expected_minimal.append((f"random-{t}", random_pattern(rng, 3, 3, allow_empty=False), None))

    all_ok = True
    for name, P, expect in expected_minimal:
        rep = is_minimal(P, cfg)
        ok = True
        if expect is not None:
            ok = rep.minimal == expect
        full_support = None
        if rep.minimal:
            full_support = bool((rep.argmax.weights > SUPPORT_THRESHOLD).all())
            ok = ok and full_support
        all_ok = all_ok and ok
        cases.append({
            "name": name,
            "minimal": rep.minimal,
            "expected": expect,
            "value": rep.value,
            "min_margin": min(rep.margins.values()),
            "full_support_argmax": full_support,
            "ok": ok,
        })
    return {"suite": "minimality", "cases": cases, "passed": all_ok}
