"""Evaluation and maximization of pattern density polynomials over the simplex.

The density polynomial of a pattern P = (m, edges) with uniformity r is

    lam(x) = r! * sum_over_edges prod_i x_i^mult(i) / mult(i)!

restricted to the standard simplex (nonnegative weights summing to 1).  Its
maximum over the simplex, the Lagrangian of P, equals the supremum of edge
densities over large blowups of P.  Global maximization is NP-hard in
general (it contains max-clique through the Motzkin-Straus identity), so
:func:`maximize` returns a certified lower bound from multistart projected
gradient ascent, with the KKT stationarity residual reported, and
:func:`grid_oracle` provides exact rational grid maxima as independent
ground truth at desk scale: one integer numpy pass over the
denominator-d grid, enumerated by stars and bars in bounded chunks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
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


class SimplexPoint:
    """A point of the standard simplex: nonnegative weights summing to 1.

    The weight vector is validated on construction (sum within 1e-12) and
    exposed as a read-only numpy array.
    """

    __slots__ = ("_w",)

    def __init__(self, weights):
        w = np.array(weights, dtype=float)
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
        return cls(np.full(int(m), 1.0 / int(m)))

    @property
    def weights(self) -> np.ndarray:
        return self._w

    @property
    def dim(self) -> int:
        return self._w.size

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
    """

    restarts: int = 64
    max_iterations: int = 5000
    tolerance: float = 1e-10
    seed: int = 0
    support_threshold: float = 1e-7

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be > 0")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.support_threshold < 0:
            raise ValueError("support_threshold must be >= 0")


@dataclass
class OptimizerReport:
    """Outcome of a simplex maximization.

    value is a certified lower bound on the true maximum (it is the exact
    polynomial value at argmax, up to float rounding).  support lists the
    1-based coordinates of argmax above the support threshold.  oracle_gap
    is value minus an exact grid-oracle value when one was requested.
    """

    value: float
    argmax: SimplexPoint
    support: tuple[int, ...]
    restarts_used: int
    converged: bool
    kkt_residual: float
    oracle_gap: float | None = None

    def to_dict(self) -> dict:
        out = {
            "value": self.value,
            "argmax": self.argmax.weights.tolist(),
            "support": list(self.support),
            "restarts_used": self.restarts_used,
            "converged": self.converged,
            "kkt_residual": self.kkt_residual,
        }
        if self.oracle_gap is not None:
            out["oracle_gap"] = self.oracle_gap
        return out


# ---------------------------------------------------------------------------
# Polynomial tables
# ---------------------------------------------------------------------------


class _Poly:
    """A homogeneous degree-r polynomial on m indices as a slot table.

    Column e of the r x E slot table is edge e's sorted multiset expansion
    with 0-based indices, so the edge <1,1,2> owns slots (0, 0, 1); coef[e]
    is its coefficient, r!/prod(mult!) for a pattern edge.  Each term is the
    product of the weights in its r slots, so every kernel gathers r columns
    of the point matrix and costs O(S*E*r) for S points, whatever m is.
    The value, gradient and Hessian kernels take block rows at a time, so
    each S x E temporary stays cache-sized (256 KB) however many points are
    passed; a single point is one block.
    """

    __slots__ = ("slots", "coef", "m", "r", "block", "_scatter", "_bound")

    def __init__(self, slots: np.ndarray, coef: np.ndarray, m: int):
        slots.setflags(write=False)
        coef.setflags(write=False)
        self.slots = slots
        self.coef = coef
        self.m = m
        self.r = slots.shape[0]
        self.block = max(16, 32768 // max(1, slots.shape[1]))
        self._scatter = None
        self._bound = None

    @property
    def scatter(self) -> np.ndarray:
        """(r*E) x m matrix sending row j*E + e (slot j of edge e) to column
        slots[j, e] with weight coef[e], so one matmul sums the slot
        derivatives.  Built on the first gradient, so callers that only
        evaluate (the exact suites) never hold it."""
        if self._scatter is None:
            r, E = self.slots.shape
            W = np.zeros((r * E, self.m))
            W[np.arange(r * E), self.slots.reshape(-1)] = np.tile(self.coef, r)
            W.setflags(write=False)
            self._scatter = W
        return self._scatter

    @property
    def bound(self) -> float:
        """An upper bound of the polynomial on the simplex: the largest ratio
        of a monomial's summed coefficient to its multinomial coefficient.

        The multinomial-weighted monomials of degree r sum to
        (x_1 + ... + x_m)^r = 1 there, so the polynomial is a convex
        combination of these ratios (0 for absent monomials).  Every edge of
        a pattern has ratio exactly 1.  Built on first use, like scatter.
        """
        if self._bound is None:
            monomials, which = np.unique(np.sort(self.slots, axis=0), axis=1,
                                         return_inverse=True)
            summed = np.bincount(which.reshape(-1), self.coef,
                                 minlength=monomials.shape[1])
            ratio = summed / _multinomials(monomials).astype(float)
            self._bound = float(ratio.max(initial=0.0))
        return self._bound

    def plus_powers(self, indices, weight: float) -> "_Poly":
        """This polynomial plus weight * sum of x_i^r over 0-based indices."""
        idx = np.asarray(indices, dtype=np.intp)
        slots = np.hstack([self.slots, np.tile(idx, (self.r, 1))])
        coef = np.concatenate([self.coef, np.full(idx.size, float(weight))])
        return _Poly(slots, coef, self.m)


def _multinomials(columns: np.ndarray) -> np.ndarray:
    """r!/prod(mult!) of each sorted column of an r x E index table, as exact
    Python integers (object dtype).

    prod(mult!) of a sorted column is the product over its slots of the
    length of the run of equal indices ending there.
    """
    run = np.ones(columns.shape[1], dtype=np.int64)
    mult_fact = np.ones(columns.shape[1], dtype=object)
    for j in range(1, columns.shape[0]):
        run = np.where(columns[j] == columns[j - 1], run + 1, 1)
        mult_fact *= run
    return math.factorial(columns.shape[0]) // mult_fact


@lru_cache(maxsize=8192)
def _polynomial(P: Pattern) -> _Poly:
    """Slot table and float coefficients r!/prod(mult!) of P's density
    polynomial."""
    slots = np.ascontiguousarray(P.rows.T - 1)
    return _Poly(slots, _multinomials(slots).astype(float), P.m)


def _as_weights(m: int, x) -> np.ndarray:
    if isinstance(x, SimplexPoint):
        w = x.weights
    else:
        w = SimplexPoint(x).weights
    if w.size != m:
        raise ValueError(f"point has dimension {w.size}, pattern has m={m}")
    return w


def _row_blocks(kernel):
    """Run kernel(poly, X) on blocks of at most poly.block rows of X and
    stack the results."""
    @wraps(kernel)
    def blocked(poly: _Poly, X: np.ndarray) -> np.ndarray:
        if X.shape[0] <= poly.block:
            return kernel(poly, X)
        return np.concatenate([kernel(poly, X[i:i + poly.block])
                               for i in range(0, X.shape[0], poly.block)])
    return blocked


@_row_blocks
def _value_rows(poly: _Poly, X: np.ndarray) -> np.ndarray:
    slots = poly.slots
    terms = X[:, slots[0]]
    for idx in slots[1:]:
        terms *= X[:, idx]
    return terms @ poly.coef


@_row_blocks
def _grad_rows(poly: _Poly, X: np.ndarray) -> np.ndarray:
    """Row gradients: the derivative of a term along slot j is the product of
    its other r-1 slots, scattered onto column slots[j, e]."""
    r, E = poly.slots.shape
    gathered = [X[:, idx] for idx in poly.slots]
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
    others = np.empty((X.shape[0], r * E))
    others[:, :E] = suffix[0]
    others[:, (r - 1) * E:] = prefix[r - 1]
    for j in range(1, r - 1):
        np.multiply(prefix[j], suffix[j], out=others[:, j * E:(j + 1) * E])
    return others @ poly.scatter


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
    w = np.asarray(y, dtype=float)
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
    w = np.asarray(y, dtype=float)
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


@_row_blocks
def _hessian_rows(poly: _Poly, X: np.ndarray) -> np.ndarray:
    """S x m x m Hessians: each ordered slot pair (j, k), j != k, of a term
    adds coef times the product of its other r-2 slots to H[slots[j], slots[k]];
    one bincount over the flattened (row, index pair) cells sums them all."""
    S, m = X.shape
    E = poly.slots.shape[1]
    gathered = [X[:, idx] for idx in poly.slots]
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


def _kkt_polish_rows(poly: _Poly, X: np.ndarray, max_steps: int = 25) -> np.ndarray:
    """Newton refinement of stationarity on the support face of each row.

    Ascent alone floors the KKT residual near sqrt(eps) because objective
    comparisons hit float noise; equalizing the support gradient by Newton
    steps takes the residual to machine precision.  When the maximizers form
    a face (a blowup's optimum can spread over a class in many ways), the
    Newton matrix is singular, so the step is the minimum-norm least-squares
    solution, pinv(J) @ rhs with lstsq's default cutoff.  Rows on one face
    share a batched solve per step, but the guards act per row: a row whose
    step leaves the face, blows up, or is large stops at its last point.
    """
    X = X.copy()
    faces, face_of = np.unique(X > 1e-12, axis=0, return_inverse=True)
    for face, on_face in enumerate(faces):
        s = np.nonzero(on_face)[0]
        k = s.size
        if k == 0:
            continue
        rows = np.nonzero(face_of == face)[0]
        for _ in range(max_steps):
            x = X[rows]
            g = _grad_rows(poly, x)
            mu = (x * g).sum(axis=1)
            res = g[:, s] - mu[:, None]
            live = np.abs(res).max(axis=1) > 1e-14 * np.maximum(1.0, np.abs(mu))
            rows, x, res = rows[live], x[live], res[live]
            if rows.size == 0:
                break
            J = np.zeros((rows.size, k + 1, k + 1))
            J[:, :k, :k] = _hessian_rows(poly, x)[:, s[:, None], s]
            J[:, :k, k] = -1.0
            J[:, k, :k] = 1.0
            rhs = np.zeros((rows.size, k + 1, 1))
            rhs[:, :k, 0] = -res
            try:
                dx = (np.linalg.pinv(J) @ rhs)[:, :k, 0]
            except np.linalg.LinAlgError:
                break
            # The last row of J asks sum(dx) = 0.  At condition numbers near
            # 1/eps, pinv can miss it by 1e-7; removing the mean keeps the
            # point on the simplex.
            dx -= dx.mean(axis=1, keepdims=True)
            trial = x[:, s] + dx
            ok = (np.isfinite(dx).all(axis=1) & (np.abs(dx).max(axis=1) <= 0.1)
                  & (trial > 0).all(axis=1))
            rows = rows[ok]
            X[np.ix_(rows, s)] = trial[ok]
    return X


def _describe_rows(poly: _Poly, X: np.ndarray):
    """(values, kkt residuals, multipliers) of the rows of X."""
    G = _grad_rows(poly, X)
    mu = (X * G).sum(axis=1)
    return _value_rows(poly, X), _kkt_rows(X, G, mu), mu


def _finish_rows(poly: _Poly, X: np.ndarray):
    """Refine plateaued iterates, one result per row.

    Degenerate boundary optima (a coordinate decays like 1/k because its
    multiplier vanishes) plateau far from machine precision.  Candidates of
    a row: the point itself, its support-face Newton polish, and polishes of
    snapped copies with near-zero coordinates pinned to the boundary.  The
    best objective value wins, then the smallest (kkt residual, point), so
    this step can only sharpen the result.  All candidates of all rows go
    through one stacked polish.  Returns (values, kkt residuals, points).
    """
    # Candidate c is a row of C = [X; polishes of X and of its snapped
    # copies], and owner[c] is the row of X it belongs to.
    S = X.shape[0]
    support_size = (X > 1e-12).sum(axis=1)
    owners, starts = [np.arange(S), np.arange(S)], [X]
    for threshold in (1e-2, 1e-3):
        Y = np.where(X < threshold, 0.0, X)
        total = Y.sum(axis=1)
        keep = (total > 0) & ((Y > 0).sum(axis=1) != support_size)
        owners.append(np.nonzero(keep)[0])
        starts.append(Y[keep] / total[keep, None])
    owner = np.concatenate(owners)
    C = np.vstack([X, _kkt_polish_rows(poly, np.vstack(starts))])
    F, K, _ = _describe_rows(poly, C)
    best = np.full(S, -np.inf)
    np.maximum.at(best, owner, F)
    order = np.lexsort((*C.T[::-1], K, owner))
    order = order[F[order] >= best[owner[order]] - 1e-12]
    win = order[np.unique(owner[order], return_index=True)[1]]
    return F[win], K[win], C[win]


# ---------------------------------------------------------------------------
# Multistart projected gradient ascent
# ---------------------------------------------------------------------------


def _barycenter_starts(m: int) -> np.ndarray:
    """Barycenters of index subsets; these hit symmetric optima exactly.

    All nonempty subsets for m <= 10; beyond that, singletons, pairs and the
    full barycenter (the exhaustive list would grow exponentially).
    """
    if m <= 10:
        subsets = itertools.chain.from_iterable(
            itertools.combinations(range(m), size) for size in range(1, m + 1)
        )
    else:
        subsets = itertools.chain(
            itertools.combinations(range(m), 1),
            itertools.combinations(range(m), 2),
            [tuple(range(m))],
        )
    rows = []
    for sub in subsets:
        x = np.zeros(m)
        x[list(sub)] = 1.0 / len(sub)
        rows.append(x)
    return np.array(rows)


def _random_starts(rng: np.random.Generator, m: int, count: int) -> np.ndarray:
    E = rng.standard_exponential((count, m))
    sums = E.sum(axis=1, keepdims=True)
    sums[sums <= 0] = 1.0
    return E / sums


def _maximize_arrays(poly: _Poly, cfg: OptimizerConfig):
    """Multistart projected gradient ascent with Armijo backtracking.

    All starts advance in lockstep (vectorized rows) until each has stopped
    or some row attains poly.bound, a maximum.  Returns the winning
    row: (x, value, kkt_residual, converged, starts_used).  Ties in value
    within 1e-12 go to the smallest (kkt residual, point), the rule of the
    finishing step.
    """
    m = poly.m
    value_of = lambda X: _value_rows(poly, X)
    grad_of = lambda X: _grad_rows(poly, X)

    rng = np.random.default_rng(cfg.seed)
    X = np.vstack([_barycenter_starts(m), _random_starts(rng, m, cfg.restarts)])
    S = X.shape[0]
    F = value_of(X)
    t = np.ones(S)
    alive = np.ones(S, dtype=bool)
    stalled = np.zeros(S, dtype=int)
    needs_finish = np.zeros(S, dtype=bool)

    for _ in range(cfg.max_iterations):
        if F.max() >= poly.bound:
            # A row attains an upper bound of the polynomial: it is a global
            # maximizer, and no row can do better.
            alive[:] = False
            break
        G = grad_of(X)
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
            FY = value_of(Y)
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
    if rows.size:
        _, first, same = np.unique(np.round(X[rows], 9), axis=0,
                                   return_index=True, return_inverse=True)
        f_done, _, x_done = _finish_rows(poly, X[rows[first]])
        F[rows], X[rows] = f_done[same], x_done[same]

    top = np.nonzero(F >= F.max() - 1e-12)[0]
    _, kkt_top, _ = _describe_rows(poly, X[top])
    x_best = X[top[np.lexsort((*X[top].T[::-1], kkt_top))[0]]].copy()
    # Described alone, so the value is eval_lagrange at the reported point.
    f_best, kkt_best, mu_best = (float(v[0]) for v in _describe_rows(poly, x_best[None, :]))
    accept_tol = KKT_ACCEPT_FACTOR * cfg.tolerance * max(1.0, abs(mu_best))
    return x_best, f_best, kkt_best, bool(kkt_best <= accept_tol), S


def maximize(P: Pattern, cfg: OptimizerConfig | None = None) -> OptimizerReport:
    """Best density-polynomial value found over the simplex.

    The report's value is a certified lower bound on the Lagrangian of P
    (it is the polynomial evaluated at the reported point); converged means
    the KKT stationarity residual met the acceptance threshold.
    """
    return _maximize_poly(_polynomial(P), cfg or OptimizerConfig())


def _maximize_poly(poly: _Poly, cfg: OptimizerConfig) -> OptimizerReport:
    """Report for the maximum of any slot-table polynomial over the simplex;
    the one path behind maximize and the reduced objective of gluing."""
    if poly.m == 1:
        x = np.ones(1)
        value = float(_value_rows(poly, x[None, :])[0])
        kkt, converged, used = 0.0, True, 1
    else:
        x, value, kkt, converged, used = _maximize_arrays(poly, cfg)
    support = tuple(int(i + 1) for i in np.nonzero(x > cfg.support_threshold)[0])
    return OptimizerReport(value, SimplexPoint(x), support, used, converged, kkt)


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


def _grid_chunks(d: int, m: int, lead: tuple[int, ...] = ()) -> Iterator[np.ndarray]:
    """Every composition of d into m nonnegative parts, as int64 arrays of
    1 to GRID_CHUNK rows, in lexicographic order, each row prefixed by the
    fixed parts ``lead``.

    Stars and bars by leading part: leading part k leaves C(d-k+m-2, m-2)
    completions.  Consecutive leading parts whose completions fit in one
    chunk together are expanded in one ``_grid_block``; a leading part with
    more completions than a chunk holds moves into ``lead`` and the
    (d - k, m - 1) grid is chunked the same way.
    """
    if m == 1:
        yield np.array([[*lead, d]], dtype=np.int64)
        return
    left = np.arange(d, -1, -1, dtype=np.int64)  # d - k for leading part k
    # Completions C(left + j, j) built up over j, capped at GRID_CHUNK + 1:
    # each step is exact on an exact count and keeps a capped one capped.
    tails = np.ones(d + 1, dtype=np.int64)
    for j in range(1, m - 1):
        tails = np.minimum(tails * (left + j) // j, GRID_CHUNK + 1)
    ends = np.cumsum(tails)
    k = 0
    while k <= d:
        if tails[k] > GRID_CHUNK:
            yield from _grid_chunks(d - k, m - 1, (*lead, k))
            k += 1
        else:
            stop = int(np.searchsorted(ends, ends[k] - tails[k] + GRID_CHUNK, side="right"))
            yield _grid_block(lead, d, left[k:stop], m)
            k = stop


def _grid_block(lead: tuple[int, ...], d: int, left: np.ndarray, m: int) -> np.ndarray:
    """The compositions of d into m parts whose leading parts leave
    ``left``, in lexicographic order and prefixed by ``lead``.

    Each column is one ``np.repeat``: a row with s still to place gets
    s + 1 children, one per next part 0..s.  The columns are then gathered
    into the chunk from the last back through the chain of parents.
    """
    parents, parts = [], [d - left]
    for _ in range(m - 2):
        counts = left + 1
        parent = np.repeat(np.arange(len(left)), counts)
        part = np.arange(len(parent)) - (np.cumsum(counts) - counts)[parent]
        parents.append(parent)
        parts.append(part)
        left = left[parent] - part
    K = np.empty((len(left), len(lead) + m), dtype=np.int64)
    K[:, :len(lead)] = lead
    K[:, -1] = left
    row = slice(None)
    for col in range(m - 2, -1, -1):
        K[:, len(lead) + col] = parts[col][row]
        if col:
            row = parents[col - 1][row]
    return K


def grid_oracle(P: Pattern, d: int, *, cap: int = 1_000_000) -> Fraction:
    """Exact maximum of the density polynomial over denominator-d grid points.

    Enumerates every simplex point with coordinates k_i/d in exact integer
    arithmetic, so the returned Fraction is an unarguable lower bound on the
    Lagrangian, converging to it as d grows.  Raises CapExceeded when the
    C(d+m-1, m-1) grid is larger than cap.

    At k the scaled value d^r * lam(k/d) is sum_e mc_e * prod_i k_i^mult_i,
    whose terms are distinct terms of the multinomial expansion of
    (k_1 + ... + k_m)^r = d^r.  Each chunk goes through the value kernel on
    the slot table with integer coefficients; its slot products form each
    monomial before the coefficient is applied, which keeps every
    intermediate at most d^r, so int64 is exact when d^r and every
    coefficient are below 2^63; beyond that the same pass runs on Python
    integers (object dtype).
    """
    d = int(d)
    if d < 1:
        raise ValueError(f"denominator must be >= 1, got {d}")
    points = math.comb(d + P.m - 1, P.m - 1)
    if points > cap:
        raise CapExceeded(f"grid has {points} points, cap is {cap}")
    scale = d**P.r
    slots = _polynomial(P).slots
    coef = _multinomials(slots)
    # A coefficient can pass 2^63 when d^r does not (d = 1 and an edge of 21
    # distinct indices), though its products are then all 0.
    dtype = np.int64 if max([scale, *coef]) < 2**63 else object
    exact = _Poly(slots, coef.astype(dtype), P.m)
    best = 0
    for K in _grid_chunks(d, P.m):
        best = max(best, int(_value_rows(exact, K.astype(dtype, copy=False)).max()))
    return Fraction(best, scale)


# ---------------------------------------------------------------------------
# Minimality
# ---------------------------------------------------------------------------


@dataclass
class MinimalityReport:
    """Per-index Lagrangian drop when that index is removed.

    minimal is true when every removal drops the value by more than the
    margin tolerance; margins[i] = value(P) - value(P without i).  argmax
    is the maximizer of P itself (not part of the JSON form).
    """

    minimal: bool
    value: float
    margins: dict[int, float]
    margin_tolerance: float
    converged: bool
    argmax: SimplexPoint

    def to_dict(self) -> dict:
        return {
            "minimal": self.minimal,
            "value": self.value,
            "margins": {str(i): g for i, g in self.margins.items()},
            "margin_tolerance": self.margin_tolerance,
            "converged": self.converged,
        }


def is_minimal(P: Pattern, cfg: OptimizerConfig | None = None, *,
               margin_tolerance: float = 1e-9) -> MinimalityReport:
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
    minimal = all(g > margin_tolerance for g in margins.values())
    return MinimalityReport(minimal, base.value, margins, margin_tolerance, converged,
                            base.argmax)


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
            full_support = bool((rep.argmax.weights > cfg.support_threshold).all())
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
