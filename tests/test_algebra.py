import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patternlab as pl
from patternlab import Multiset, OptimizerConfig, Pattern, UnionLabeling, algebra
from patternlab.errors import CapExceeded
from patternlab.algebra import _reduced_polynomial
from patternlab.lagrangian import _value_rows, eval_lagrange_unnormalized

from conftest import all_multisets, random_simplex


# ---------------------------------------------------------------------------
# The union operation
# ---------------------------------------------------------------------------


def test_union_heavy_edge_into_itself(p112):
    U, lab = pl.union_on_set(p112, p112, (2,))
    assert U == Pattern(3, 3, [[2, 2, 3], [1, 1, 2], [1, 1, 3]])
    assert lab.new_m == 3
    assert lab.block(2) == (2, 3)
    assert lab.origin[0] == ("base", 1)


def test_union_with_empty_single_index_inner(p112, pb):
    empty = Pattern(1, 3, [])
    for P in (p112, pb):
        for i in (1, 2):
            U, _ = pl.union_on_set(P, empty, (i,))
            assert U == P


def _union_oracle(P1, P2, i):
    """Independent membership predicate over every candidate multiset."""
    m2 = P2.m
    new_m = P1.m + m2 - 1
    block = set(range(i, i + m2))
    e1 = {e.expansion for e in P1.edges}
    e2 = {e.expansion for e in P2.edges}

    def to_base(idx):
        return idx if idx < i else idx - (m2 - 1)

    edges = set()
    for M in all_multisets(range(1, new_m + 1), P1.r):
        inner = sorted(v - i + 1 for v in M if v in block)
        outer = [to_base(v) for v in M if v not in block]
        if len(inner) == P1.r and tuple(inner) in e2:
            edges.add(M)
            continue
        pulled_back = tuple(sorted(outer + [i] * len(inner)))
        if pulled_back in e1:
            edges.add(M)
    return edges


def test_union_matches_membership_oracle(rng):
    for _ in range(40):
        m1 = int(rng.integers(1, 4))
        m2 = int(rng.integers(1, 4))
        i = int(rng.integers(1, m1 + 1))
        P1 = pl.random_pattern(rng, m1, 3)
        P2 = pl.random_pattern(rng, m2, 3)
        U, _ = pl.union_on_set(P1, P2, (i,))
        assert {e.expansion for e in U.edges} == _union_oracle(P1, P2, i)


def test_union_clause_c_stars_and_bars_count():
    # a single host edge with multiplicity s at the glued index contributes
    # C(m2 + s - 1, s) refills when the inner pattern is edgeless
    for s in (1, 2, 3):
        for m2 in (1, 2, 3, 4):
            host = Pattern(2, 3, [[1] * (3 - s) + [2] * s])
            inner = Pattern(m2, 3, [])
            U, _ = pl.union_on_set(host, inner, (2,))
            assert U.edge_count == math.comb(m2 + s - 1, s)


def test_union_errors(p112):
    with pytest.raises(ValueError):
        pl.union_on_set(p112, Pattern(2, 2, [[1, 2]]), (1,))  # uniformity mismatch
    with pytest.raises(ValueError):
        pl.union_on_set(p112, p112, (3,))  # glue out of range
    with pytest.raises(ValueError):
        pl.union_on_set(p112, p112, ())  # empty glue set


def test_union_set_singleton_equals_single(rng):
    for _ in range(10):
        P1 = pl.random_pattern(rng, 3, 3)
        P2 = pl.random_pattern(rng, 2, 3)
        i = int(rng.integers(1, 4))
        # a bare index glues like the one-element set
        assert pl.union_on_set(P1, P2, (i,))[0] == pl.union_on_set(P1, P2, i)[0]


def test_union_set_index_count(rng):
    for _ in range(20):
        m1 = int(rng.integers(1, 5))
        m2 = int(rng.integers(1, 5))
        t_size = int(rng.integers(1, m1 + 1))
        T = sorted(rng.choice(range(1, m1 + 1), size=t_size, replace=False))
        P1 = pl.random_pattern(rng, m1, 3)
        P2 = pl.random_pattern(rng, m2, 3)
        U, lab = pl.union_on_set(P1, P2, T)
        assert U.m == m1 + len(T) * (m2 - 1) == lab.new_m


def test_union_set_equals_iterated_single_unions(rng):
    # gluing the indices one at a time, largest first so labels stay valid,
    # must reproduce the simultaneous construction
    for _ in range(15):
        m1 = int(rng.integers(2, 4))
        m2 = int(rng.integers(1, 4))
        t_size = int(rng.integers(2, m1 + 1))
        T = sorted(rng.choice(range(1, m1 + 1), size=t_size, replace=False))
        P1 = pl.random_pattern(rng, m1, 3)
        P2 = pl.random_pattern(rng, m2, 3)
        direct, _ = pl.union_on_set(P1, P2, T)
        iterated = P1
        for i in sorted(T, reverse=True):
            iterated, _ = pl.union_on_set(iterated, P2, (i,))
        assert iterated == direct


def test_union_full_glue_of_hypergraph_pattern():
    # gluing a graph's pattern into every index multiplies the index count
    host = pl.offdiagonal_pattern(2, 2)
    inner = pl.pattern_of_hypergraph(pl.complete_graph(3))
    U, _ = pl.union_on_set(host, inner, (1, 2))
    assert U.m == 2 * 3


def test_union_edge_product_cap(monkeypatch):
    # offdiagonal(3,3) (six edges <i,i,j> and <1,2,3>) glued on every index
    # of itself: 3 * 7 inner images, C(4,2) * 3 = 18 refills of each <i,i,j>
    # and 3^3 = 27 of <1,2,3>.
    P = pl.offdiagonal_pattern(3, 3)
    glue = (1, 2, 3)
    images = 3 * 7 + 6 * 18 + 27
    monkeypatch.setattr(algebra, "UNION_CAP", images)
    U, _ = pl.union_on_set(P, P, glue)
    assert U.edge_count == images
    monkeypatch.setattr(algebra, "UNION_CAP", images - 1)
    with pytest.raises(CapExceeded):
        pl.union_on_set(P, P, glue)


def reference_union_on_set(P1, P2, glue):
    """The set-of-Multiset gluing that union_on_set replaced, kept as its
    reference: every host edge's glued slots refilled by itertools.product
    over the block multisets, and a set to absorb collisions."""
    T = tuple(sorted(set(glue)))
    origin, block, base_image = [], {}, {}
    for j in range(1, P1.m + 1):
        if j in T:
            start = len(origin) + 1
            block[j] = tuple(range(start, start + P2.m))
            origin.extend(("block", j, inner) for inner in range(1, P2.m + 1))
        else:
            base_image[j] = len(origin) + 1
            origin.append(("base", j))
    edges = set()
    for i in T:
        for e in P2.edges:
            edges.add(Multiset(block[i][a - 1] for a in e.expansion))
    for e in P1.edges:
        fixed, glued = [], []
        for j, mult in e.counts().items():
            if j in T:
                glued.append((j, mult))
            else:
                fixed.extend([base_image[j]] * mult)
        choices = [list(pl.iter_multisets(block[j], s)) for j, s in glued]
        for combo in itertools.product(*choices):
            edges.add(Multiset(fixed + [v for part in combo for v in part]))
    return Pattern(len(origin), P1.r, edges), UnionLabeling(P1.m, P2.m, T, tuple(origin))


@st.composite
def union_cases(draw):
    """Host, inner pattern, glue set and whether the host carries a glued
    index's diagonal <j, ..., j>: m <= 4, r in 2..4, glue sets of every
    size, and empty host and inner edge sets among the draws."""
    r = draw(st.integers(2, 4))

    def pattern(m):
        universe = list(itertools.combinations_with_replacement(range(1, m + 1), r))
        return draw(st.lists(st.sampled_from(universe), unique=True, max_size=len(universe)))

    m1, m2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    host, inner = pattern(m1), pattern(m2)
    glue = tuple(sorted(draw(st.sets(st.integers(1, m1), min_size=1))))
    host = [e for e in host if not (len(set(e)) == 1 and e[0] in glue)]
    diagonals = draw(st.sets(st.sampled_from(glue)))
    host += [(j,) * r for j in diagonals]
    return Pattern(m1, r, host), Pattern(m2, r, inner), glue, diagonals


UNION_SETTINGS = settings(max_examples=200)


@UNION_SETTINGS
@given(union_cases())
def test_union_matches_set_reference(case):
    P1, P2, glue, _ = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pl.union_on_set(P1, P2, glue)
    assert got == reference_union_on_set(P1, P2, glue)


@UNION_SETTINGS
@given(union_cases(), st.integers(0, 2**32 - 1))
def test_decomposition_identity_over_glue_sets(case, seed):
    # Exact without a glued diagonal; with one, deduplication shorts the
    # left side by the inner polynomial's value on that block.
    P1, P2, glue, diagonals = case
    U, lab = pl.union_on_set(P1, P2, glue)
    x = random_simplex(np.random.default_rng(seed), U.m)
    lhs, rhs = pl.eval_decomposition(P1, P2, glue, x)
    deficit = sum(eval_lagrange_unnormalized(P2, x[[k - 1 for k in lab.block(j)]])
                  for j in diagonals)
    assert lhs == pytest.approx(rhs - deficit, abs=1e-12)


# ---------------------------------------------------------------------------
# Decomposition identity
# ---------------------------------------------------------------------------


def test_decomposition_identity_random(rng):
    worst = 0.0
    for _ in range(200):
        m1 = int(rng.integers(1, 5))
        m2 = int(rng.integers(1, 5))
        i = int(rng.integers(1, m1 + 1))
        P1 = pl.random_pattern(rng, m1, 3, exclude=[[i] * 3])
        P2 = pl.random_pattern(rng, m2, 3)
        U, _ = pl.union_on_set(P1, P2, (i,))
        lhs, rhs = pl.eval_decomposition(P1, P2, (i,), random_simplex(rng, U.m))
        worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_decomposition_off_block_support(p112):
    # all weight outside the glued block: the inner term vanishes and the
    # left side reduces to the host polynomial
    U, lab = pl.union_on_set(p112, p112, (2,))
    x = np.array([1.0, 0.0, 0.0])
    lhs, rhs = pl.eval_decomposition(p112, p112, (2,), x)
    assert lhs == rhs == pl.eval_lagrange(p112, lab.aggregate(x))


def test_decomposition_subset_version(rng):
    for _ in range(50):
        m1 = int(rng.integers(2, 4))
        m2 = int(rng.integers(1, 4))
        T = sorted(rng.choice(range(1, m1 + 1), size=2, replace=False))
        P1 = pl.random_pattern(rng, m1, 3, exclude=[[i] * 3 for i in T])
        P2 = pl.random_pattern(rng, m2, 3)
        U, lab = pl.union_on_set(P1, P2, T)
        x = random_simplex(rng, U.m)
        lhs, rhs = pl.eval_decomposition(P1, P2, T, x)
        assert lhs == pytest.approx(rhs, abs=1e-12)
        # reconstruct the right side independently
        agg = lab.aggregate(x)
        manual = eval_lagrange_unnormalized(P1, agg)
        for i in T:
            manual += eval_lagrange_unnormalized(P2, x[[k - 1 for k in lab.block(i)]])
        assert rhs == pytest.approx(manual, abs=1e-14)


def test_decomposition_glued_diagonal_deficit(rng):
    # with the glued index's diagonal in the host, the inner images collide
    # with its refills; deduplication shorts the left side by exactly the
    # inner polynomial's block value
    P1 = Pattern(3, 3, [[1, 1, 1], [2, 2, 2], [2, 2, 3]])
    P2 = Pattern(3, 3, [[1, 1, 2], [1, 2, 3], [3, 3, 3]])
    U, lab = pl.union_on_set(P1, P2, (2,))
    for _ in range(20):
        x = random_simplex(rng, U.m)
        lhs, rhs = pl.eval_decomposition(P1, P2, (2,), x)
        block = [k - 1 for k in lab.block(2)]
        deficit = eval_lagrange_unnormalized(P2, x[block])
        assert lhs == pytest.approx(rhs - deficit, abs=1e-13)


def test_multiset_power_collapse(rng):
    # sum over s-multisets with multinomial weights reproduces the s-th power
    for m2 in range(1, 6):
        for s in range(1, 4):
            y = rng.standard_exponential(m2) / 3.0
            assert pl.multiset_power_gap(y, s) < 1e-12


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_multiset_power_gap_rejects_non_finite_input(bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite weight"):
            pl.multiset_power_gap([bad, 1.0], 2)


# ---------------------------------------------------------------------------
# Reduced objective and map_f
# ---------------------------------------------------------------------------


def _phi(P, glue, lambda2, x):
    """The reduced objective at a host-simplex point: map_f's polynomial."""
    return _value_rows(_reduced_polynomial(P, glue, lambda2), np.asarray(x)[None, :])[0]


def test_phi_zero_inner_reduces_to_host(rng, pb):
    for _ in range(10):
        x = random_simplex(rng, 2)
        assert _phi(pb, (2,), 0.0, x) == pl.eval_lagrange(pb, x)


def test_phi_offdiagonal_closed_form(rng):
    # host polynomial is 1 - sum x_i^r, so phi = 1 - (1 - lambda) sum x_i^r
    for m, r in ((2, 3), (3, 3), (3, 2)):
        P = pl.offdiagonal_pattern(m, r)
        lam = 0.37
        for _ in range(10):
            x = random_simplex(rng, m)
            want = 1 - (1 - lam) * float((x**r).sum())
            assert _phi(P, tuple(range(1, m + 1)), lam, x) == pytest.approx(want, abs=1e-12)


def test_phi_affine_in_lambda(pb, rng):
    x = random_simplex(rng, 2)
    v0 = _phi(pb, (2,), 0.0, x)
    v1 = _phi(pb, (2,), 1.0, x)
    vh = _phi(pb, (2,), 0.5, x)
    assert vh == pytest.approx((v0 + v1) / 2, abs=1e-14)


def test_reduced_objective_validation(pb):
    with pytest.raises(ValueError, match=r"lambda2 must lie in \[0, 1\], got 1.5"):
        pl.map_f(pb, (2,), 1.5)
    with pytest.raises(ValueError, match=r"glue set \[3\] is not a subset of \[1, 2\]"):
        pl.map_f(pb, (3,), 0.5)


def test_map_f_grosu_values():
    for m in (2, 3):
        for r in (2, 3):
            for a in (0.0, 2 / 9, 5 / 9, 1.0):
                rep = pl.map_f(pl.offdiagonal_pattern(m, r), tuple(range(1, m + 1)), a)
                assert rep.value == pytest.approx(1 - (1 - a) / m ** (r - 1), abs=1e-8)


@pytest.mark.parametrize("m, r", [(2, 2), (2, 3), (3, 3), (4, 3), (3, 4)])
def test_map_f_takes_lambda2_exactly(m, r):
    # A Fraction lambda2 enters the polynomial exactly, so the certificate
    # is grosu_map(a) itself and the value is its correct rounding.
    host, glue = pl.offdiagonal_pattern(m, r), tuple(range(1, m + 1))
    for a in (Fraction(1, 2), Fraction(2, 9), Fraction(3, 10)):
        exact = pl.grosu_map(a, m, r)
        assert _reduced_polynomial(host, glue, a).certificate[0] == exact
        assert pl.map_f(host, glue, a).value == float(exact)


def test_map_f_certifies_74_81_at_two_ninths():
    host, a = pl.offdiagonal_pattern(3, 3), Fraction(2, 9)
    assert _reduced_polynomial(host, (1, 2, 3), a).certificate == (Fraction(74, 81), ((0, 1, 2),))
    rep = pl.map_f(host, (1, 2, 3), a)
    assert rep.value == float(Fraction(74, 81))
    assert rep.argmax == pl.SimplexPoint.uniform(3)
    assert rep.restarts_used == 1 and rep.converged


def test_map_f_takes_any_other_number_as_a_float():
    host = pl.offdiagonal_pattern(2, 2)
    assert pl.map_f(host, (1, 2), np.float32(0.5)).value == 0.75
    assert pl.map_f(host, (1, 2), 0.3).value == float(1 - (1 - Fraction(0.3)) / 2)


def test_map_f_lambda_one_is_one():
    # with inner value 1 the reduced objective is identically 1 on the
    # off-diagonal host with full glue
    rep = pl.map_f(pl.offdiagonal_pattern(3, 3), (1, 2, 3), 1.0)
    assert rep.value == pytest.approx(1.0, abs=1e-10)


def test_map_f_complete_host_single_glue():
    # host = all plain triples on {1,2,3}: 6 x1 x2 x3 <= 2/9 by AM-GM, so
    # f(0) = 2/9; at lambda=1 the glued vertex alone already gives 1
    P = pl.complete_pattern(3, 3)
    assert pl.map_f(P, (3,), 0.0).value == pytest.approx(2 / 9, abs=1e-9)
    assert pl.map_f(P, (3,), 1.0).value == pytest.approx(1.0, abs=1e-9)


def test_map_f_beats_dense_grid():
    # certified-lower-bound side: the reported max must beat every point of
    # an independent dense grid scan of the reduced objective
    P = pl.complete_pattern(3, 3)
    lam = 0.5
    rep = pl.map_f(P, (3,), lam)
    d = 60
    best = 0.0
    for a in range(d + 1):
        for b in range(d + 1 - a):
            c = d - a - b
            x = np.array([a, b, c]) / d
            best = max(best, 6 * x[0] * x[1] * x[2] + lam * x[2] ** 3)
    assert rep.value >= best - 1e-9
    assert rep.value <= best + 5e-3  # grid resolution bound


def test_map_f_monotone_and_lipschitz(pb):
    grid = np.linspace(0.0, 1.0, 11)
    values = [pl.map_f(pb, (2,), a).value for a in grid]
    for v0, v1, a0, a1 in zip(values, values[1:], grid, grid[1:]):
        assert v1 >= v0 - 1e-9
        assert abs(v1 - v0) <= (a1 - a0) + 2e-6


def test_grosu_map_exact_values():
    assert pl.grosu_map(0, 2, 3) == Fraction(3, 4)
    assert pl.grosu_map(1, 5, 4) == 1
    assert pl.grosu_map(Fraction(2, 9), 2, 3) == Fraction(29, 36)


def test_grosu_map_domain():
    with pytest.raises(ValueError):
        pl.grosu_map(-0.1, 2, 3)
    with pytest.raises(ValueError):
        pl.grosu_map(0.5, 1, 3)
    with pytest.raises(ValueError):
        pl.grosu_map(0.5, 2, 1)


# ---------------------------------------------------------------------------
# verify_union_lambda
# ---------------------------------------------------------------------------


def test_verify_union_lambda_random_small(rng):
    cfg = OptimizerConfig()
    for _ in range(20):
        m1 = int(rng.integers(1, 4))
        m2 = int(rng.integers(1, 4))
        i = int(rng.integers(1, m1 + 1))
        P1 = pl.random_pattern(rng, m1, 3, exclude=[[i] * 3])
        P2 = pl.random_pattern(rng, m2, 3)
        chk = pl.verify_union_lambda(P1, P2, (i,), cfg)
        assert chk.gap < 1e-6, (P1, P2, i, chk)


def test_verify_union_lambda_structure_independence(rng, pb):
    # two inner patterns with the same Lagrangian give the same glued value
    inner = Pattern(3, 3, [[1, 1, 2], [2, 3, 3], [1, 2, 3]])
    relabeled = pl.relabel_pattern(inner, [2, 3, 1])
    va = pl.maximize(pl.union_on_set(pb, inner, (2,))[0]).value
    vb = pl.maximize(pl.union_on_set(pb, relabeled, (2,))[0]).value
    assert abs(va - vb) < 1e-9


def test_verify_union_lambda_empty_inner(pb):
    chk = pl.verify_union_lambda(pb, Pattern(2, 3, []), (1,))
    assert chk.lambda2 == 0.0
    assert chk.union_value == pytest.approx(pl.maximize(pb).value, abs=1e-9)


def test_verify_union_lambda_cap(pb):
    with pytest.raises(CapExceeded):
        pl.verify_union_lambda(pb, pl.complete_pattern(20, 3), (1,))


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def test_catalog_r3_values():
    entries = pl.nonjump_catalog(3)
    values = {e.statement: e.value for e in entries if e.value is not None}
    assert values["r!/r^r"] == Fraction(2, 9)
    assert values["5*r!/(2*r^r)"] == Fraction(5, 9)
    assert values["54*r!/(25*r^r)"] == Fraction(12, 25)


def test_catalog_both_family_forms_recorded():
    entries = pl.nonjump_catalog(3)
    sources = [e.source for e in entries if e.status == "recorded-form"]
    assert any("form A" in s for s in sources)
    assert any("form B" in s for s in sources)
    assert all("not asserted" in e.note for e in entries if e.status == "recorded-form")


def test_catalog_excluded_family_note():
    entries = pl.nonjump_catalog(3)
    excluded = [e for e in entries if e.status == "excluded"]
    assert len(excluded) == 1
    assert excluded[0].value is None


def test_catalog_family_materialization():
    entries = pl.nonjump_catalog(3, frankl_rodl_l=[7])
    values = {e.statement: e.value for e in entries if e.value is not None}
    assert values["1 - 1/7^(r-1)"] == Fraction(48, 49)
    assert values["1 - 1/(7^r - 1)"] == Fraction(341, 342)
    with pytest.raises(ValueError):
        pl.nonjump_catalog(3, frankl_rodl_l=[6])


def test_catalog_rejects_a_fractional_family_parameter():
    # int(7.5) is 7, which would quietly list the l = 7 entries.
    for l in (7.5, 9.000001):
        with pytest.raises(ValueError, match="must be an integer"):
            pl.nonjump_catalog(3, frankl_rodl_l=[9, l])
    assert pl.nonjump_catalog(3, frankl_rodl_l=[7.0]) == pl.nonjump_catalog(3, frankl_rodl_l=[7])


def test_catalog_requires_r_at_least_3():
    with pytest.raises(ValueError):
        pl.nonjump_catalog(2)


def test_catalog_all_values_in_unit_interval():
    for r in (3, 4, 5):
        for e in pl.nonjump_catalog(r, frankl_rodl_l=[2 * r + 1, 2 * r + 5]):
            if e.value is not None:
                assert 0 <= e.value <= 1


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def test_decomposition_suite_passes():
    report = pl.decomposition_suite(trials=60, seed=5)
    assert report["passed"]
    assert report["max_gap"] < 1e-12
    assert report["power_identity_max_gap"] < 1e-12


@pytest.mark.parametrize("trials", [0, -3])
def test_decomposition_suite_rejects_trials_below_one(monkeypatch, trials):
    # a run of no trials checks nothing, so it must not report a pass
    monkeypatch.setattr(algebra, "random_pattern", lambda *a, **k: pytest.fail("drew a trial"))
    with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
        pl.decomposition_suite(trials=trials)


def test_union_lambda_suite_passes():
    report = pl.union_lambda_suite(seed=5)
    assert report["passed"], report
    assert report["instances"] >= 18
