import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import patternlab as pl
from patternlab import Multiset, OptimizerConfig, Partition, Pattern, blowups
from patternlab.blowups import MATERIALIZE_CAP
from patternlab.errors import CapExceeded


# ---------------------------------------------------------------------------
# Partitions and profiles
# ---------------------------------------------------------------------------


def profile(S, partition):
    """Class profile of a vertex set: index i with multiplicity |S ∩ class_i|.

    The reference the blowup edge tests check edges against."""
    vertices = set(int(v) for v in S)
    expansion: list[int] = []
    for i, part in enumerate(partition.parts, start=1):
        expansion.extend([i] * len(vertices & set(part)))
    if len(expansion) != len(vertices):
        missing = vertices - set(itertools.chain.from_iterable(partition.parts))
        raise ValueError(f"vertices {sorted(missing)} are outside the partition")
    return Multiset(expansion)


def test_partition_from_sizes():
    part = Partition.from_sizes((2, 0, 3))
    assert part.parts == ((1, 2), (), (3, 4, 5))
    assert part.sizes == (2, 0, 3)
    assert part.n == 5


def test_partition_invariants():
    with pytest.raises(ValueError):
        Partition(((1, 2), (2, 3)))  # overlap
    with pytest.raises(ValueError):
        Partition(((1, 3),))  # gap: does not cover {1..n}


def test_profile_within_one_part():
    part = Partition.from_sizes((4, 2))
    assert profile({1, 2, 3}, part) == Multiset([1, 1, 1])


def test_profile_split():
    part = Partition.from_sizes((2, 1))
    assert profile({1, 2, 3}, part) == Multiset([1, 1, 2])


def test_profile_outside_partition():
    part = Partition.from_sizes((2, 1))
    with pytest.raises(ValueError):
        profile({1, 4, 2}, part)


def test_profile_permutation_equivariant(rng):
    # relabeling the classes relabels the profile the same way
    sizes = (2, 3, 1)
    part = Partition.from_sizes(sizes)
    perm = [3, 1, 2]  # class j of the new partition is old class perm[j-1]
    permuted = Partition(tuple(part.parts[p - 1] for p in perm))
    # note: permuted classes no longer cover contiguously, so rebuild labels
    flat = [v for p in permuted.parts for v in p]
    relabel = {v: k + 1 for k, v in enumerate(flat)}
    part2 = Partition.from_sizes(tuple(len(p) for p in permuted.parts))
    for _ in range(20):
        S = rng.choice(range(1, 7), size=3, replace=False)
        prof1 = profile(S, part)
        S2 = {relabel[int(v)] for v in S}
        prof2 = profile(S2, part2)
        want = sorted(perm.index(i) + 1 for i in prof1.expansion)
        assert list(prof2.expansion) == want


# ---------------------------------------------------------------------------
# Blowups
# ---------------------------------------------------------------------------


def test_blowup_heavy_edge_two_two(p112):
    G, part = pl.blowup(p112, (2, 2))
    assert G.n == 4
    # C(2,2) * C(2,1) = 2 edges
    assert G.edge_count == 2
    assert set(map(tuple, G.rows.tolist())) == {(1, 2, 3), (1, 2, 4)}


def test_blowup_edges_have_profiles_in_pattern(rng):
    for _ in range(20):
        m = int(rng.integers(1, 4))
        P = pl.random_pattern(rng, m, 3)
        sizes = [int(rng.integers(0, 4)) for _ in range(m)]
        if sum(sizes) < 1:
            sizes[0] = 3
        G, part = pl.blowup(P, sizes)
        allowed = set(P.edges)
        for e in G.rows.tolist():
            assert profile(e, part) in allowed


def test_blowup_complete_against_brute_force(rng):
    # every r-set whose profile is an edge must be present: compare the
    # materialized edge set with an exhaustive scan over all r-subsets
    for _ in range(15):
        m = int(rng.integers(1, 4))
        P = pl.random_pattern(rng, m, 3)
        sizes = [int(rng.integers(0, 4)) for _ in range(m)]
        n = sum(sizes)
        if n < 3:
            continue
        G, part = pl.blowup(P, sizes)
        allowed = set(P.edges)
        brute = {S for S in itertools.combinations(range(1, n + 1), 3)
                 if profile(S, part) in allowed}
        assert set(map(tuple, G.rows.tolist())) == brute


def test_blowup_single_part_diagonal_only():
    P = Pattern(2, 3, [[1, 1, 1], [1, 1, 2]])
    G, _ = pl.blowup(P, (4, 0))
    # only the all-in-first-class profile survives
    assert G.edge_count == math.comb(4, 3)


def test_blowup_edge_count_closed_form(rng, pb):
    for a in range(0, 5):
        for b in range(0, 5):
            want = a * math.comb(b, 2) + math.comb(a, 2) * b
            assert pl.blowup_edge_count(pb, (a, b)) == want
            if a + b >= 1:
                G, _ = pl.blowup(pb, (a, b))
                assert G.edge_count == want


def reference_blowup_edges(P, sizes):
    """The itertools.product construction blowup once ran, kept as the oracle."""
    part = Partition.from_sizes(sizes)
    return tuple(sorted({
        tuple(sorted(itertools.chain.from_iterable(pick)))
        for e in P.edges
        for pick in itertools.product(*(
            itertools.combinations(part.parts[i - 1], mult)
            for i, mult in sorted(e.counts().items())))
    }))


@st.composite
def blowup_inputs(draw):
    """Random patterns (diagonal edges allowed) with class sizes, some zero;
    r = 2 cases may take n >= 256, where vertices no longer fit in uint8."""
    r = draw(st.integers(2, 4))
    m = draw(st.integers(1, 4))
    universe = list(itertools.combinations_with_replacement(range(1, m + 1), r))
    edges = draw(st.lists(st.sampled_from(universe), unique=True))
    top = 150 if r == 2 and draw(st.booleans()) else 6
    sizes = draw(st.lists(st.integers(0, top), min_size=m, max_size=m)
                 .filter(lambda s: sum(s) >= 1 and math.comb(sum(s), r) <= MATERIALIZE_CAP))
    return Pattern(m, r, edges), sizes


@settings(max_examples=120)
@given(blowup_inputs())
def test_blowup_matches_product_reference(case):
    P, sizes = case
    G, part = pl.blowup(P, sizes)
    assert (G.n, G.r) == (sum(sizes), P.r)
    assert tuple(map(tuple, G.rows.tolist())) == reference_blowup_edges(P, sizes)
    assert G.edge_count == pl.blowup_edge_count(P, sizes)


def test_blowup_past_uint8_vertices():
    P = Pattern(3, 2, [[1, 1], [1, 3], [2, 2], [2, 3]])
    sizes = (0, 140, 160)
    G, _ = pl.blowup(P, sizes)
    assert G.n == 300 and G.rows[-1].tolist() == [140, 300]
    assert tuple(map(tuple, G.rows.tolist())) == reference_blowup_edges(P, sizes)


def test_blowup_cap(monkeypatch, p112):
    monkeypatch.setattr(blowups, "MATERIALIZE_CAP", 1000)
    with pytest.raises(CapExceeded):
        pl.blowup(p112, (3000, 3000))


def test_blowup_cap_boundary_checked_before_enumeration(monkeypatch, p112):
    # C(n, r) candidate r-sets at exactly the cap pass; one more raises, and
    # no edge is enumerated first.
    sizes = (4, 3)
    candidates = math.comb(7, 3)
    monkeypatch.setattr(blowups, "MATERIALIZE_CAP", candidates)
    G, _ = pl.blowup(p112, sizes)
    assert G.edge_count == pl.blowup_edge_count(p112, sizes)

    def unexpected(*args, **kwargs):
        raise AssertionError("enumerated past a failed check")

    monkeypatch.setattr(blowups, "_substitute", unexpected)
    monkeypatch.setattr(blowups, "MATERIALIZE_CAP", candidates - 1)
    with pytest.raises(CapExceeded):
        pl.blowup(p112, sizes)


def test_blowup_wrong_size_count(p112):
    with pytest.raises(ValueError):
        pl.blowup(p112, (2, 2, 2))


def test_every_blowup_entry_point_checks_sizes_alike():
    # An edge touching only class 1 never reads class 2's size, and a zero
    # term ends a product early; the sizes are still checked.
    P = Pattern(2, 3, [[1, 1, 1]])
    for call in (pl.blowup, pl.blowup_edge_count, pl.blowup_density):
        for sizes, message in (((4, -1), "class sizes must be >= 0, got -1"),
                               ((3, -5), "class sizes must be >= 0, got -5"),
                               ((3, 1, 1), "expected 2 sizes, got 3")):
            with pytest.raises(ValueError, match=message):
                call(P, sizes)


def test_nested_blowup_is_subgraph(p112, rng):
    # part-wise vertex injection embeds the smaller blowup in the larger
    small_sizes, large_sizes = (2, 1), (3, 3)
    Gs, ps = pl.blowup(p112, small_sizes)
    Gl, _ = pl.blowup(p112, large_sizes)
    offset_small = [0, 2]  # start of each part in the small blowup
    offset_large = [0, 3]
    mapping = {}
    for part_idx, part in enumerate(ps.parts):
        for pos, v in enumerate(part):
            mapping[v] = offset_large[part_idx] + pos + 1
    mapped = {tuple(sorted(mapping[v] for v in e)) for e in Gs.rows.tolist()}
    assert mapped <= set(map(tuple, Gl.rows.tolist()))


# ---------------------------------------------------------------------------
# Density
# ---------------------------------------------------------------------------


def test_density_complete_3graph():
    assert pl.density(pl.Hypergraph(4, 3, itertools.combinations(range(1, 5), 3))) == 1.0


def test_density_single_triple():
    assert pl.density(pl.Hypergraph(3, 3, [[1, 2, 3]])) == 1.0


def test_density_blowup(p112):
    G, _ = pl.blowup(p112, (2, 2))
    assert pl.density(G) == 0.5


def test_density_needs_enough_vertices():
    with pytest.raises(ValueError):
        pl.density(pl.Hypergraph(2, 3, []))


def test_blowup_density_matches_materialized(rng, pb):
    assert pl.blowup_density(pb, (3, 4)) == pl.density(pl.blowup(pb, (3, 4))[0])


def test_blowup_round_trip_never_builds_edge_tuples(tmp_path):
    # Every step here reads the hypergraph's integer rows; the tuple of
    # edge tuples is for callers that ask for it.
    P = pl.offdiagonal_pattern(3, 3)
    sizes = (6, 5, 4)
    G, _ = pl.blowup(P, sizes)
    value = pl.density(G)
    assert G.edge_count == pl.blowup_edge_count(P, sizes)
    Q = pl.pattern_of_hypergraph(G)
    assert Q.edge_count == G.edge_count
    text = pl.hypergraph_to_json(G)
    path = tmp_path / "graph.json"
    pl.save_hypergraph(G, path)
    H = pl.load_hypergraph(path)
    assert pl.density(H) == value and H == G
    assert path.read_text() == text + "\n"
    assert G._edges is None and H._edges is None


# ---------------------------------------------------------------------------
# Density limit
# ---------------------------------------------------------------------------


def test_limit_check_heavy_edge(p112):
    # sizes (2N/3, N/3) approach lam(2/3, 1/3) = 4/9 at the rate 1/N
    deviations = [abs(pl.blowup_density(p112, (2 * N // 3, N // 3)) - 4 / 9)
                  for N in (15, 30, 45, 60)]
    assert deviations[1] < 0.05
    assert all(b < a for a, b in zip(deviations, deviations[1:]))
    scaled = [dev * N for dev, N in zip(deviations, (15, 30, 45, 60))]
    assert max(scaled) <= 2 * scaled[0]


def test_limit_check_degenerate_rounding(p112):
    # sizes (0.9N, 0.1N) at N = 3 round to (3, 0): an empty class kills
    # every profile that needs it
    assert pl.blowup_density(p112, (3, 0)) == 0.0
    assert pl.blowup_density(p112, (0, 3)) == 0.0


def test_limit_check_errors(p112):
    with pytest.raises(ValueError):
        pl.blowup_density(p112, (1, 1))  # below r


# ---------------------------------------------------------------------------
# Construction inequality
# ---------------------------------------------------------------------------


def test_construction_single_edge_strict(p112):
    # the one-edge realization: Lagrangian 2/9, strictly below the pattern's 4/9
    chk = pl.construction_lagrangian_check(p112, (2, 1))
    assert chk.construction_value == pytest.approx(2 / 9, abs=1e-9)
    assert chk.pattern_value == pytest.approx(4 / 9, abs=1e-9)
    assert chk.ok


def test_construction_equality_at_complete_pattern():
    # all-singleton blowup of the complete pattern reproduces it exactly
    P = pl.complete_pattern(3, 3)
    chk = pl.construction_lagrangian_check(P, (1, 1, 1))
    assert chk.construction_value == pytest.approx(chk.pattern_value, abs=1e-9)
    assert chk.pattern_value == pytest.approx(2 / 9, abs=1e-9)


def test_construction_random_inequality(rng):
    cfg = OptimizerConfig()
    for _ in range(10):
        m = int(rng.integers(1, 4))
        P = pl.random_pattern(rng, m, 3, allow_empty=False)
        sizes = [int(rng.integers(0, 4)) for _ in range(m)]
        if sum(sizes) < 3:
            sizes[0] += 3
        chk = pl.construction_lagrangian_check(P, sizes, cfg)
        assert chk.ok, (P, sizes, chk)


def test_construction_suite_passes():
    report = pl.construction_suite(seed=3)
    assert report["passed"], report


# ---------------------------------------------------------------------------
# Sequence checks
# ---------------------------------------------------------------------------


def test_sequence_constant_crossing_pattern_fails_condition2(pb):
    # Lagrangian 3/4 can never exceed 3/4 + 0.01
    rep = pl.sequence_check([pb] * 4, 2, 0.75, 0.01)
    assert not rep.cond2_all
    assert all(not p.cond2_ok for p in rep.per_t)
    assert "fail" in rep.verdicts["condition2"]


def test_sequence_level_one_passes_condition3():
    patterns = [
        pl.offdiagonal_pattern(3, 3),
        pl.complete_pattern(4, 3),
        pl.union_on_set(pl.offdiagonal_pattern(2, 3),
                        pl.complete_pattern(3, 3), (1, 2))[0],  # 6 indices
    ]
    assert max(P.m for P in patterns) <= 6
    rep = pl.sequence_check(patterns, 2, 1.0, [0.01] * 3)
    assert rep.cond3_all
    assert all(p.cond3_ok for p in rep.per_t)


def test_sequence_glued_terms_match_reduced_objective():
    # per-term Lagrangians of host-glued sequences equal the reduced map at
    # the inner Lagrangian
    host = pl.offdiagonal_pattern(2, 3)
    cfg = OptimizerConfig()
    inners = [pl.complete_pattern(3, 3), pl.offdiagonal_pattern(2, 3)]
    terms = [pl.union_on_set(host, Q, (1, 2))[0] for Q in inners]
    rep = pl.sequence_check(terms, 2, 0.0, 0.0, cfg)
    for per_t, Q in zip(rep.per_t, inners):
        reduced = pl.map_f(host, (1, 2), pl.maximize(Q, cfg).value, cfg)
        assert per_t.lambda_value == pytest.approx(reduced.value, abs=1e-8)


def test_sequence_reports_trend_slope(pb):
    rep = pl.sequence_check([pb] * 3, 2, 0.5, 0.01)
    assert rep.trend_slope == pytest.approx(0.0, abs=1e-9)
    assert "reported only" in rep.verdicts["condition1"]


def test_sequence_errors(pb):
    with pytest.raises(ValueError):
        pl.sequence_check([pb], 3, 0.5, 0.01)  # k > m
    with pytest.raises(ValueError):
        pl.sequence_check([pb, pb], 2, 0.5, [0.01])  # eps too short
    with pytest.raises(ValueError):
        pl.sequence_check([], 2, 0.5, 0.01)


def test_sequence_verdicts_are_worded_as_float_evidence(p112, pb):
    # Lagrangians 3/4 (pb) and 4/9 (p112); k = 2 takes each pattern whole.
    fail2_pass3 = pl.sequence_check([pb], 2, 0.75, 0.01).verdicts
    pass2_fail3 = pl.sequence_check([p112], 2, 0.1, 0.01).verdicts
    assert fail2_pass3["condition2"] == "fail (lower-bound evidence did not reach lambda0 + eps)"
    assert fail2_pass3["condition3"] == "pass (evidence; optimizer values are lower bounds)"
    assert pass2_fail3["condition2"] == "pass (optimizer float values, lower bounds up to rounding)"
    assert pass2_fail3["condition3"] == "fail (conclusive: a subpattern lower bound exceeds lambda0)"


def test_sequence_worst_subset_is_exhaustive(pb):
    rep = pl.sequence_check([pl.complete_pattern(4, 3)], 2, 1.0, 0.0)
    per = rep.per_t[0]
    # every 2-subset of a plain-triple pattern is edgeless, value 0
    assert per.worst_subset_value == pytest.approx(0.0, abs=1e-12)
    assert len(per.worst_subset) == 2


def test_sequence_cap_checked_before_maximizing(monkeypatch):
    patterns = [pl.complete_pattern(4, 3), pl.offdiagonal_pattern(3, 3)]
    subsets = math.comb(4, 2) + math.comb(3, 2)

    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(blowups, "maximize", reached)
    monkeypatch.setattr(blowups, "SEQUENCE_CAP", subsets - 1)
    with pytest.raises(CapExceeded):
        pl.sequence_check(patterns, 2, 0.5, 0.01)
    monkeypatch.setattr(blowups, "SEQUENCE_CAP", subsets)
    with pytest.raises(Reached):
        pl.sequence_check(patterns, 2, 0.5, 0.01)


@pytest.mark.parametrize("k", [0, -1])
def test_sequence_k_checked_before_maximizing(monkeypatch, pb, k):
    def unexpected(*args, **kwargs):
        raise AssertionError("maximized before checking k")

    monkeypatch.setattr(blowups, "maximize", unexpected)
    with pytest.raises(ValueError, match=f"^k must be >= 1, got {k}$"):
        pl.sequence_check([pb, pb], k, 0.5, 0.01)
