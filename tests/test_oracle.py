"""Exhaustive search oracle against independent brute force."""

import itertools
import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from divgrace import (F1, GridGraph, InvalidParametersError, Labeling, SearchConfig,
                      SimpleGraph, build_grid, check_alpha, check_d_graceful, construct,
                      cross_validate, engine_accepts, oracle, search)
from divgrace.grids import adjacency_lists
from divgrace.oracle import _arc_orbits, _bfs_order, _refine
from example_graphs import SWAPPED_PAIRS

EDGE = SimpleGraph(2, ((0, 1),))
PATH3 = SimpleGraph(3, ((0, 1), (1, 2)))
C4 = SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
TRIANGLE = SimpleGraph(3, ((0, 1), (1, 2), (0, 2)))
K4 = SimpleGraph(4, tuple(itertools.combinations(range(4), 2)))
K13 = SimpleGraph(4, ((0, 1), (0, 2), (0, 3)))
PETERSEN = SimpleGraph(10, tuple([(i, (i + 1) % 5) for i in range(5)]
                                 + [(i, i + 5) for i in range(5)]
                                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]))


def _orbits(g):
    """_arc_orbits on g's edge set: ([(arc, size), ...], permutations)."""
    adj = adjacency_lists(g)
    orbits, perms = _arc_orbits(g.edge_indices().tolist(), adj, _refine(adj))
    return [(arc, size) for arc, size, _, _ in orbits], perms


def _maps_edges_onto_edges(g, p):
    edges = {frozenset(e) for e in g.edge_indices().tolist()}
    return (sorted(p) == list(range(g.num_vertices))
            and {frozenset((p[u], p[w])) for u, w in edges} == edges)


def _brute_force(g, d):
    # ground truth by raw enumeration, no shared code with the oracle
    e = g.num_edges
    q = e // d
    n_labels = d * (q + 1)
    allowed = {x for x in range(1, n_labels + 1) if x % (q + 1) != 0}
    hits = set()
    for values in itertools.permutations(range(n_labels), g.num_vertices):
        diffs = [abs(values[u] - values[w]) for u, w in g.edges]
        if len(set(diffs)) == e and set(diffs) <= allowed:
            hits.add(values)
    return hits


def test_single_edge():
    res = search(EDGE, SearchConfig(d=1))
    assert res.count == 2
    assert res.exhaustive
    assert {lab.values for lab in res.labelings} == {(0, 1), (1, 0)}


@pytest.mark.parametrize("g,d", [(PATH3, 1), (PATH3, 2), (C4, 1)])
def test_matches_brute_force(g, d):
    res = search(g, SearchConfig(d=d))
    expect = _brute_force(g, d)
    assert res.count == len(expect)
    assert {lab.values for lab in res.labelings} == expect


def test_c4_count_frozen():
    assert search(C4, SearchConfig(d=1)).count == 16


@pytest.mark.parametrize("g,d", [(C4, 1), (build_grid(1, 2), 3)], ids=["c4", "prism"])
@pytest.mark.parametrize("alpha", [False, True], ids=["plain", "alpha"])
def test_labelings_closed_under_complement(g, d, alpha):
    # f -> D - f keeps every edge difference and swaps the alpha classes
    res = search(g, SearchConfig(d=d, alpha_only=alpha))
    found = {lab.values for lab in res.labelings}
    assert res.exhaustive and len(found) == res.count > 0
    top = d * (g.num_edges // d + 1) - 1
    assert {tuple(top - x for x in vals) for vals in found} == found


def test_deterministic_repeat():
    a = search(C4, SearchConfig(d=1))
    b = search(C4, SearchConfig(d=1))
    assert [lab.values for lab in a.labelings] == [lab.values for lab in b.labelings]


def test_max_results_truncates_in_order():
    full = search(C4, SearchConfig(d=1))
    part = search(C4, SearchConfig(d=1, max_results=5))
    assert part.count == 5
    assert part.level_sizes[-1] == 5
    assert not part.exhaustive
    assert ([lab.values for lab in part.labelings]
            == [lab.values for lab in full.labelings][:5])


def test_max_results_beyond_space_is_exhaustive():
    res = search(C4, SearchConfig(d=1, max_results=1000))
    assert res.count == 16
    assert res.exhaustive


def test_store_limit_zero_counts_only():
    res = search(C4, SearchConfig(d=1, store_limit=0))
    assert res.count == 16
    assert res.labelings == ()


def test_store_limit_zero_keeps_no_row_under_max_results(t8):
    kept = search(t8, SearchConfig(d=3, max_results=5))
    bare = search(t8, SearchConfig(d=3, max_results=5, store_limit=0))
    assert bare.count == kept.count == 5
    assert bare.labelings == () and len(kept.labelings) == 5
    assert bare.level_sizes == kept.level_sizes


def test_t8_alpha_count(t8):
    res = search(t8, SearchConfig(d=3, alpha_only=True, store_limit=0))
    assert res.count == 576
    assert res.exhaustive


def test_t8_full_count(t8):
    res = search(t8, SearchConfig(d=3, store_limit=2000))
    assert res.count == 1440
    alphas = sum(1 for lab in res.labelings
                 if check_alpha(lab) is not None)
    assert alphas == 576


def test_engine_accepts_valid(t8, t8_labeling):
    assert engine_accepts(t8_labeling, SearchConfig(d=3))
    assert engine_accepts(t8_labeling, SearchConfig(d=3, alpha_only=True))


def test_engine_rejects_boundary_violation(t8):
    # graceful but not alpha: the alpha-only engine must prune it
    res = search(t8, SearchConfig(d=3, store_limit=2000))
    plain = next(lab for lab in res.labelings if check_alpha(lab) is None)
    assert engine_accepts(plain, SearchConfig(d=3))
    assert not engine_accepts(plain, SearchConfig(d=3, alpha_only=True))


@pytest.mark.parametrize("index,label", [
    (2, 15),        # equal to n_labels
    (4, 2 ** 70),   # beyond int64
    (1, 7),         # repeats the label at vertex 0
])
def test_engine_rejects_bad_labels(t8, t8_labeling, index, label):
    vals = list(t8_labeling.values)
    vals[index] = label
    lab = Labeling(t8, tuple(vals))
    for alpha in (False, True):
        cfg = SearchConfig(d=3, alpha_only=alpha)
        assert engine_accepts(lab, cfg) is False
        assert cross_validate(lab, cfg).reason == "agree-reject"


def test_engine_rejects_repeated_difference(t8):
    lab = Labeling(t8, (5, 7, 9, 6, 0, 14, 1, 12))
    assert check_d_graceful(lab, 3).reason == "duplicate-difference"
    for alpha in (False, True):
        cfg = SearchConfig(d=3, alpha_only=alpha)
        assert engine_accepts(lab, cfg) is False
        assert cross_validate(lab, cfg).reason == "agree-reject"


def _prefix_counts(g, cfg):
    # consistent partial labelings of each length, by raw enumeration
    order = _bfs_order(adjacency_lists(g))
    e = g.num_edges
    q = e // cfg.d
    n_labels = cfg.d * (q + 1)
    allowed = {x for x in range(1, n_labels + 1) if x % (q + 1) != 0}
    counts = []
    for size in range(1, len(order) + 1):
        placed = order[:size]
        inner = [(u, w) for u, w in g.edges if u in placed and w in placed]
        hits = 0
        for values in itertools.permutations(range(n_labels), size):
            lab = dict(zip(placed, values))
            diffs = [abs(lab[u] - lab[w]) for u, w in inner]
            if len(set(diffs)) != len(diffs) or not set(diffs) <= allowed:
                continue
            if cfg.alpha_only and not any(
                    all(min(lab[u], lab[w]) <= boundary < max(lab[u], lab[w])
                        for u, w in inner)
                    for boundary in range(n_labels)):
                continue
            hits += 1
        counts.append(hits)
    return tuple(counts)


@pytest.mark.parametrize("g,cfg", [
    (C4, SearchConfig(d=1)),
    (C4, SearchConfig(d=2, alpha_only=True)),
    (PATH3, SearchConfig(d=2)),
])
def test_level_sizes_count_consistent_prefixes(g, cfg):
    res = search(g, cfg)
    assert res.level_sizes == _prefix_counts(g, cfg)
    assert res.level_sizes[-1] == res.count


def test_level_sizes_exhaustive_t8(t8):
    full = search(t8, SearchConfig(d=3, store_limit=0))
    assert full.level_sizes[-1] == full.count == 1440
    alpha = SearchConfig(d=3, alpha_only=True, store_limit=0)
    first = search(t8, alpha)
    assert first.level_sizes[-1] == first.count == 576
    assert search(t8, alpha).level_sizes == first.level_sizes


def test_cross_validate_accepts(t8, t8_labeling):
    report = cross_validate(t8_labeling, SearchConfig(d=3))
    assert report.ok
    assert report.reason == "agree-accept"


def test_cross_validate_rejects_perturbation(t8, t8_labeling):
    vals = list(t8_labeling.values)
    vals[2] = 13
    report = cross_validate(Labeling(t8, tuple(vals)), SearchConfig(d=3))
    assert report.ok
    assert report.reason == "agree-reject"


def test_cross_validate_random_perturbations(t8, t8_labeling):
    rng = random.Random(7)
    for trial in range(200):
        vals = list(t8_labeling.values)
        x = rng.randrange(len(vals))
        vals[x] = rng.choice([c for c in range(15) if c != vals[x]])
        cfg = SearchConfig(d=3, alpha_only=trial % 2 == 0)
        report = cross_validate(Labeling(t8, tuple(vals)), cfg)
        assert report.ok, report.describe()
        assert report.reason.startswith("agree")


def test_replay_beyond_the_search_caps():
    # a replay builds no e + d wide mask, so it takes labelings of more
    # than 1024 edges; only d on a graph without edges stays capped
    f = construct(40, 40, F1)
    assert f.graph.num_edges == 12640
    for alpha in (False, True):
        cfg = SearchConfig(d=79, alpha_only=alpha)
        assert cross_validate(f, cfg).reason == "agree-accept"
        values = list(f.values)
        values[0], values[1] = values[1], values[0]
        assert cross_validate(Labeling(f.graph, values), cfg).reason == "agree-reject"
    edgeless = Labeling(SimpleGraph(3, ()), (0, 1, 2))
    assert cross_validate(edgeless, SearchConfig(d=2048)).reason == "agree-accept"
    with pytest.raises(InvalidParametersError,
                       match=r"^search is limited to e \+ d <= 2048, got e = 0 and d = 4096$"):
        cross_validate(edgeless, SearchConfig(d=4096))


def test_search_rejects_bad_divisor(t8):
    with pytest.raises(InvalidParametersError):
        search(t8, SearchConfig(d=5))


@pytest.mark.parametrize("field", ["max_results", "store_limit"])
def test_search_config_rejects_negative_counts(field):
    with pytest.raises(ValueError, match=field):
        SearchConfig(d=1, **{field: -1})


def test_alpha_search_needs_bipartite():
    # an odd cycle has no alpha-labeling: the low and high ends of its
    # edges would 2-color it
    assert search(TRIANGLE, SearchConfig(d=1)).count == 12
    for store_limit in (0, 10):
        cfg = SearchConfig(d=1, alpha_only=True, store_limit=store_limit)
        res = search(TRIANGLE, cfg)
        assert (res.count, res.labelings) == (0, ())


def test_grid_search_finds_constructed_labelings():
    g = build_grid(1, 2)
    res = search(g, SearchConfig(d=3, alpha_only=True, store_limit=1000))
    values = {lab.values for lab in res.labelings}
    assert (7, 5, 9, 6, 0, 14, 1, 12) in values


# ROADMAP Baseline: counts of the prism by the vertex-order walk.
PRISM_COUNTS = {1: (2592, 960), 2: (1632, 864), 3: (1440, 576),
                4: (768, 192), 6: (768, 384), 12: (7392, 960)}


@pytest.mark.parametrize("d", sorted(PRISM_COUNTS))
def test_prism_count_by_arc_matches_vertex_walk(t8, d):
    for alpha, want in zip((False, True), PRISM_COUNTS[d]):
        res = search(t8, SearchConfig(d=d, alpha_only=alpha, store_limit=0))
        assert res.count == want
        assert res.exhaustive and res.labelings == ()
        assert res.level_sizes[-1] == want
        # every labeling has its 0-D arc among the 2e = 24 forced starts
        assert res.level_sizes[:2] == (24, 24)


def test_c4p3_alpha_count_d5():
    # 5152 is what the vertex-order walk counts in about a minute
    res = search(build_grid(1, 3), SearchConfig(d=5, alpha_only=True, store_limit=0))
    assert res.count == 5152


def _cycle(n):
    return SimpleGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def _complete_bipartite(a, b):
    return SimpleGraph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


# Graphs whose arcs have large stabilizers, so that a count uses the
# stabilizer chain, at every divisor d of e.
SYMMETRIC = {**{f"C{n}": _cycle(n) for n in range(3, 9)},
             "K14": _complete_bipartite(1, 4), "K23": _complete_bipartite(2, 3),
             "K33": _complete_bipartite(3, 3),
             "P2xP3": SimpleGraph(6, ((0, 1), (1, 2), (3, 4), (4, 5),
                                      (0, 3), (1, 4), (2, 5))),
             "P4+P3": SimpleGraph(7, ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6))),
             "P3+2K1": SimpleGraph(5, ((0, 1), (1, 2))),
             "swapped-pairs": SWAPPED_PAIRS}
SYMMETRIC_CASES = [(name, d) for name, g in SYMMETRIC.items()
                   for d in range(1, g.num_edges + 1) if g.num_edges % d == 0]


@pytest.mark.parametrize("name,d", SYMMETRIC_CASES,
                         ids=[f"{name}-d{d}" for name, d in SYMMETRIC_CASES])
def test_count_by_symmetry_matches_vertex_walk(name, d):
    g = SYMMETRIC[name]
    for alpha in (False, True):
        walk = search(g, SearchConfig(d=d, alpha_only=alpha, store_limit=1))
        count = search(g, SearchConfig(d=d, alpha_only=alpha, store_limit=0))
        assert count.count == walk.count
        assert count.level_sizes[-1] == count.count


def test_star_count_passes_int64():
    # K_{1,22} at d = 22 has q = 1 and the odd differences 1, 3, ..., 43:
    # the center takes 0 with the odd labels on the leaves, or 43 with the
    # even ones, so there are 2 * 22! labelings.  The stabilizer chain of
    # an arc from the center has the factor 21!, past 2**63.
    star = SimpleGraph(23, tuple((0, leaf) for leaf in range(1, 23)))
    res = search(star, SearchConfig(d=22, store_limit=0))
    assert res.count == res.level_sizes[-1] == 2 * math.factorial(22)


def test_labels_at_the_size_caps():
    # K_{1,1023} at d = 1023 has q = 1, 2046 labels and the odd
    # differences 1, 3, ..., 2045: e + d = 2046 and 1024 vertices, under
    # both caps, so the kernel's int16 labels must hold every label
    star = SimpleGraph(1024, tuple((0, leaf) for leaf in range(1, 1024)))
    res = search(star, SearchConfig(d=1023, max_results=1))
    assert res.count == 1
    first = res.labelings[0]
    assert first.values == (0,) + tuple(range(1, 2046, 2))
    moved = Labeling(star, first.values[:-1] + (2044,))
    for alpha in (False, True):
        cfg = SearchConfig(d=1023, alpha_only=alpha)
        assert cross_validate(first, cfg).reason == "agree-accept"
        assert cross_validate(moved, cfg).reason == "agree-reject"


@pytest.mark.parametrize("g,d,want", [(SimpleGraph(1, ()), 1, 1),
                                      (SimpleGraph(2, ()), 2, 2)],
                         ids=["one-vertex", "two-vertices"])
def test_edgeless_graph_counts(g, d, want):
    # no edge carries 0 and D, so a count-only search keeps the vertex walk
    for store_limit in (0, 10):
        assert search(g, SearchConfig(d=d, store_limit=store_limit)).count == want


@pytest.mark.parametrize("k,m", [(1, 2), (1, 3), (2, 2), (2, 5), (3, 4)])
def test_grid_symmetries_are_automorphisms(k, m):
    g = build_grid(k, m)
    orbits, perms = _orbits(g)
    assert perms and all(_maps_edges_onto_edges(g, p) for p in perms)
    assert sum(size for _, size in orbits) == 2 * g.num_edges
    # the prism is the cube, which is arc-transitive; any other grid
    # has ring arcs of layers i and m + 1 - i, and rung arcs of
    # layer gaps i and m - i, both ways: m orbits
    assert len(orbits) == (1 if (k, m) == (1, 2) else m)


@pytest.mark.parametrize("g", [EDGE, PATH3, C4, TRIANGLE, K4, K13, PETERSEN])
def test_simple_graph_arc_orbits(g):
    # with reversal each group is arc-transitive: one orbit of all 2e arcs
    # (4 on P_3, 8 on C_4, 12 on K_4, 30 on the Petersen graph)
    orbits, perms = _orbits(g)
    assert orbits == [((0, 1), 2 * g.num_edges)]
    assert all(_maps_edges_onto_edges(g, p) for p in perms)


def _path(n):
    return SimpleGraph(n, tuple((i, i + 1) for i in range(n - 1)))


def _cycle(n):
    return SimpleGraph(n, tuple((i, (i + 1) % n) for i in range(n)))


P4_PLUS_P3 = SimpleGraph(7, ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6)))


@pytest.mark.parametrize("g,rows", [
    (_path(9), 20), (_cycle(8), 96), (_cycle(12), 1248),
    (SimpleGraph(7, tuple((i, j) for i in range(3) for j in range(3, 7))), 864),
    (SimpleGraph(8, ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7),
                     (0, 4), (1, 5), (2, 6), (3, 7))), 288),
    (build_grid(1, 2), 960), (P4_PLUS_P3, 0),
], ids=["P_9", "C_8", "C_12", "K_3,4", "P_2xP_4", "prism", "P_4+P_3"])
def test_doubling_map_carries_d1_alpha_rows_onto_de(g, rows):
    # an alpha-labeling f with boundary lambda maps, by x <= lambda -> 2x
    # and x > lambda -> 2x - 1, to an e-divisible graceful alpha-labeling;
    # on a connected graph every d = e alpha row is such an image.  The two
    # searches have different label ranges and forbidden differences.
    e = g.num_edges
    low = search(g, SearchConfig(d=1, alpha_only=True)).labelings
    high = {f.values for f in search(g, SearchConfig(d=e, alpha_only=True)).labelings}
    image = set()
    for f in low:
        boundary = check_alpha(f)
        image.add(tuple(2 * x if x <= boundary else 2 * x - 1 for x in f.values))
    assert len(image) == len(low) == rows
    if g is P4_PLUS_P3:  # disconnected: only an injection, 0 rows into 128
        assert image < high and len(high) == 128
    else:
        assert image == high


def test_p4_plus_p3_counts_are_pinned():
    # P_4 + P_3 at d = 5: brute force over all labelings finds 432, and
    # 128 alpha-labelings in Rosa's sense; in 64 of them the two
    # components put opposite color classes low
    g = P4_PLUS_P3
    assert [size for _, size in _orbits(g)[0]] == [4, 2, 4]
    for alpha, want in ((False, 432), (True, 128)):
        cfg = SearchConfig(d=5, alpha_only=alpha)
        assert search(g, replace(cfg, store_limit=0)).count == want
        res = search(g, cfg)
        assert res.count == len(res.labelings) == want
    plain = search(g, SearchConfig(d=5)).labelings
    assert sum(check_alpha(f) is not None for f in plain) == 128


# Labelings that one brute-force example may enumerate.
BRUTE_FORCE_MAX = 10 ** 5


def _rosa_brute_force(g, d):
    """The alpha-labelings of g at d, as a set of label tuples: every
    injective labeling, kept when its differences are the allowed ones
    and some lambda has min <= lambda < max on every edge."""
    e = g.num_edges
    n_labels = d * (e // d + 1)
    values = np.array(list(itertools.permutations(range(n_labels), g.num_vertices)),
                      dtype=np.int64).reshape(-1, g.num_vertices)
    ends = values[:, [u for u, _ in g.edges]], values[:, [w for _, w in g.edges]]
    lower, upper = np.minimum(*ends), np.maximum(*ends)
    diffs = np.sort(upper - lower, axis=1)
    allowed = np.array([x % (e // d + 1) != 0 for x in range(n_labels + 1)])
    keep = allowed[diffs].all(axis=1) & (diffs[:, 1:] != diffs[:, :-1]).all(axis=1)
    rosa = np.zeros(len(values), dtype=bool)
    for boundary in range(n_labels):
        rosa |= ((lower <= boundary) & (boundary < upper)).all(axis=1)
    return set(map(tuple, values[keep & rosa].tolist()))


@st.composite
def small_graphs(draw):
    """A graph on at most 7 vertices, connected or not, and a divisor d
    for which the labelings into [0, d(q+1)) number at most BRUTE_FORCE_MAX."""
    n = draw(st.integers(1, 7))
    pairs = list(itertools.combinations(range(n), 2))
    # n_labels = e + d, so at most this many edges leave room for d = 1
    room = max(x for x in range(n, 50) if math.perm(x, n) <= BRUTE_FORCE_MAX) - 1
    edges = draw(st.lists(st.sampled_from(pairs), max_size=min(len(pairs), room),
                          unique=True)) if pairs else []
    e = len(edges)
    d = draw(st.sampled_from([x for x in range(1, max(e, 2) + 1) if e % x == 0
                              and math.perm(e + x, n) <= BRUTE_FORCE_MAX]))
    return SimpleGraph(n, tuple(edges)), d


@settings(max_examples=100, deadline=None)
@given(small_graphs())
@example((SimpleGraph(5, ((1, 2), (2, 4), (3, 4), (1, 3))), 2))  # C_4 + K_1
@example((TRIANGLE, 3))
@example((SimpleGraph(6, ((0, 1), (2, 3), (4, 5))), 3))  # 3K_2
@example((SimpleGraph(5, ((0, 1), (1, 2), (3, 4))), 3))  # P_3 + K_2
def test_alpha_search_matches_rosa_brute_force(case):
    g, d = case
    expect = _rosa_brute_force(g, d)
    cfg = SearchConfig(d=d, alpha_only=True, store_limit=BRUTE_FORCE_MAX)
    assert search(g, replace(cfg, store_limit=0)).count == len(expect)
    res = search(g, cfg)
    assert res.count == len(expect)
    assert {f.values for f in res.labelings} == expect
    plain = search(g, SearchConfig(d=d, store_limit=BRUTE_FORCE_MAX)).labelings
    assert {f.values for f in plain if check_alpha(f) is not None} == expect


@pytest.mark.parametrize("alpha", [False, True], ids=["plain", "alpha"])
def test_grid_symmetries_map_prism_labelings_onto_themselves(t8, alpha):
    res = search(t8, SearchConfig(d=3, alpha_only=alpha, store_limit=2000))
    rows = {lab.values for lab in res.labelings}
    assert len(rows) == res.count == (576 if alpha else 1440)
    _, perms = _orbits(t8)
    assert perms
    for p in perms:
        moved = set()
        for vals in rows:
            image = [0] * len(vals)
            for v, x in enumerate(vals):
                image[p[v]] = x
            moved.add(tuple(image))
        assert moved == rows


def test_search_size_cap_raises_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("the size check must come first")

    many_edges = SimpleGraph(46, tuple(itertools.combinations(range(46), 2)))
    assert many_edges.num_edges > oracle.SEARCH_MAX_EDGES
    monkeypatch.setattr(oracle, "adjacency_lists", refuse)
    monkeypatch.setattr(GridGraph, "edge_indices", refuse)
    monkeypatch.setattr(SimpleGraph, "edge_indices", refuse)
    for g in (build_grid(10 ** 9, 2), many_edges,
              SimpleGraph(oracle.SEARCH_MAX_VERTICES + 1, ())):
        for store_limit in (0, 10):
            with pytest.raises(InvalidParametersError, match="limited to"):
                search(g, SearchConfig(d=1, store_limit=store_limit))


def test_search_sets_up_once(monkeypatch):
    # C_4 x P_3 has 3 arc orbits, so a count-only search makes 3 walks,
    # and builds each orbit's breadth-first order, its walk tables and
    # the automorphism test along it once, for the orbit, its stabilizer
    # chain and its walk alike.  That set-up is the graph's: a count of
    # an equal graph at another d and alpha mode builds none of it again.
    # A search that keeps rows builds the tables of its one order once,
    # and each replay builds its adjacency lists and index-order tables.
    calls = {"adjacency_lists": 0, "dfs_search": 0, "_bfs_order": 0, "_automorphism": 0,
             "_walk_tables": 0}

    def counting(module, name, real=None):
        real = real or getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    g = build_grid(1, 3)
    assert len(_orbits(g)[0]) == 3
    for name in ("adjacency_lists", "_bfs_order", "_automorphism", "_walk_tables"):
        counting(oracle, name)
    counting(oracle._kernels, "dfs_search")
    oracle._count_walks.cache_clear()
    res = search(g, SearchConfig(d=10, alpha_only=True, store_limit=0))
    assert res.count == 2688  # what the vertex-order walk counts in about a minute
    assert calls == {"adjacency_lists": 1, "dfs_search": 3, "_bfs_order": 3,
                     "_automorphism": 3, "_walk_tables": 3}

    # a plain count of C_4 x P_3 takes seconds: the kernel is a stub here,
    # which finds nothing, and only the set-up is under test
    def no_labeling(back, order, *args):
        return 0, np.empty((0, len(order)), dtype=np.int64), [0] * len(order)
    kernel = oracle._kernels.dfs_search
    counting(oracle._kernels, "dfs_search", no_labeling)
    calls.update(dict.fromkeys(calls, 0))
    search(build_grid(1, 3), SearchConfig(d=5, store_limit=0))
    assert calls == {"adjacency_lists": 0, "dfs_search": 3, "_bfs_order": 0,
                     "_automorphism": 0, "_walk_tables": 0}
    monkeypatch.setattr(oracle._kernels, "dfs_search", kernel)

    cfg = SearchConfig(d=3, max_results=1)
    calls.update(dict.fromkeys(calls, 0))
    assert len(search(build_grid(1, 2), cfg).labelings) == 1
    assert calls == {"adjacency_lists": 1, "dfs_search": 1, "_bfs_order": 1,
                     "_automorphism": 0, "_walk_tables": 1}
    rows = search(build_grid(1, 2), SearchConfig(d=3, store_limit=2000)).labelings
    assert len(rows) == 1440
    oracle._count_walks.cache_clear()
    calls.update(dict.fromkeys(calls, 0))
    for alpha, accepted in ((False, 1440), (True, 576)):
        cfg = SearchConfig(d=3, alpha_only=alpha)
        reasons = [cross_validate(f, cfg).reason for f in rows]
        assert reasons.count("agree-accept") == accepted
        assert reasons.count("agree-reject") == 1440 - accepted
    assert calls == {"adjacency_lists": 2 * 1440, "dfs_search": 2 * 1440, "_bfs_order": 0,
                     "_automorphism": 0, "_walk_tables": 2 * 1440}


def _star(n):
    return SimpleGraph(n, tuple((0, leaf) for leaf in range(1, n)))


# Graphs (built afresh on each call) and the searches to run on them,
# at two divisors each: counts, rows, max_results with and without rows,
# plain and alpha.  C_4 x P_3 keeps no full listing, which takes most of
# a minute, and no plain count, which takes seconds.
CACHE_CASES = {
    "prism": (lambda: build_grid(1, 2), [
        SearchConfig(d=3, store_limit=0), SearchConfig(d=3, alpha_only=True, store_limit=0),
        SearchConfig(d=3, store_limit=2000), SearchConfig(d=3, alpha_only=True),
        SearchConfig(d=3, max_results=7), SearchConfig(d=3, max_results=7, store_limit=0),
        SearchConfig(d=12, store_limit=0), SearchConfig(d=4, alpha_only=True)]),
    "C4xP3": (lambda: build_grid(1, 3), [
        SearchConfig(d=5, alpha_only=True, store_limit=0),
        SearchConfig(d=5, alpha_only=True, max_results=20), SearchConfig(d=5, max_results=20),
        SearchConfig(d=10, alpha_only=True, store_limit=0)]),
    "P9": (lambda: _path(9), [
        SearchConfig(d=2, store_limit=0), SearchConfig(d=2, alpha_only=True, store_limit=0),
        SearchConfig(d=2, alpha_only=True), SearchConfig(d=2, max_results=5),
        SearchConfig(d=4, store_limit=0)]),
    "K34": (lambda: _complete_bipartite(3, 4), [
        SearchConfig(d=3, store_limit=0), SearchConfig(d=3, alpha_only=True, store_limit=0),
        SearchConfig(d=3, alpha_only=True), SearchConfig(d=3, max_results=5),
        SearchConfig(d=4, alpha_only=True, store_limit=0)]),
    "P4+P3": (lambda: SimpleGraph(7, P4_PLUS_P3.edges), [
        SearchConfig(d=5, store_limit=0), SearchConfig(d=5, alpha_only=True, store_limit=0),
        SearchConfig(d=5), SearchConfig(d=5, alpha_only=True, max_results=9),
        SearchConfig(d=1, alpha_only=True, store_limit=0)]),
    "edgeless": (lambda: SimpleGraph(3, ()), [
        SearchConfig(d=3, store_limit=0), SearchConfig(d=3, alpha_only=True),
        SearchConfig(d=3, max_results=2), SearchConfig(d=4, store_limit=0)]),
}


@pytest.mark.parametrize("name", sorted(CACHE_CASES))
def test_results_do_not_depend_on_the_cache(name):
    # the same searches, in one order and in the other, give equal results,
    # and every row they return passes cross_validate.  Each search finds
    # the count walks its predecessors left, or, in a third run, an empty
    # cache and replays of a cycle on as many vertices.
    make, configs = CACHE_CASES[name]
    n = make().num_vertices
    cycle = _cycle(n)
    replays = search(cycle, SearchConfig(d=1, max_results=2)).labelings + (
        Labeling(cycle, range(n)),)

    def run(order, cold=False):
        oracle._count_walks.cache_clear()
        results = {}
        for cfg in order:
            if cold:
                oracle._count_walks.cache_clear()
                for f in replays:
                    assert cross_validate(f, replace(cfg, d=1)).ok
            results[cfg] = search(make(), cfg)
            for f in results[cfg].labelings[:3]:
                assert cross_validate(f, cfg).reason == "agree-accept"
        return results

    forward, backward = run(configs), run(configs[::-1])
    assert run(configs, cold=True) == forward
    assert len(forward) == len(configs)
    for cfg in configs:
        assert forward[cfg] == backward[cfg]
        res = forward[cfg]
        assert res.level_sizes[-1] == res.count
        assert len(res.labelings) == min(res.count, cfg.max_results or cfg.store_limit,
                                          cfg.store_limit)


def test_plan_cache_is_bounded():
    oracle._count_walks.cache_clear()
    for n in range(2, oracle.PLAN_CACHE_SIZE + 7):
        assert search(_star(n), SearchConfig(d=1, store_limit=0)).count > 0
    info = oracle._count_walks.cache_info()
    assert info.maxsize == oracle.PLAN_CACHE_SIZE
    assert info.currsize == oracle.PLAN_CACHE_SIZE < info.misses


def test_search_size_cap_admits_the_limit():
    g = SimpleGraph(oracle.SEARCH_MAX_VERTICES, ((0, 1),))
    cfg = SearchConfig(d=1, max_results=1)
    assert search(g, cfg).count == 0  # 2 labels for 1024 vertices
