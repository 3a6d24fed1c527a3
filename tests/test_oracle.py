"""Exhaustive search oracle against independent brute force."""

import itertools
import random
from dataclasses import replace

import pytest

from divgrace import (GridGraph, InvalidParametersError, Labeling,
                      NotBipartiteError, SearchConfig, SimpleGraph, build_grid,
                      check_alpha, check_d_graceful, cross_validate,
                      engine_accepts, oracle, search, two_coloring)
from divgrace.grids import adjacency_lists
from divgrace.oracle import _arc_orbits, _Walker

EDGE = SimpleGraph(2, ((0, 1),))
PATH3 = SimpleGraph(3, ((0, 1), (1, 2)))
C4 = SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
TRIANGLE = SimpleGraph(3, ((0, 1), (1, 2), (0, 2)))
K4 = SimpleGraph(4, tuple(itertools.combinations(range(4), 2)))
K13 = SimpleGraph(4, ((0, 1), (0, 2), (0, 3)))
PETERSEN = SimpleGraph(10, tuple([(i, (i + 1) % 5) for i in range(5)]
                                 + [(i, i + 5) for i in range(5)]
                                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]))


def _orbits(g, side=None):
    """_arc_orbits on g's edge set, with no side (a plain search) by default."""
    side = [0] * g.num_vertices if side is None else side.tolist()
    return _arc_orbits(g.edge_indices().tolist(), adjacency_lists(g), side)


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


def test_t8_alpha_count(t8):
    res = search(t8, SearchConfig(d=3, alpha_only=True, store_limit=0))
    assert res.count == 576
    assert res.exhaustive


def test_t8_full_count(t8):
    res = search(t8, SearchConfig(d=3, store_limit=2000))
    assert res.count == 1440
    alphas = sum(1 for lab in res.labelings
                 if check_alpha(t8, lab) is not None)
    assert alphas == 576


def test_engine_accepts_valid(t8, t8_labeling):
    assert engine_accepts(t8, t8_labeling, SearchConfig(d=3))
    assert engine_accepts(t8, t8_labeling, SearchConfig(d=3, alpha_only=True))


def test_engine_rejects_boundary_violation(t8):
    # graceful but not alpha: the alpha-only engine must prune it
    res = search(t8, SearchConfig(d=3, store_limit=2000))
    plain = next(lab for lab in res.labelings if check_alpha(t8, lab) is None)
    assert engine_accepts(t8, plain, SearchConfig(d=3))
    assert not engine_accepts(t8, plain, SearchConfig(d=3, alpha_only=True))


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
        assert engine_accepts(t8, lab, cfg) is False
        assert cross_validate(t8, lab, 3, cfg).reason == "agree-reject"


def test_engine_rejects_repeated_difference(t8):
    lab = Labeling(t8, (5, 7, 9, 6, 0, 14, 1, 12))
    assert check_d_graceful(t8, lab, 3).reason == "duplicate-difference"
    for alpha in (False, True):
        cfg = SearchConfig(d=3, alpha_only=alpha)
        assert engine_accepts(t8, lab, cfg) is False
        assert cross_validate(t8, lab, 3, cfg).reason == "agree-reject"


def _prefix_counts(g, cfg):
    # consistent partial labelings of each length, by raw enumeration
    order = _Walker(g, cfg).kernel_args(())[2].tolist()
    color = two_coloring(g) if cfg.alpha_only else None
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
            if color is not None:
                sides = [[x for v, x in lab.items() if color[v] == s] for s in (0, 1)]
                if sides[0] and sides[1] and not (max(sides[0]) < min(sides[1])
                                                  or max(sides[1]) < min(sides[0])):
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
    report = cross_validate(t8, t8_labeling, 3)
    assert report.ok
    assert report.reason == "agree-accept"


def test_cross_validate_rejects_perturbation(t8, t8_labeling):
    vals = list(t8_labeling.values)
    vals[2] = 13
    report = cross_validate(t8, Labeling(t8, tuple(vals)), 3)
    assert report.ok
    assert report.reason == "agree-reject"


def test_cross_validate_random_perturbations(t8, t8_labeling):
    rng = random.Random(7)
    for trial in range(200):
        vals = list(t8_labeling.values)
        x = rng.randrange(len(vals))
        vals[x] = rng.choice([c for c in range(15) if c != vals[x]])
        cfg = SearchConfig(d=3, alpha_only=trial % 2 == 0)
        report = cross_validate(t8, Labeling(t8, tuple(vals)), 3, cfg)
        assert report.ok, report.describe()
        assert report.reason.startswith("agree")


def test_cross_validate_d_mismatch(t8, t8_labeling):
    with pytest.raises(ValueError):
        cross_validate(t8, t8_labeling, 3, SearchConfig(d=1))


def test_search_rejects_bad_divisor(t8):
    with pytest.raises(InvalidParametersError):
        search(t8, SearchConfig(d=5))


@pytest.mark.parametrize("field", ["max_results", "store_limit"])
def test_search_config_rejects_negative_counts(field):
    with pytest.raises(ValueError, match=field):
        SearchConfig(d=1, **{field: -1})


def test_alpha_search_needs_bipartite():
    with pytest.raises(NotBipartiteError):
        search(TRIANGLE, SearchConfig(d=1, alpha_only=True))


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
    for side in (None, two_coloring(g)):
        orbits, perms = _orbits(g, side)
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


def test_arc_orbits_keep_the_alpha_sides():
    # P_4 + P_3: reflecting P_4 alone swaps its sides but not P_3's, so it
    # maps labelings the alpha walk accepts onto ones it rejects, and the
    # end arcs of P_4 have different alpha counts
    g = SimpleGraph(7, ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6)))
    color = two_coloring(g)
    assert [size for _, size in _orbits(g)[0]] == [4, 2, 4]
    orbits, perms = _orbits(g, color)
    assert [size for _, size in orbits] == [2, 2, 2, 4]
    for p in perms:
        assert {(color[v], color[p[v]]) for v in range(7)} == {(0, 0), (1, 1)}
    cfg = SearchConfig(d=5, alpha_only=True, store_limit=0)
    walker = _Walker(g, cfg)
    assert [walker.walk(arc, (0, 9), 0, 0)[0] for arc in ((0, 1), (3, 2))] == [6, 8]
    for alpha, want in ((False, 432), (True, 64)):
        cfg = SearchConfig(d=5, alpha_only=alpha)
        assert search(g, replace(cfg, store_limit=0)).count == want
        assert search(g, cfg).count == want
    # C_4 and a lone vertex: no automorphism swaps the sides, so none
    # reverses an edge, and 1 -> 2 joins 2 -> 4 only by a map onto 4 -> 2
    g = SimpleGraph(5, ((1, 2), (2, 4), (3, 4), (1, 3)))
    assert [size for _, size in _orbits(g, two_coloring(g))[0]] == [8]


@pytest.mark.parametrize("alpha", [False, True], ids=["plain", "alpha"])
def test_grid_symmetries_map_prism_labelings_onto_themselves(t8, alpha):
    res = search(t8, SearchConfig(d=3, alpha_only=alpha, store_limit=2000))
    rows = {lab.values for lab in res.labelings}
    assert len(rows) == res.count == (576 if alpha else 1440)
    _, perms = _orbits(t8, two_coloring(t8) if alpha else None)
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
    # C_4 x P_3 has 3 arc orbits, so a count-only search makes 3 walks
    calls = {"adjacency_lists": 0, "two_coloring": 0, "dfs_search": 0}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    g = build_grid(1, 3)
    assert len(_orbits(g, two_coloring(g))[0]) == 3
    counting(oracle, "adjacency_lists")
    counting(oracle, "two_coloring")
    counting(oracle._kernels, "dfs_search")
    res = search(g, SearchConfig(d=10, alpha_only=True, store_limit=0))
    assert res.count == 2688  # what the vertex-order walk counts in about a minute
    assert calls == {"adjacency_lists": 1, "two_coloring": 1, "dfs_search": 3}


def test_search_size_cap_admits_the_limit():
    g = SimpleGraph(oracle.SEARCH_MAX_VERTICES, ((0, 1),))
    cfg = SearchConfig(d=1, max_results=1)
    assert search(g, cfg).count == 0  # 2 labels for 1024 vertices
