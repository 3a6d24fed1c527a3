"""The numpy frontier search must match the plain-Python reference DFS."""

import hashlib
import itertools
import math
import random
from collections import Counter

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from divgrace import (Labeling, SearchConfig, SimpleGraph, _kernels, build_grid,
                      check_alpha, check_d_graceful, cross_validate, search)
from divgrace.grids import adjacency_lists
from divgrace.oracle import (_allowed, _arc_orbits, _automorphism, _bfs_order,
                             _count_walks, _refine, _stabilizer_chain, _walk_tables)
from example_graphs import SWAPPED_PAIRS
from reference_dfs import dfs_search_py

STAR_40 = SimpleGraph(41, tuple((0, leaf) for leaf in range(1, 41)))

# The first 20 labelings of C_4 x P_3 at d = 5 that the reference DFS
# finds, in its order.  The reference takes over a minute to reach them,
# so they were computed once and frozen here.
C4P3_D5_FIRST_20 = [
    (0, 1, 7, 23, 24, 3, 14, 5, 2, 15, 11, 19),
    (0, 1, 7, 23, 24, 13, 21, 2, 6, 10, 12, 19),
    (0, 1, 9, 23, 24, 8, 21, 2, 22, 4, 10, 19),
    (0, 1, 9, 23, 24, 12, 15, 2, 20, 3, 22, 4),
    (0, 1, 9, 23, 24, 17, 21, 2, 22, 4, 10, 19),
    (0, 1, 9, 23, 24, 22, 16, 12, 2, 19, 3, 21),
    (0, 1, 10, 23, 24, 7, 21, 2, 8, 11, 13, 20),
    (0, 1, 10, 23, 24, 7, 21, 2, 8, 15, 3, 6),
    (0, 1, 10, 23, 24, 7, 21, 2, 8, 15, 17, 20),
    (0, 1, 10, 23, 24, 7, 21, 2, 22, 15, 3, 6),
    (0, 1, 10, 23, 24, 17, 14, 2, 7, 9, 3, 21),
    (0, 1, 14, 23, 24, 13, 20, 2, 5, 21, 17, 19),
    (0, 1, 15, 23, 24, 3, 22, 11, 2, 19, 16, 20),
    (0, 1, 15, 23, 24, 12, 9, 2, 20, 3, 22, 4),
    (0, 1, 15, 23, 24, 12, 8, 2, 22, 3, 21, 5),
    (0, 1, 17, 23, 24, 5, 19, 2, 6, 18, 10, 13),
    (0, 1, 19, 23, 24, 8, 21, 2, 10, 16, 4, 13),
    (0, 1, 19, 23, 24, 15, 13, 2, 5, 22, 10, 18),
    (0, 1, 19, 23, 24, 17, 11, 2, 7, 20, 9, 21),
    (0, 1, 20, 23, 24, 18, 9, 2, 8, 4, 22, 10),
]


def _reference(back, order, allowed, use_alpha, prefix, max_results, store_cap):
    """dfs_search_py behind the kernel's signature and return value: the
    earlier-neighbor lists go in as the flat and offset int64 arrays the
    reference reads, the other lists as numpy arrays."""
    nbr_off = np.cumsum([0] + [len(earlier) for earlier in back])
    nbr_flat = np.array([t for earlier in back for t in earlier], dtype=np.int64)
    return dfs_search_py(nbr_flat, nbr_off, np.array(order, dtype=np.int64),
                         len(allowed) - 1, np.array(allowed, dtype=np.bool_), use_alpha,
                         np.array(prefix, dtype=np.int64), max_results, store_cap) + (None,)


def _run(kernel, args, cfg, prefix, cap=2000):
    total, rows, _ = kernel(*args, prefix, cfg.max_results, cap)
    return int(total), rows


def _walk_args(g, cfg, first=()):
    """dfs_search's arguments before prefix, for the breadth-first walk
    from the vertices in first: the search's vertex walk by default."""
    adj = adjacency_lists(g)
    walk = _walk_tables(adj, _bfs_order(adj, first))
    return walk.back, walk.order, _allowed(g, cfg), cfg.alpha_only


def _agree(g, cfg, prefix=()):
    """Run the kernel and the reference on the arguments of the search's
    vertex walk, with prefix forced on its leading positions; both must match."""
    args = _walk_args(g, cfg)
    total, rows = _run(_kernels.dfs_search, args, cfg, prefix)
    ref_total, ref_rows = _run(_reference, args, cfg, prefix)
    assert total == ref_total
    assert rows.dtype == np.int64
    assert np.array_equal(rows, ref_rows)
    return total


def test_dfs_paths_agree_plain(t8):
    assert _agree(t8, SearchConfig(d=3)) == 1440


def test_dfs_paths_agree_alpha(t8):
    assert _agree(t8, SearchConfig(d=3, alpha_only=True)) == 576


def test_dfs_paths_agree_truncated(t8):
    assert _agree(t8, SearchConfig(d=3, max_results=7)) == 7


def test_dfs_paths_agree_beyond_64_labels():
    # 80 labels: a label or difference set no longer fits one int64
    for alpha in (False, True):
        cfg = SearchConfig(d=40, alpha_only=alpha, max_results=3)
        assert len(_allowed(STAR_40, cfg)) - 1 == 80
        assert _agree(STAR_40, cfg) == 3


def test_frontier_matches_frozen_reference_c4p3():
    g = build_grid(1, 3)
    for limit in (1, 20):
        cfg = SearchConfig(d=5, max_results=limit)
        total, rows = _run(_kernels.dfs_search, _walk_args(g, cfg), cfg, ())
        assert total == limit
        assert [tuple(int(x) for x in row) for row in rows] == C4P3_D5_FIRST_20[:limit]


@st.composite
def search_cases(draw):
    """A small simple graph, a divisor, search options and a forced prefix."""
    n = draw(st.integers(1, 6))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    # at most 10 edges: the reference takes about a second to exhaust K_6
    edges = tuple(draw(st.lists(st.sampled_from(pairs), max_size=10, unique=True))
                  if pairs else ())
    g = SimpleGraph(n, edges)
    e = len(edges)
    d = draw(st.sampled_from([x for x in range(1, e + 1) if e % x == 0] or [1, 2]))
    cfg = SearchConfig(d=d, alpha_only=draw(st.booleans()),
                       max_results=draw(st.sampled_from([0, 1, 2, 5, 17])))
    n_labels = d * (e // d + 1)
    prefix = []
    if draw(st.booleans()):
        prefix = draw(st.lists(st.integers(-2, n_labels + 1), max_size=n))
    return g, cfg, prefix


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_dfs_paths_agree_on_random_graphs(case):
    g, cfg, prefix = case
    _agree(g, cfg, prefix)


@settings(max_examples=300, deadline=None)
@given(search_cases())
def test_count_by_arc_agrees_with_vertex_walk_on_random_graphs(case):
    g, cfg, _ = case
    walk = search(g, SearchConfig(d=cfg.d, alpha_only=cfg.alpha_only, store_limit=1))
    split = search(g, SearchConfig(d=cfg.d, alpha_only=cfg.alpha_only, store_limit=0))
    assert split.count == walk.count
    assert split.level_sizes[-1] == split.count


def _closure(arcs, perms):
    """Each arc's orbit under perms and reversal, named by its first arc
    in arcs, by plain graph search."""
    orbit_of = {}
    for arc in arcs:
        if arc in orbit_of:
            continue
        orbit_of[arc] = arc
        todo = [arc]
        while todo:
            u, w = todo.pop()
            for image in [(w, u)] + [(p[u], p[w]) for p in perms]:
                if image not in orbit_of:
                    orbit_of[image] = arc
                    todo.append(image)
    return orbit_of


@settings(max_examples=150, deadline=None)
@given(search_cases())
def test_arc_orbit_walks_agree_on_random_graphs(case):
    # every arc's forced walk counts what its orbit's first arc counts:
    # the automorphisms found and the complement f -> D - f both hold
    g, cfg, _ = case
    assume(g.num_edges > 0)
    edges = [tuple(e) for e in g.edge_indices().tolist()]
    arcs = edges + [(w, u) for u, w in edges]
    adj = adjacency_lists(g)
    orbits, perms = _arc_orbits(edges, adj, _refine(adj))
    orbit_of = _closure(arcs, perms)
    assert set(orbit_of) == set(arcs)
    assert [(arc, size) for arc, size, _, _ in orbits] == list(Counter(orbit_of.values()).items())
    for alpha in (False, True):
        alpha_cfg = SearchConfig(d=cfg.d, alpha_only=alpha)
        forced = (0, len(_allowed(g, alpha_cfg)) - 2)
        counts = {arc: _kernels.dfs_search(*_walk_args(g, alpha_cfg, arc), forced, 0, 0)[0]
                  for arc in arcs}
        assert all(counts[arc] == counts[orbit_of[arc]] for arc in arcs)


@settings(max_examples=100, deadline=None)
@given(search_cases())
def test_arc_orbits_are_those_of_the_full_group(case):
    # the search misses no automorphism: compare with every permutation
    g, _, _ = case
    n = g.num_vertices
    edges = [tuple(e) for e in g.edge_indices().tolist()]
    edge_set = {frozenset(e) for e in edges}
    arcs = edges + [(w, u) for u, w in edges]
    group = [p for p in itertools.permutations(range(n))
             if {frozenset((p[u], p[w])) for u, w in edges} == edge_set]
    adj = adjacency_lists(g)
    orbits, _ = _arc_orbits(edges, adj, _refine(adj))
    assert ([(arc, size) for arc, size, _, _ in orbits]
            == list(Counter(_closure(arcs, group).values()).items()))


@settings(max_examples=100, deadline=None)
@given(search_cases())
@example((SimpleGraph(5, ((0, 1), (0, 2), (0, 3), (0, 4))), SearchConfig(d=1), []))
@example((SimpleGraph(6, tuple((i, j) for i in range(3) for j in range(3, 6))),
          SearchConfig(d=3), []))
@example((SimpleGraph(6, tuple((i, (i + 1) % 6) for i in range(6))), SearchConfig(d=2), []))
@example((SimpleGraph(5, ((0, 1), (1, 2))), SearchConfig(d=1), []))
@example((SWAPPED_PAIRS, SearchConfig(d=3), []))
def test_stabilizer_chain_matches_the_full_group(case):
    # each O_t is the orbit of order[t] under every permutation that keeps
    # the edge set and fixes order[0..t-1], and the chain stops only where
    # a cell is coarser than the orbits
    g, _, _ = case
    assume(g.num_edges > 0)
    n = g.num_vertices
    edges = [tuple(e) for e in g.edge_indices().tolist()]
    edge_set = {frozenset(e) for e in edges}
    group = [p for p in itertools.permutations(range(n))
             if {frozenset((p[u], p[w])) for u, w in edges} == edge_set]
    adj = adjacency_lists(g)
    color = _refine(adj)
    for _, walk, smaller, factor in _count_walks(g):
        order, pos, _ = walk
        chain = _stabilizer_chain(adj, color, walk, _automorphism(adj, color, walk))

        def orbit(t):
            return {p[order[t]] for p in group if all(p[v] == v for v in order[:t])}

        for t, found in enumerate(chain, start=2):
            assert found[0] == order[t] and len(set(found)) == len(found)
            assert set(found) == orbit(t)
        t = 2 + len(chain)
        if t < n:
            def fixed_neighbors(v):
                return {z for z in adj[v] if pos[z] < t}

            cell = {y for y in order[t:] if color[y] == color[order[t]]
                    and fixed_neighbors(y) == fixed_neighbors(order[t])}
            assert cell - orbit(t)
        want = [max((t for t, found in enumerate(chain, start=2) if v in found[1:]),
                    default=-1) for v in order]
        assert list(smaller) == want
        assert factor[-1] == math.prod(map(len, chain))



def _random_recursive_tree(n, seed):
    """A tree on n vertices whose vertex i hangs below a uniform earlier one."""
    rng = random.Random(seed)
    return SimpleGraph(n, tuple((rng.randrange(i), i) for i in range(1, n)))


def test_count_walks_frozen_digest():
    # the count's exact inputs to the kernel on graphs of every kind of
    # symmetry, frozen when they were first computed: a change to how the
    # walks are set up must leave the count's work as it was.  The prism,
    # C_4 x P_3, C_8 x P_5, C_12 x P_4, the Petersen graph, K_{3,4}, P_9,
    # P_4 + P_3, K_{1,8} and a random tree:
    graphs = [build_grid(1, 2), build_grid(1, 3), build_grid(2, 5), build_grid(3, 4),
              SimpleGraph(10, tuple([(i, (i + 1) % 5) for i in range(5)]
                                    + [(i, i + 5) for i in range(5)]
                                    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])),
              SimpleGraph(7, tuple((i, 3 + j) for i in range(3) for j in range(4))),
              SimpleGraph(9, tuple((i, i + 1) for i in range(8))),
              SimpleGraph(7, ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6))),
              SimpleGraph(9, tuple((0, leaf) for leaf in range(1, 9))),
              _random_recursive_tree(40, 1)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr([(size, tuple(walk.order), tuple(smaller), tuple(factor))
                            for size, walk, smaller, factor in _count_walks(g)]).encode())
    assert digest.hexdigest() == (
        "8034fb680af17451d1324beb23636670feace3c078d1707baf09a7efc5310d82")

@settings(max_examples=200, deadline=None)
@given(search_cases(), st.data())
def test_symmetry_constraints_drop_exactly_the_labelings_that_break_them(case, data):
    g, cfg, prefix = case
    args = _walk_args(g, cfg)
    order = args[1]
    n = len(order)
    smaller = [data.draw(st.integers(-1, p - 1)) for p in range(n)]
    _, every = _reference(*args, prefix, 0, 10 ** 6)[:2]
    want = [row for row in every.tolist()
            if all(smaller[p] < 0 or row[order[p]] > row[order[smaller[p]]]
                   for p in range(n))]
    if cfg.max_results:
        want = want[:cfg.max_results]
    total, rows, level_sizes = _kernels.dfs_search(*args, prefix, cfg.max_results, 10 ** 6,
                                                   smaller)
    assert total == level_sizes[-1] == len(want)
    assert rows.tolist() == want


def _prefix_holds(g, order, cfg, labels, smaller):
    """Whether labels, forced on order's leading vertices, pass every test
    that involves only them, by plain enumeration of the placed edges."""
    e = g.num_edges
    n_labels = cfg.d * (e // cfg.d + 1)
    allowed = {x for x in range(1, n_labels + 1) if x % (e // cfg.d + 1) != 0}
    lab = dict(zip(order, labels))
    inner = [(u, w) for u, w in g.edges if u in lab and w in lab]
    diffs = [abs(lab[u] - lab[w]) for u, w in inner]
    return (all(0 <= x < n_labels for x in labels) and len(set(labels)) == len(labels)
            and len(set(diffs)) == len(diffs) and set(diffs) <= allowed
            and all(smaller[p] < 0 or labels[p] > labels[smaller[p]]
                    for p in range(len(labels)))
            and (not cfg.alpha_only or any(
                all(min(lab[u], lab[w]) <= boundary < max(lab[u], lab[w]) for u, w in inner)
                for boundary in range(-1, n_labels))))


@settings(max_examples=300, deadline=None)
@given(search_cases(), st.data())
def test_forced_prefix_level_sizes(case, data):
    # each forced position counts 1 while the prefix up to it holds and
    # 0 from the first one that fails; a failed prefix yields nothing
    g, cfg, prefix = case
    args = _walk_args(g, cfg)
    order = args[1]
    n = len(order)
    smaller = [data.draw(st.integers(-1, p - 1)) for p in range(n)]
    total, _, level_sizes = _kernels.dfs_search(*args, prefix, cfg.max_results, 0, smaller)
    holds = [_prefix_holds(g, order, cfg, prefix[:p + 1], smaller)
             for p in range(len(prefix))]
    assert level_sizes[:len(prefix)] == [int(x) for x in holds]
    assert holds == sorted(holds, reverse=True)
    if not all(holds):
        assert total == 0 and not any(level_sizes[len(prefix):])


@settings(max_examples=200, deadline=None)
@given(search_cases(), st.data())
def test_cross_validate_agrees_on_random_graphs(case, data):
    # walk labelings and tampered copies, replayed with every vertex forced
    g, cfg, _ = case
    n, e = g.num_vertices, g.num_edges
    n_labels = cfg.d * (e // cfg.d + 1)
    found = search(g, SearchConfig(d=cfg.d, store_limit=4)).labelings
    candidates = [list(f.values) for f in found]
    candidates.append(data.draw(st.lists(st.integers(0, n_labels), min_size=n, max_size=n)))
    for values in list(candidates):
        pick = st.integers(0, n - 1)
        swapped = values[:]
        a, b = data.draw(pick), data.draw(pick)
        swapped[a], swapped[b] = swapped[b], swapped[a]
        bumped = values[:]
        bumped[data.draw(pick)] += 1
        topped = values[:]
        topped[data.draw(pick)] = n_labels
        candidates += [swapped, bumped, topped]
    for alpha in (False, True):
        for values in candidates:
            report = cross_validate(Labeling(g, tuple(values)),
                                    SearchConfig(d=cfg.d, alpha_only=alpha))
            assert report.reason in ("agree-accept", "agree-reject"), report.describe()


def test_run_kernel_uses_selected_path(t8):
    cfg = SearchConfig(d=3, alpha_only=True)
    total, rows, level_sizes = _kernels.dfs_search(*_walk_args(t8, cfg), (), 0, 600)
    assert total == 576
    assert rows.shape == (576, 8) and rows.dtype == np.int64
    assert level_sizes[-1] == 576
    # rows are by vertex: each one is a labeling the checkers accept
    for row in rows[::50]:
        lab = Labeling(t8, tuple(row))
        assert check_d_graceful(lab, 3).ok and check_alpha(lab) is not None


def test_count_pairs_variants_agree():
    rng = np.random.default_rng(11)
    v = 40
    a = rng.integers(0, v, size=500)
    b = (a + rng.integers(1, v, size=500)) % v
    counts = np.zeros((v, v), dtype=np.int64)
    _kernels.count_pairs(a.astype(np.int64), b.astype(np.int64), counts)
    expect = np.zeros((v, v), dtype=np.int64)
    for x, y in zip(a.tolist(), b.tolist()):
        expect[min(x, y), max(x, y)] += 1
    assert np.array_equal(counts, expect)
    assert counts.sum() == 500
    assert np.array_equal(counts, np.triu(counts, 1))


def test_count_pairs_orders_each_pair():
    counts = np.zeros((4, 4), dtype=np.int64)
    _kernels.count_pairs(np.array([3, 1, 0, 2, 1], dtype=np.int64),
                         np.array([2, 3, 1, 3, 0], dtype=np.int64), counts)
    assert counts.tolist() == [
        [0, 2, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 0, 2],
        [0, 0, 0, 0],
    ]
