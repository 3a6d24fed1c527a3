"""Structure of the cylinder grids and the flat simple-graph view."""

import numpy as np
import pytest

from divgrace import SimpleGraph, build_grid
from divgrace.grids import adjacency_lists, two_coloring
from reference_grids import edges, vertex_at, vertices


def _color_classes(g):
    color = two_coloring(g)
    return ({vertex_at(g, idx) for idx in np.flatnonzero(color == 0)},
            {vertex_at(g, idx) for idx in np.flatnonzero(color == 1)})


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("m", range(2, 7))
def test_counts_match_closed_forms(k, m):
    g = build_grid(k, m)
    assert g.num_vertices == 4 * k * m
    assert g.num_edges == 4 * k * (2 * m - 1)
    assert len(list(edges(g))) == g.num_edges
    assert g.edge_indices().shape == (g.num_edges, 2)


def test_frozen_size_examples():
    assert (build_grid(1, 2).num_vertices, build_grid(1, 2).num_edges) == (8, 12)
    assert (build_grid(2, 3).num_vertices, build_grid(2, 3).num_edges) == (24, 40)
    assert (build_grid(1, 4).num_vertices, build_grid(1, 4).num_edges) == (16, 28)


@pytest.mark.parametrize("k,m", [(1, 2), (2, 3), (1, 4), (3, 5)])
def test_degree_distribution(k, m):
    g = build_grid(k, m)
    degrees = [len(nb) for nb in adjacency_lists(g)]
    for idx, deg in enumerate(degrees):
        i, _ = vertex_at(g, idx)
        assert deg == (3 if i in (1, m) else 4)


def test_vertex_index_round_trip():
    g = build_grid(2, 3)
    for idx, coord in enumerate(vertices(g)):
        assert g.vertex_index(coord) == idx
        assert vertex_at(g, idx) == coord
    with pytest.raises(ValueError):
        g.vertex_index((0, 1))
    with pytest.raises(ValueError):
        g.vertex_index((1, 9))


def test_ring_wraparound_edge():
    # ring edge {(1,4),(1,1)} flattens to {3, 0}
    edges = {tuple(sorted(e)) for e in build_grid(1, 2).edge_indices().tolist()}
    assert (0, 3) in edges


def test_canonical_orders_are_deterministic():
    a = build_grid(2, 3)
    b = build_grid(2, 3)
    assert list(edges(a)) == list(edges(b))
    assert np.array_equal(a.edge_indices(), b.edge_indices())


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("m", range(2, 6))
def test_edge_array_matches_coordinates(k, m):
    g = build_grid(k, m)
    idx = g.edge_indices()
    expect = [[g.vertex_index(u), g.vertex_index(w)] for u, w in edges(g)]
    assert idx.tolist() == expect
    assert idx.dtype == np.int64
    assert not idx.flags.writeable


def test_edge_array_counts():
    idx = build_grid(1, 3).edge_indices()
    assert idx.shape == (20, 2)
    assert idx.min() == 0 and idx.max() == 11
    seen = {tuple(sorted(e)) for e in idx.tolist()}
    assert len(seen) == 20


def test_bipartition_is_proper_and_balanced():
    for k, m in [(1, 2), (2, 3), (1, 4)]:
        g = build_grid(k, m)
        a, b = _color_classes(g)
        assert len(a) == len(b) == 2 * k * m
        for u, w in edges(g):
            assert (u in a) != (w in a)


def test_bipartition_frozen_example():
    # class 0 is the odd positions of ring 1 with the even ones of ring 2
    a, b = _color_classes(build_grid(1, 2))
    assert a == {(1, 1), (1, 3), (2, 2), (2, 4)}
    assert b == {(1, 2), (1, 4), (2, 1), (2, 3)}


def test_prism_view_classes():
    # the prism (m = 2): two 4-rings joined position by position
    g = build_grid(1, 2)
    assert g.num_edges == 12
    ring1 = tuple(v for v in vertices(g) if v[0] == 1)
    assert ring1 == ((1, 1), (1, 2), (1, 3), (1, 4))
    odd_ring1 = {(1, j) for j in (1, 3)}
    even_ring1 = {(1, j) for j in (2, 4)}
    odd_ring2 = {(2, j) for j in (1, 3)}
    even_ring2 = {(2, j) for j in (2, 4)}
    # the parity bipartition splits as odd ring 1 with even ring 2
    a, b = _color_classes(g)
    assert a == odd_ring1 | even_ring2
    assert b == odd_ring2 | even_ring1


@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("m", range(2, 6))
def test_grid_coloring_matches_bfs(k, m):
    # the parity coloring equals the BFS coloring of the same edge set
    g = build_grid(k, m)
    flat = SimpleGraph(g.num_vertices, tuple(map(tuple, g.edge_indices().tolist())))
    assert np.array_equal(two_coloring(g), two_coloring(flat))


def test_grid_parameter_validation():
    with pytest.raises(ValueError):
        build_grid(0, 2)
    with pytest.raises(ValueError):
        build_grid(1, 1)


def test_simple_graph_validation():
    with pytest.raises(ValueError):
        SimpleGraph(2, ((0, 0),))
    with pytest.raises(ValueError):
        SimpleGraph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        SimpleGraph(2, ((0, 2),))


def test_two_coloring():
    g = build_grid(1, 3)
    color = two_coloring(g)
    for u, w in g.edge_indices():
        assert color[u] != color[w]
    triangle = SimpleGraph(3, ((0, 1), (1, 2), (0, 2)))
    assert two_coloring(triangle) is None
