"""Coordinate views of the cylinder grids, kept as the reference.

A vertex of C_{4k} x P_m is (i, j), layer i in [1, m] and ring position
j in [1, 4k].  edges walks the ring edges layer by layer and then the
rungs, each block in increasing j, by coordinates alone, so comparing
it with GridGraph.edge_indices checks the package's index arithmetic
against a second derivation of the canonical order.
"""


def vertices(g):
    """All coordinates in canonical order: layer by layer, j increasing."""
    for i in range(1, g.m + 1):
        for j in range(1, g.ring_len + 1):
            yield (i, j)


def vertex_at(g, index):
    """The coordinate of a canonical vertex index."""
    if not 0 <= index < g.num_vertices:
        raise ValueError(f"vertex index {index} out of range")
    return index // g.ring_len + 1, index % g.ring_len + 1


def edges(g):
    """Canonical edge order: ring edges per layer, then rungs, increasing j."""
    w = g.ring_len
    for i in range(1, g.m + 1):
        for j in range(1, w + 1):
            yield (i, j), (i, j % w + 1)
    for i in range(1, g.m):
        for j in range(1, w + 1):
            yield (i, j), (i + 1, j)
