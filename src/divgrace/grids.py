"""Cylinder-grid graphs C_{4k} x P_m and small simple graphs.

Grid vertices carry coordinates (i, j): layer i in [1, m], ring position
j in [1, 4k].  The canonical index of (i, j) is (i - 1) * 4k + (j - 1).
Canonical edge order is all ring edges layer by layer, then all rung
edges, each block in increasing j.  Both orders are fixed so that
serialized artifacts are byte-reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Union

import numpy as np

Coord = tuple[int, int]


def _kept_edges(g, build) -> np.ndarray:
    """g's edge array: build() on the first call, made read-only and
    kept on g, the same array on every later call."""
    arr = g.__dict__.get("_edges")
    if arr is None:
        arr = build()
        arr.setflags(write=False)
        object.__setattr__(g, "_edges", arr)  # not a field: eq and hash ignore it
    return arr


@dataclass(frozen=True)
class GridGraph:
    """The cylinder grid C_{4k} x P_m: m rings of length 4k joined by rungs."""

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.m < 2:
            raise ValueError(f"m must be >= 2, got {self.m}")

    @property
    def ring_len(self) -> int:
        return 4 * self.k

    @property
    def num_vertices(self) -> int:
        return 4 * self.k * self.m

    @property
    def num_edges(self) -> int:
        return 4 * self.k * (2 * self.m - 1)

    def vertex_index(self, coord: Coord) -> int:
        i, j = coord
        if not (1 <= i <= self.m and 1 <= j <= self.ring_len):
            raise ValueError(f"coordinate {coord} outside layer [1,{self.m}] x ring [1,{self.ring_len}]")
        return (i - 1) * self.ring_len + (j - 1)

    def edge_indices(self) -> np.ndarray:
        """Canonical edge order as a read-only (e, 2) array of vertex indices,
        built on the first call and kept on the graph."""
        return _kept_edges(self, self._build_edges)

    def _build_edges(self) -> np.ndarray:
        w = self.ring_len
        j = np.arange(w, dtype=np.int64)
        base = np.arange(self.m, dtype=np.int64)[:, None] * w
        ring_u = (base + j).ravel()
        ring_w = (base + (j + 1) % w).ravel()
        rung_u = np.arange((self.m - 1) * w, dtype=np.int64)
        return np.stack([np.concatenate([ring_u, rung_u]),
                         np.concatenate([ring_w, rung_u + w])], axis=1)


@dataclass(frozen=True)
class SimpleGraph:
    """A loop-free simple graph on vertices 0..n-1 with a fixed edge order."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        norm = []
        seen = set()
        for u, w in self.edges:
            if not (0 <= u < self.n and 0 <= w < self.n):
                raise ValueError(f"edge ({u},{w}) out of range")
            if u == w:
                raise ValueError(f"loop at vertex {u}")
            pair = (u, w) if u < w else (w, u)
            if pair in seen:
                raise ValueError(f"duplicate edge {pair}")
            seen.add(pair)
            norm.append(pair)
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def num_vertices(self) -> int:
        return self.n

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_indices(self) -> np.ndarray:
        """The edges in their fixed order as a read-only (e, 2) array of
        vertex indices, built on the first call and kept on the graph."""
        return _kept_edges(self, lambda: np.array(self.edges, dtype=np.int64).reshape(-1, 2))


Graph = Union[GridGraph, SimpleGraph]


def build_grid(k: int, m: int) -> GridGraph:
    """Build C_{4k} x P_m, rejecting k < 1 and m < 2."""
    return GridGraph(k, m)


def adjacency_lists(g: Graph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.num_vertices)]
    for u, w in g.edge_indices().tolist():
        adj[u].append(w)
        adj[w].append(u)
    return [sorted(nb) for nb in adj]


# Unused by the package; kept because perfbench/tracing.py traces it by name.
def two_coloring(g: Graph) -> np.ndarray | None:
    """2-coloring with lowest-index roots in class 0; None if not bipartite.

    A grid is connected and bipartite with (1, 1) in class 0, so its
    coloring is the parity of i + j.  Simple graphs are colored by BFS.
    """
    if isinstance(g, GridGraph):
        return (np.arange(g.m)[:, None] + np.arange(g.ring_len)).ravel() % 2
    n = g.num_vertices
    color = np.full(n, -1, dtype=np.int64)
    adj = adjacency_lists(g)
    for root in range(n):
        if color[root] >= 0:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    queue.append(u)
                elif color[u] == color[v]:
                    return None
    return color
