"""Exhaustive search oracle for divisible graceful labelings.

The oracle enumerates labelings of an arbitrary small graph by
depth-first assignment along a breadth-first vertex order, pruning on
repeated labels, repeated or forbidden differences and, optionally, on
both orientations of the alpha boundary.  It is deliberately a second,
independent route to the same answers as the closed-form constructions:
cross_validate insists the incremental constraint engine and the offline
checker agree labeling by labeling.

Results are deterministic for a given configuration: labelings come out
in lexicographic order of their labels along the search order.

A search that runs to the end and keeps no labeling is counted another
way.  The e edge differences of a labeling are exactly the e allowed
ones, and the largest label D = d(q + 1) - 1 is an allowed difference,
so exactly one edge carries the labels 0 and D: one arc u -> w has
f(u) = 0 and f(w) = D.  A graph automorphism maps the labelings of one
arc onto those of its image, so the count is the sum, over the orbits
of arcs under a group of automorphisms, of the orbit's size times the
number of labelings of one arc in it.  Each such number is one walk
with 0 and D forced on u and w.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .checking import (CheckReport, InvalidParametersError, Labeling,
                       NotBipartiteError, check_alpha, check_d_graceful,
                       d_params)
from .grids import Graph, GridGraph, adjacency_lists, two_coloring


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters.

    max_results 0 exhausts the space; the count is then exact and the
    returned labelings are capped at store_limit (store_limit 0 counts
    without keeping any).  Neither may be negative.
    """

    d: int
    alpha_only: bool = False
    max_results: int = 0
    store_limit: int = 10000

    def __post_init__(self) -> None:
        if self.max_results < 0:
            raise ValueError(f"max_results must be >= 0, got {self.max_results}")
        if self.store_limit < 0:
            raise ValueError(f"store_limit must be >= 0, got {self.store_limit}")


@dataclass(frozen=True)
class SearchResult:
    """Labelings found, in search order, and how many there were.

    level_sizes[p] is the number of partial labelings of the first p + 1
    vertices in search order that survived pruning (a search stopped by
    max_results counts only the part it walked).  A count-only search
    (max_results and store_limit 0) sums, weighted by orbit size, the
    level sizes of its forced walks, one per orbit of arcs.  Either way
    the last entry is count.
    """

    labelings: tuple[Labeling, ...]
    count: int
    exhaustive: bool
    level_sizes: tuple[int, ...]


# Largest graph that search accepts.  An exhaustive search is hopeless
# long before these sizes; the cap turns an absurd input into an error
# before any per-vertex or per-edge array is built.
SEARCH_MAX_VERTICES = 1024
SEARCH_MAX_EDGES = 1024


def _bfs_order(adj: list[list[int]], first: tuple[int, ...] = ()) -> list[int]:
    """Breadth-first order from the vertices in first, then from each
    lowest-index vertex not yet reached."""
    seen = [False] * len(adj)
    order: list[int] = []
    for roots in (first, *((root,) for root in range(len(adj)))):
        queue = deque(v for v in roots if not seen[v])
        for v in queue:
            seen[v] = True
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


def _symmetries(g: Graph) -> list[list[int]]:
    """Generators of a group of automorphisms of g, as vertex permutations.

    A grid gets ring rotation j -> j + 1, ring reflection j -> -j and
    layer flip i -> m + 1 - i, which generate a group of order 16k; any
    other graph gets the trivial group.
    """
    if not isinstance(g, GridGraph):
        return []
    i = np.arange(g.m)[:, None]
    j = np.arange(g.ring_len)
    w = g.ring_len
    return [(i * w + (j + 1) % w).ravel().tolist(),
            (i * w + -j % w).ravel().tolist(),
            ((g.m - 1 - i) * w + j).ravel().tolist()]


def _arc_orbits(g: Graph) -> list[tuple[tuple[int, int], int]]:
    """Orbits of the 2e arcs of g under _symmetries(g), as pairs of the
    first arc in canonical edge order (forward arcs first) and the size."""
    edges = g.edge_indices().tolist()
    perms = _symmetries(g)
    seen: set[tuple[int, int]] = set()
    orbits = []
    for arc in [(u, w) for u, w in edges] + [(w, u) for u, w in edges]:
        if arc in seen:
            continue
        seen.add(arc)
        stack = [arc]
        size = 0
        while stack:
            u, w = stack.pop()
            size += 1
            for p in perms:
                image = (p[u], p[w])
                if image not in seen:
                    seen.add(image)
                    stack.append(image)
        orbits.append((arc, size))
    return orbits


class _Walker:
    """What every walk of one search shares, built once per search."""

    def __init__(self, g: Graph, cfg: SearchConfig) -> None:
        params = d_params(g.num_edges, cfg.d)
        self.n_labels = params.d * (params.q + 1)
        self.allowed = np.zeros(self.n_labels + 1, dtype=np.bool_)
        self.allowed[list(params.allowed)] = True
        self.adj = adjacency_lists(g)
        self.alpha = cfg.alpha_only
        self.color = (two_coloring(g) if self.alpha
                      else np.zeros(g.num_vertices, dtype=np.int64))
        if self.color is None:
            raise NotBipartiteError("alpha search requires a bipartite graph")

    def kernel_args(self, first: tuple[int, ...]) -> tuple:
        """dfs_search's arguments before prefix, for the breadth-first
        order from the vertices in first."""
        order = _bfs_order(self.adj, first)
        pos_of = {v: p for p, v in enumerate(order)}
        flat: list[int] = []
        off = [0]
        for p, v in enumerate(order):
            flat.extend(sorted(pos_of[u] for u in self.adj[v] if pos_of[u] < p))
            off.append(len(flat))
        order_arr = np.array(order, dtype=np.int64)
        return (np.array(flat, dtype=np.int64), np.array(off, dtype=np.int64), order_arr,
                self.allowed, self.alpha, self.color[order_arr])

    def walk(self, first: tuple[int, ...], labels: tuple[int, ...], max_results: int,
             store_cap: int):
        """dfs_search along the order from first, with labels forced on
        first's vertices; returns (total, rows, level_sizes)."""
        return _kernels.dfs_search(*self.kernel_args(first),
                                   np.array(labels, dtype=np.int64), max_results,
                                   store_cap)


def search(g: Graph, cfg: SearchConfig) -> SearchResult:
    """Enumerate d-divisible graceful labelings of g under cfg.

    Identical configurations produce identical results, including order.
    A search that exhausts the space and keeps no labeling is counted by
    arc orbits (see the module docstring) unless g has no edge.
    """
    if g.num_vertices > SEARCH_MAX_VERTICES or g.num_edges > SEARCH_MAX_EDGES:
        raise InvalidParametersError(
            f"search is limited to {SEARCH_MAX_VERTICES} vertices and "
            f"{SEARCH_MAX_EDGES} edges, got {g.num_vertices} and {g.num_edges}")
    walker = _Walker(g, cfg)
    if cfg.max_results == 0 and cfg.store_limit == 0 and g.num_edges > 0:
        total, level_sizes = 0, 0
        for arc, size in _arc_orbits(g):
            count, _, levels = walker.walk(arc, (0, walker.n_labels - 1), 0, 0)
            total += size * count
            level_sizes = level_sizes + size * levels
        return SearchResult(labelings=(), count=total, exhaustive=True,
                            level_sizes=tuple(level_sizes.tolist()))
    store_cap = cfg.max_results if cfg.max_results > 0 else cfg.store_limit
    total, rows, level_sizes = walker.walk((), (), cfg.max_results, store_cap)
    exhaustive = cfg.max_results == 0 or total < cfg.max_results
    labelings = tuple(Labeling(g, tuple(row)) for row in rows.tolist())
    return SearchResult(labelings=labelings, count=total, exhaustive=exhaustive,
                        level_sizes=tuple(level_sizes.tolist()))


def engine_accepts(g: Graph, f: Labeling, cfg: SearchConfig) -> bool:
    """Replay a complete labeling through the search's constraint engine.

    Every vertex is forced, in index order, so the labeling is a one-row
    frontier; it passes when it survives the masks at every position.
    """
    walker = _Walker(g, cfg)
    if max(f.values) >= walker.n_labels:  # may not even fit an int64
        return False
    total, _, _ = walker.walk(tuple(range(g.num_vertices)), f.values, 0, 0)
    return total == 1


def cross_validate(g: Graph, f: Labeling, d: int,
                   cfg: SearchConfig | None = None) -> CheckReport:
    """Require the checker and the constraint engine to agree on f.

    Agreement is a pass (reason "agree-accept" or "agree-reject"); any
    disagreement is an internal consistency failure.
    """
    cfg = cfg or SearchConfig(d=d)
    if cfg.d != d:
        raise ValueError("cfg.d must match d")
    checker_ok = bool(check_d_graceful(g, f, d))
    if checker_ok and cfg.alpha_only:
        checker_ok = check_alpha(g, f) is not None
    engine_ok = engine_accepts(g, f, cfg)
    if checker_ok == engine_ok:
        return CheckReport(True, "agree-accept" if checker_ok else "agree-reject")
    return CheckReport(False, "engine-checker-disagreement",
                       (("checker", checker_ok), ("engine", engine_ok)))
