"""Exhaustive search oracle for divisible graceful labelings.

The oracle enumerates labelings of an arbitrary small graph by
depth-first assignment along a breadth-first vertex order, pruning on
repeated labels, repeated or forbidden differences and, optionally, on
Rosa's alpha condition (some lambda with min f(u) <= lambda < max f(u)
on every edge).  It is deliberately a second, independent route to the
same answers as the closed-form constructions: cross_validate insists
the incremental constraint engine and the offline checker agree
labeling by labeling, each on the graph it holds; only search, which
has no labeling yet, takes a graph.

Results are deterministic for a given configuration: labelings come out
in lexicographic order of their labels along the search order.

A search that runs to the end and keeps no labeling is counted another
way.  The e edge differences of a labeling are exactly the e allowed
ones, and the largest label D = d(q + 1) - 1 is an allowed difference,
so exactly one edge carries the labels 0 and D: one arc u -> w has
f(u) = 0 and f(w) = D.  Two maps carry the labelings of one arc onto
those of another.  A graph automorphism maps them onto those of the
arc's image; the complement f -> D - f keeps every difference and turns
a boundary lambda into D - 1 - lambda, so it maps them onto those of the
reversed arc w -> u.  Both keep Rosa's condition.  The count is
therefore the sum, over the orbits of arcs under both, of the orbit's
size times the number of labelings of one arc in it, and each such
number is one walk with 0 and D forced on u and w.  The
automorphisms are found from the edge set alone (_arc_orbits): the
prism C_4 x P_2 has one orbit of all 24 arcs, any other C_{4k} x P_m
has m, and a cycle has one.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .checking import (CheckReport, InvalidParametersError, Labeling,
                       check_d_graceful, d_params)
from .grids import Graph, adjacency_lists


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
    level sizes of its forced walks, one per orbit of arcs under the
    graph's automorphisms and arc reversal (one walk on the prism, m on
    any other C_{4k} x P_m).  Either way the last entry is count.
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


def _refine(adj: list[list[int]]) -> list[int]:
    """Color refinement from the degrees: split each color class by the
    multiset of neighbor colors until no class splits.  Every
    automorphism keeps the colors."""
    color = [len(nb) for nb in adj]
    classes = len(set(color))
    while True:
        ids: dict = {}
        new = [ids.setdefault((c, tuple(sorted(color[u] for u in nb))), len(ids))
               for c, nb in zip(color, adj)]
        if len(ids) == classes:
            return color
        color, classes = new, len(ids)


def _automorphism(adj: list[list[int]], color: list[int], arc: tuple[int, int],
                  target: tuple[int, int]) -> list[int] | None:
    """A vertex permutation that maps arc onto target, keeps color and
    maps every edge onto an edge; None if there is none.

    Vertices are individualized one at a time in breadth-first order
    from the arc.  A vertex with an earlier neighbor z may go to a
    neighbor of z's image, any other to any vertex of its color; the
    choice must keep color, and its neighbors already chosen must be
    exactly the images of the vertex's earlier neighbors.  A dead end
    undoes the last choice, so the search misses none.
    """
    n = len(adj)
    order = _bfs_order(adj, arc)
    pos = [0] * n
    for t, v in enumerate(order):
        pos[v] = t
    back = [[z for z in adj[v] if pos[z] < t] for t, v in enumerate(order)]
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(color):
        cells.setdefault(c, []).append(v)
    image = [-1] * n
    used = [False] * n
    choices = [iter(target[:1])] + [iter(())] * (n - 1)
    t = 0
    while t < n:
        x = order[t]
        for y in choices[t]:
            if (not used[y] and color[y] == color[x]
                    and {z for z in adj[y] if used[z]} == {image[z] for z in back[t]}):
                image[x] = y
                used[y] = True
                t += 1
                if t < n:
                    earlier = back[t]
                    choices[t] = iter(target[1:] if t == 1 else
                                      adj[image[earlier[0]]] if earlier else
                                      cells[color[order[t]]])
                break
        else:
            t -= 1
            if t < 0:
                return None
            used[image[order[t]]] = False
    return image


def _arc_orbits(edges: list[list[int]], adj: list[list[int]]
                ) -> tuple[list[tuple[tuple[int, int], int]], list[list[int]]]:
    """Orbits of the 2e arcs under reversal u -> w to w -> u and the
    graph's automorphisms, with those automorphisms.

    Returns ([(arc, size), ...], [permutation, ...]); each orbit is named
    by its first arc in canonical edge order, forward arcs first.  Arcs
    whose ends differ in refined color lie in different orbits.  The
    first arc of each orbit is tried against every arc of the same
    colors that is neither in its orbit yet nor in a class already
    shown to lie outside it (by trying the arc and, if its ends share a
    color, its reverse); each permutation found is checked against the
    edge set and merges every arc with its image.  Any set of checked
    automorphisms gives orbits whose arcs have equal counts, so one
    missed would cost walks, not exactness.
    """
    color = _refine(adj)
    arcs = [(u, w) for u, w in edges] + [(w, u) for u, w in edges]
    index = {arc: i for i, arc in enumerate(arcs)}
    by_color: dict[tuple[int, int], list[int]] = {}
    for i, (u, w) in enumerate(arcs):
        by_color.setdefault((color[u], color[w]), []).append(i)
    root = list(range(len(arcs)))  # union-find; a class's root is its first arc

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    def merge(i: int, j: int) -> None:
        i, j = find(i), find(j)
        if i < j:
            root[j] = i
        else:
            root[i] = j

    for i in range(len(edges)):
        merge(i, i + len(edges))
    perms: list[list[int]] = []
    for i, arc in enumerate(arcs):
        if find(i) != i:
            continue  # in the orbit of an earlier arc, which is complete
        outside: set[int] = set()
        for j in by_color[color[arc[0]], color[arc[1]]]:
            if j <= i or find(j) == i or find(j) in outside:
                continue
            p = _automorphism(adj, color, arc, arcs[j])
            if p is None and color[arc[0]] == color[arc[1]]:
                p = _automorphism(adj, color, arc, arcs[j][::-1])
            if p is None or not all((p[a], p[b]) in index for a, b in edges):
                outside.add(find(j))
                continue
            perms.append(p)
            for k, (a, b) in enumerate(arcs):
                merge(k, index[p[a], p[b]])
            outside = {find(r) for r in outside}
    sizes = Counter(find(i) for i in range(len(arcs)))
    return [(arcs[r], size) for r, size in sizes.items()], perms


class _Walker:
    """What every walk of one search shares, built once per search."""

    def __init__(self, g: Graph, cfg: SearchConfig) -> None:
        params = d_params(g.num_edges, cfg.d)
        # the label and difference masks are e + d wide; within the edge
        # cap d <= e, so this bounds only d on a graph without edges
        if params.e + params.d > 2 * SEARCH_MAX_EDGES:
            raise InvalidParametersError(
                f"search is limited to e + d <= {2 * SEARCH_MAX_EDGES}, "
                f"got e = {params.e} and d = {params.d}")
        self.n_labels = params.d * (params.q + 1)
        self.allowed = np.zeros(self.n_labels + 1, dtype=np.bool_)
        self.allowed[list(params.allowed)] = True
        self.adj = adjacency_lists(g)
        self.alpha = cfg.alpha_only

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
        return (np.array(flat, dtype=np.int64), np.array(off, dtype=np.int64),
                np.array(order, dtype=np.int64), self.allowed, self.alpha)

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
        orbits, _ = _arc_orbits(g.edge_indices().tolist(), walker.adj)
        for arc, size in orbits:
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


def engine_accepts(f: Labeling, cfg: SearchConfig) -> bool:
    """Replay a complete labeling through the search's constraint engine.

    Every vertex is forced, in index order, so the labeling is a one-row
    frontier; it passes when it survives the masks at every position.
    """
    walker = _Walker(f.graph, cfg)
    if max(f.values) >= walker.n_labels:  # may not even fit an int64
        return False
    total, _, _ = walker.walk(tuple(range(f.graph.num_vertices)), f.values, 0, 0)
    return total == 1


def cross_validate(f: Labeling, cfg: SearchConfig) -> CheckReport:
    """Require the checker and the constraint engine to agree on f at cfg.d.

    Agreement is a pass (reason "agree-accept" or "agree-reject"); any
    disagreement is an internal consistency failure.
    """
    checker_ok = bool(check_d_graceful(f, cfg.d))
    if checker_ok and cfg.alpha_only:
        checker_ok = f.alpha_cert is not None
    engine_ok = engine_accepts(f, cfg)
    if checker_ok == engine_ok:
        return CheckReport(True, "agree-accept" if checker_ok else "agree-reject")
    return CheckReport(False, "engine-checker-disagreement",
                       (("checker", checker_ok), ("engine", engine_ok)))
