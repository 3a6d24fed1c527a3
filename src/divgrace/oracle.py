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

Each walk then counts only some of its arc's labelings and multiplies
back (_count_walks).  The automorphisms that fix u and w map the arc's
labelings onto each other, and since labels are distinct only the
identity fixes one: the group acts freely.  So, as in Puget's
lex-leader constraints for all-different problems ("Breaking
symmetries in all different problems", IJCAI 2005), the walk keeps one
labeling per orbit: with O_t the orbit of the t-th vertex under the
automorphisms that fix the vertices before it, the t-th vertex takes
the smallest label in O_t, and the count is multiplied by the product
of the |O_t|.  This holds for any prefix of that chain, so
_stabilizer_chain may stop early.  Rows, max_results and
cross_validate's replay use the unconstrained vertex walk.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import NamedTuple

from . import _kernels
from .checking import (CheckReport, InvalidParametersError, Labeling,
                       check_d_graceful, d_params)
from .grids import Graph, adjacency_lists


@dataclass(frozen=True)
class SearchConfig:
    """Search parameters.

    max_results 0 exhausts the space; the count is then exact and the
    returned labelings are capped at store_limit.  A search stopped by
    max_results keeps every labeling it finds.  store_limit 0 keeps no
    labeling, whatever max_results is.  Neither may be negative.
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
    (max_results and store_limit 0) makes one forced walk per orbit of
    arcs under the graph's automorphisms and arc reversal (one walk on
    the prism, m on any other C_{4k} x P_m).  Its level_sizes[p] sums
    over the walks the partial labelings of the walk's first p + 1
    vertices that passed its masks and symmetry constraints, times the
    orbit size and the factors of the constraints that bind at or before
    p.  No constraint binds at the forced arc, so the first two entries
    are sums of orbit sizes.  Either way the last entry is count.
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

    def reach(roots) -> None:
        head = len(order)  # order[head:] is the queue
        for v in roots:
            seen[v] = True
            order.append(v)
        while head < len(order):
            for u in adj[order[head]]:
                if not seen[u]:
                    seen[u] = True
                    order.append(u)
            head += 1

    reach(first)
    for root in range(len(adj)):
        if not seen[root]:
            reach((root,))
    return order


class _Walk(NamedTuple):
    """A vertex order and its tables: pos[v] is v's position in order,
    and back[p] lists the positions of order[p]'s neighbors before p,
    ascending."""

    order: list[int]
    pos: list[int]
    back: list[list[int]]


def _walk_tables(adj: list[list[int]], order: list[int]) -> _Walk:
    """The tables of the walk along order, a permutation of the
    vertices; the automorphism test, the stabilizer chain, the count's
    constraints and the kernel all read them."""
    pos = [0] * len(order)
    for p, v in enumerate(order):
        pos[v] = p
    return _Walk(order, pos,
                 [sorted(pos[z] for z in adj[v] if pos[z] < p) for p, v in enumerate(order)])


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


# _automorphism's test: a target for the leading vertices of its order
# -> a permutation, or None
_Test = Callable[[Sequence[int]], list[int] | None]


def _automorphism(adj: list[list[int]], color: list[int], walk: _Walk) -> _Test:
    """A test for the automorphisms along walk.order: test(target)
    returns a vertex permutation that maps order[i] to target[i] for
    every i < len(target), keeps color and maps every edge onto an edge,
    or None if there is none.

    Vertices are individualized one at a time along order, a
    breadth-first order from its first two vertices.  A vertex
    with an earlier neighbor z may go to a neighbor of z's image, any
    other to any vertex of its color; the choice must keep color, and
    its neighbors already chosen must be exactly the images of the
    vertex's earlier neighbors (walk.back).  A dead end undoes the last
    choice, so the search misses none.  The permutation found is checked
    against the edge set before it is returned.  The color cells are
    built once, by the first test, and shared by every later one; an
    order that is never tested builds none.
    """
    order, pos, back = walk
    n = len(adj)
    cells: dict[int, list[int]] = {}

    def test(target: Sequence[int]) -> list[int] | None:
        if not cells:
            for v, c in enumerate(color):
                cells.setdefault(c, []).append(v)
        image = [-1] * n  # image[t]: where order[t] goes
        used = [False] * n
        choices = [iter(target[:1])] + [iter(())] * (n - 1)
        t = 0
        while t < n:
            x = order[t]
            for y in choices[t]:
                if (not used[y] and color[y] == color[x]
                        and {z for z in adj[y] if used[z]} == {image[s] for s in back[t]}):
                    image[t] = y
                    used[y] = True
                    t += 1
                    if t < n:
                        choices[t] = iter(target[t:t + 1] if t < len(target) else
                                          adj[image[back[t][0]]] if back[t] else
                                          cells[color[order[t]]])
                    break
            else:
                t -= 1
                if t < 0:
                    return None
                used[image[t]] = False
        perm = [image[p] for p in pos]
        if any({perm[z] for z in adj[v]} != set(adj[perm[v]]) for v in range(n)):
            return None
        return perm

    return test


def _arc_orbits(edges: list[list[int]], adj: list[list[int]], color: list[int]
                ) -> tuple[list[tuple[tuple[int, int], int, _Walk, _Test]],
                           list[list[int]]]:
    """Orbits of the 2e arcs under reversal u -> w to w -> u and the
    graph's automorphisms, with those automorphisms; color is _refine(adj).

    Returns ([(arc, size, walk, test), ...], [permutation, ...]); each
    orbit is named by its first arc in canonical edge order, forward
    arcs first, and comes with the tables of the breadth-first walk from
    that arc and the _automorphism test along it, which the orbit's walk
    reuses.
    Arcs whose ends differ in refined color lie in different orbits.
    The first arc of each orbit is tried against every arc of the same
    colors that is neither in its orbit yet nor in a class already shown
    to lie outside it (by trying the arc and, if its ends share a color,
    its reverse); each permutation found merges every arc with its image.
    Any set of checked automorphisms gives orbits whose arcs have equal
    counts, so one missed would cost walks, not exactness.
    """
    arcs = [(u, w) for u, w in edges] + [(w, u) for u, w in edges]
    index = {arc: i for i, arc in enumerate(arcs)}
    by_color: dict[tuple[int, int], list[int]] = {}
    for i, (u, w) in enumerate(arcs):
        by_color.setdefault((color[u], color[w]), []).append(i)
    # the arcs merged so far fall into classes: label[i] names arc i's
    # class and members[c] lists class c; a merge relabels the smaller
    # one.  An arc and its reverse start out merged.
    e = len(edges)
    label = list(range(e)) * 2
    members = [[i, i + e] for i in range(e)] + [[] for _ in range(e)]

    def merge(a: int, b: int) -> None:
        if len(members[a]) < len(members[b]):
            a, b = b, a
        for k in members[b]:
            label[k] = a
        members[a] += members[b]
        members[b] = []

    orbits = []
    perms: list[list[int]] = []
    complete: set[int] = set()  # the labels of the orbits found; no merge reaches them
    for i, arc in enumerate(arcs):
        if label[i] in complete:
            continue
        walk = _walk_tables(adj, _bfs_order(adj, arc))
        test = _automorphism(adj, color, walk)
        outside: list[int] = []  # an arc of each class shown to lie outside
        outside_labels: set[int] = set()
        for j in by_color[color[arc[0]], color[arc[1]]]:
            if j <= i or label[j] == label[i] or label[j] in outside_labels:
                continue
            p = test(arcs[j])
            if p is None and color[arc[0]] == color[arc[1]]:
                p = test(arcs[j][::-1])
            if p is None:
                outside.append(j)
                outside_labels.add(label[j])
                continue
            perms.append(p)
            # an arc's reverse is in its class, and maps onto its image's
            for k, (a, b) in enumerate(edges):
                x, y = label[k], label[index[p[a], p[b]]]
                if x != y:
                    merge(x, y)
            outside_labels = {label[r] for r in outside}
        complete.add(label[i])
        orbits.append((arc, len(members[label[i]]), walk, test))
    return orbits, perms


def _stabilizer_chain(adj: list[list[int]], color: list[int], walk: _Walk,
                      test: _Test) -> list[list[int]]:
    """[O_2, O_3, ...]: O_t is the orbit of order[t] under the
    automorphisms that fix order[0..t-1], order[t] first; order is
    walk.order and test is _automorphism(adj, color, walk).

    Each automorphism that fixes order[0..t-1] keeps color and the
    neighbors that a vertex has among order[0..t-1], so only the later
    vertices that agree with order[t] on both are candidates.  Each is
    tested by one test call that fixes order[0..t-1] and maps order[t]
    onto it.  Every O_t returned is complete.  The chain stops at the
    first failed test, where the cell is coarser than the orbits: a
    shorter chain is still exact, and a failed test must exhaust its
    backtracking.
    """
    order, pos, back = walk
    chain = []
    for t in range(2, len(order)):
        x = order[t]
        orbit = [x]
        for y in adj[order[back[t][0]]] if back[t] else order[t + 1:]:
            if (pos[y] > t and color[y] == color[x]
                    and sorted(pos[z] for z in adj[y] if pos[z] < t) == back[t]):
                if test(order[:t] + [y]) is None:
                    return chain
                orbit.append(y)
        chain.append(orbit)
    return chain


def _count_walks(edges: list[list[int]], adj: list[list[int]]
                 ) -> list[tuple[int, _Walk, list[int], list[int]]]:
    """The forced walks of a count, one per orbit of arcs: (orbit size,
    walk, smaller, factor).

    walk holds the breadth-first order from the orbit's first arc,
    smaller is dfs_search's symmetry constraint for the walk along it,
    and factor[p] is the product of the factors of the constraints that
    bind at positions 0..p, so factor[-1] times the walk's count is the
    arc's count.  The stabilizer chain asks f(order[t]) < f(y) for every
    other y in O_t, at y's position and from the last t whose orbit
    holds y (the earlier ones follow), for a factor |O_t|.
    """
    color = _refine(adj)
    walks = []
    for arc, size, walk, test in _arc_orbits(edges, adj, color)[0]:
        n = len(walk.order)
        smaller = [-1] * n
        binds: list[tuple[int, int]] = []  # (position, factor)
        for t, orbit in enumerate(_stabilizer_chain(adj, color, walk, test), start=2):
            if len(orbit) > 1:
                at = [walk.pos[y] for y in orbit[1:]]
                for p in at:
                    smaller[p] = t
                binds.append((min(at), len(orbit)))
        # Python ints: the factors of a star alone pass 2**63 at 22 leaves
        factor = [1] * n
        for at, k in binds:
            factor[at:] = [f * k for f in factor[at:]]
        walks.append((size, walk, smaller, factor))
    return walks


def _allowed(g: Graph, cfg: SearchConfig) -> list[bool]:
    """dfs_search's allowed for a search of g under cfg: allowed[delta]
    says the edge difference delta may appear, for delta up to the label
    count d(q + 1)."""
    params = d_params(g.num_edges, cfg.d)
    # the label and difference masks are e + d wide, and the kernel
    # holds labels as int16; within the edge cap d <= e, so this
    # bounds only d on a graph without edges
    if params.e + params.d > 2 * SEARCH_MAX_EDGES:
        raise InvalidParametersError(
            f"search is limited to e + d <= {2 * SEARCH_MAX_EDGES}, "
            f"got e = {params.e} and d = {params.d}")
    allowed = params.allowed
    return [delta in allowed for delta in range(params.d * (params.q + 1) + 1)]


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
    allowed = _allowed(g, cfg)
    adj = adjacency_lists(g)
    if cfg.max_results == 0 and cfg.store_limit == 0 and g.num_edges > 0:
        forced = (0, len(allowed) - 2)  # 0 and D, the largest label
        total, level_sizes = 0, [0] * g.num_vertices
        for size, walk, smaller, factor in _count_walks(g.edge_indices().tolist(), adj):
            count, _, levels = _kernels.dfs_search(walk.back, walk.order, allowed,
                                                   cfg.alpha_only, forced, 0, 0, smaller)
            total += size * factor[-1] * count
            level_sizes = [a + size * f * x for a, f, x in zip(level_sizes, factor, levels)]
        return SearchResult(labelings=(), count=total, exhaustive=True,
                            level_sizes=tuple(level_sizes))
    store_cap = (0 if cfg.store_limit == 0 else
                 cfg.max_results if cfg.max_results > 0 else cfg.store_limit)
    walk = _walk_tables(adj, _bfs_order(adj))
    total, rows, level_sizes = _kernels.dfs_search(walk.back, walk.order, allowed,
                                                   cfg.alpha_only, (), cfg.max_results,
                                                   store_cap)
    exhaustive = cfg.max_results == 0 or total < cfg.max_results
    labelings = tuple(Labeling(g, row) for row in rows)
    return SearchResult(labelings=labelings, count=total, exhaustive=exhaustive,
                        level_sizes=tuple(level_sizes))


def engine_accepts(f: Labeling, cfg: SearchConfig) -> bool:
    """Replay a complete labeling through the search's constraint engine.

    Every vertex is forced, in index order, so the kernel replays the
    labeling label by label with the scalar form of its masks' tests; it
    passes when every position passes them.
    """
    allowed = _allowed(f.graph, cfg)
    walk = _walk_tables(adjacency_lists(f.graph), list(range(f.graph.num_vertices)))
    total, _, _ = _kernels.dfs_search(walk.back, walk.order, allowed, cfg.alpha_only,
                                      f.values, 0, 0)
    return total == 1


def cross_validate(f: Labeling, cfg: SearchConfig) -> CheckReport:
    """Require the checker and the constraint engine to agree on f at cfg.d.

    Agreement is a pass (reason "agree-accept" or "agree-reject"); any
    disagreement is an internal consistency failure.
    """
    checker_ok = bool(check_d_graceful(f, cfg.d))
    if checker_ok and cfg.alpha_only:
        checker_ok = f.alpha_boundary is not None
    engine_ok = engine_accepts(f, cfg)
    if checker_ok == engine_ok:
        return CheckReport(True, "agree-accept" if checker_ok else "agree-reject")
    return CheckReport(False, "engine-checker-disagreement",
                       (("checker", checker_ok), ("engine", engine_ok)))
