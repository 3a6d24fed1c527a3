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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .checking import (CheckReport, Labeling, NotBipartiteError, check_alpha,
                       check_d_graceful, d_params)
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
    max_results counts only the part it walked); the last entry is count.
    """

    labelings: tuple[Labeling, ...]
    count: int
    exhaustive: bool
    level_sizes: tuple[int, ...]


def _bfs_order(adj: list[list[int]]) -> list[int]:
    n = len(adj)
    seen = [False] * n
    order: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in adj[v]:
                if not seen[u]:
                    seen[u] = True
                    queue.append(u)
    return order


@dataclass(frozen=True)
class _Arrays:
    nbr_flat: np.ndarray
    nbr_off: np.ndarray
    order: np.ndarray
    n_labels: int
    allowed: np.ndarray
    side: np.ndarray


def _prepare(g: Graph, cfg: SearchConfig) -> _Arrays:
    params = d_params(g.num_edges, cfg.d)
    n_labels = params.d * (params.q + 1)
    adj = adjacency_lists(g)
    order = _bfs_order(adj)
    pos_of = {v: p for p, v in enumerate(order)}
    flat: list[int] = []
    off = [0]
    for p, v in enumerate(order):
        earlier = sorted(pos_of[u] for u in adj[v] if pos_of[u] < p)
        flat.extend(earlier)
        off.append(len(flat))
    allowed = np.zeros(n_labels + 1, dtype=np.bool_)
    for delta in params.allowed:
        allowed[delta] = True
    if cfg.alpha_only:
        color = two_coloring(g)
        if color is None:
            raise NotBipartiteError("alpha search requires a bipartite graph")
        side = np.array([color[v] for v in order], dtype=np.int64)
    else:
        side = np.zeros(len(order), dtype=np.int64)
    return _Arrays(
        nbr_flat=np.array(flat, dtype=np.int64),
        nbr_off=np.array(off, dtype=np.int64),
        order=np.array(order, dtype=np.int64),
        n_labels=n_labels,
        allowed=allowed,
        side=side,
    )


def search(g: Graph, cfg: SearchConfig) -> SearchResult:
    """Enumerate d-divisible graceful labelings of g under cfg.

    Identical configurations produce identical results, including order.
    """
    arrays = _prepare(g, cfg)
    store_cap = cfg.max_results if cfg.max_results > 0 else cfg.store_limit
    total, rows, level_sizes = _kernels.dfs_search(
        arrays.nbr_flat, arrays.nbr_off, arrays.order, arrays.allowed,
        cfg.alpha_only, arrays.side, np.empty(0, dtype=np.int64),
        cfg.max_results, store_cap)
    exhaustive = cfg.max_results == 0 or total < cfg.max_results
    labelings = tuple(Labeling(g, tuple(row)) for row in rows.tolist())
    return SearchResult(labelings=labelings, count=total, exhaustive=exhaustive,
                        level_sizes=tuple(level_sizes.tolist()))


def engine_accepts(g: Graph, f: Labeling, cfg: SearchConfig) -> bool:
    """Replay a complete labeling through the search's constraint engine.

    The labeling is a one-row frontier whose every position is forced;
    it passes when it survives the masks at every position.
    """
    arrays = _prepare(g, cfg)
    values = [f.values[v] for v in arrays.order]
    if max(values) >= arrays.n_labels:  # may not even fit an int64
        return False
    total, _, _ = _kernels.dfs_search(
        arrays.nbr_flat, arrays.nbr_off, arrays.order, arrays.allowed,
        cfg.alpha_only, arrays.side, np.array(values, dtype=np.int64),
        cfg.max_results, 0)
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
