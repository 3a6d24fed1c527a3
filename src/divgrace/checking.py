"""Divisible graceful labelings and the alpha boundary condition.

A labeling of a graph with e = d * q edges is d-divisible graceful when it
is injective into [0, d*(q+1) - 1] and the absolute edge differences use
every value of [1, d*(q+1)] except the multiples of q + 1, each exactly
once.  The allowed values split into d blocks of q consecutive integers.
With d = 1 this is the classical graceful condition; with d = e the
differences are exactly the odd numbers below 2e.

The alpha condition asks, for a bipartite graph, that every label on one
color class stays strictly below every label on the other class.  The
largest label on the low class is the boundary of the labeling.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grids import Graph, GridGraph, two_coloring


class InvalidParametersError(ValueError):
    """Raised when e, d do not describe a valid divisibility split (d must divide e)."""


class NotBipartiteError(ValueError):
    """Raised when an alpha question is asked of a non-bipartite graph."""


@dataclass(frozen=True)
class DParams:
    """Derived constants for a d-divisible labeling problem on e = d * q edges."""

    e: int
    d: int
    q: int

    @property
    def max_label(self) -> int:
        return self.d * (self.q + 1) - 1

    @property
    def forbidden(self) -> frozenset[int]:
        return frozenset((self.q + 1) * t for t in range(1, self.d + 1))

    @property
    def allowed(self) -> frozenset[int]:
        return frozenset(range(1, self.d * (self.q + 1) + 1)) - self.forbidden


def d_params(e: int, d: int) -> DParams:
    if e < 0 or d < 1:
        raise InvalidParametersError(f"need e >= 0 and d >= 1, got e={e}, d={d}")
    if e % d != 0:
        raise InvalidParametersError(f"d={d} does not divide e={e}")
    return DParams(e=e, d=d, q=e // d)


@dataclass(frozen=True)
class Labeling:
    """A total vertex labeling, stored in canonical vertex order."""

    graph: Graph
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.graph.num_vertices
        if len(self.values) != n:
            raise ValueError(f"expected {n} labels, got {len(self.values)}")
        try:
            vals = tuple(map(operator.index, self.values))
        except TypeError as exc:
            raise ValueError(f"labels must be integers: {exc}") from None
        if min(vals, default=0) < 0:
            raise ValueError("labels must be nonnegative")
        object.__setattr__(self, "values", vals)

    def layer(self, i: int) -> tuple[int, ...]:
        if not isinstance(self.graph, GridGraph):
            raise TypeError("layers are only defined for grid graphs")
        g = self.graph
        base = g.vertex_index((i, 1))
        return self.values[base : base + g.ring_len]

    @classmethod
    def from_rows(cls, grid: GridGraph, rows: Sequence[Sequence[int]]) -> "Labeling":
        if len(rows) != grid.m or any(len(r) != grid.ring_len for r in rows):
            raise ValueError("rows must be m sequences of length 4k")
        flat: list[int] = []
        for r in rows:
            flat.extend(r)
        return cls(grid, tuple(flat))


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a verification pass: the first violated clause, if any."""

    ok: bool
    reason: str | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "pass"
        if self.witness is None:
            return self.reason or "fail"
        return f"{self.reason}: {self.witness}"


@dataclass(frozen=True)
class AlphaCert:
    """Witness of the alpha condition: the class split and its boundary."""

    low: frozenset[int]
    high: frozenset[int]
    boundary: int


def _label_array(f: Labeling) -> np.ndarray:
    """The labels as int64, or as Python ints when one does not fit in int64."""
    try:
        return np.array(f.values, dtype=np.int64)
    except OverflowError:
        return np.array(f.values, dtype=object)


def _first_repeat(values: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one; len(values) if none."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if repeats.size else len(values)


def check_d_graceful(g: Graph, f: Labeling, d: int) -> CheckReport:
    """Check the d-divisible graceful condition, reporting the first violation.

    Clause order: label range and injectivity by vertex index, then the
    difference multiset by canonical edge order.  Witnesses carry
    canonical vertex indices and the offending values.
    """
    params = d_params(g.num_edges, d)
    vals = f.values
    n = len(vals)
    if n != g.num_vertices:
        return CheckReport(False, "wrong-vertex-count", (n, g.num_vertices))
    labels = _label_array(f)
    over = np.flatnonzero(labels > params.max_label)
    first_over = int(over[0]) if over.size else n
    first_dup = _first_repeat(labels)
    if first_over < first_dup:
        return CheckReport(False, "label-out-of-range",
                           (first_over, vals[first_over], params.max_label))
    if first_dup < n:
        lab = vals[first_dup]
        return CheckReport(False, "duplicate-label", (vals.index(lab), first_dup, lab))
    edges = g.edge_indices()
    deltas = np.abs(labels[edges[:, 0]] - labels[edges[:, 1]])
    width = params.q + 1
    top = params.d * width
    # A repeated forbidden difference is forbidden first, at its earlier edge.
    bad = np.flatnonzero((deltas < 1) | (deltas > top) | (deltas % width == 0))
    first_bad = int(bad[0]) if bad.size else len(deltas)
    first_rep = _first_repeat(deltas)
    if first_bad < first_rep:
        u, w = (int(x) for x in edges[first_bad])
        return CheckReport(False, "forbidden-difference", ((u, w), int(deltas[first_bad])))
    if first_rep < len(deltas):
        u, w = (int(x) for x in edges[first_rep])
        return CheckReport(False, "duplicate-difference", ((u, w), int(deltas[first_rep])))
    hit = np.zeros(top + 1, dtype=bool)
    hit[deltas] = True
    missing = np.flatnonzero(~hit & (np.arange(top + 1) % width != 0))
    if missing.size:
        return CheckReport(False, "missing-difference", (int(missing[0]),))
    return CheckReport(True)


def check_alpha(g: Graph, f: Labeling) -> AlphaCert | None:
    """Try both orientations of the canonical 2-coloring; None if neither works.

    Raises NotBipartiteError for non-bipartite input, which is a different
    failure than a boundary violation.
    """
    color = two_coloring(g)
    if color is None:
        raise NotBipartiteError("graph is not bipartite")
    labels = _label_array(f)
    classes = (np.flatnonzero(color == 0), np.flatnonzero(color == 1))
    for low, high in (classes, classes[::-1]):
        max_low = int(labels[low].max()) if low.size else -1
        if high.size == 0 or max_low < labels[high].min():
            return AlphaCert(low=frozenset(low.tolist()), high=frozenset(high.tolist()),
                             boundary=max_low)
    return None
