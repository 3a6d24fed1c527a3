"""Divisible graceful labelings and the alpha boundary condition.

A labeling of a graph with e = d * q edges is d-divisible graceful when it
is injective into [0, d*(q+1) - 1] and the absolute edge differences use
every value of [1, d*(q+1)] except the multiples of q + 1, each exactly
once.  The allowed values split into d blocks of q consecutive integers.
With d = 1 this is the classical graceful condition; with d = e the
differences are exactly the odd numbers below 2e.

The alpha condition is Rosa's: some boundary lambda has
min f(u) <= lambda < max f(u) on every edge uw.  The smallest such
lambda is the largest lower end of an edge.  An AlphaCert holds the
low class {u : f(u) <= lambda} and lambda; the high class is the rest
of the vertices.  The condition makes the low and high classes a proper
2-coloring, so a graph that is not bipartite has no alpha-labeling.  A
Labeling holds its graph, so the checkers take the labeling alone.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .grids import Graph, GridGraph


class InvalidParametersError(ValueError):
    """Raised when e, d do not describe a valid divisibility split (d must divide e)."""


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

    @functools.cached_property
    def array(self) -> np.ndarray:
        """The labels as a read-only int64 array, built on first use and kept.

        Python ints (dtype object) when one does not fit in int64.  The
        checkers and base_blocks read it instead of converting values.
        """
        try:
            array = np.array(self.values, dtype=np.int64)
        except OverflowError:
            array = np.array(self.values, dtype=object)
        array.setflags(write=False)
        return array

    @functools.cached_property
    def passed_d(self) -> set[int]:
        """The divisors d for which check_d_graceful has passed this
        labeling; base_blocks reads it to skip a second check."""
        return set()

    @functools.cached_property
    def alpha_cert(self) -> AlphaCert | None:
        """check_alpha's answer for this labeling, found on first use and
        kept; construct's own check fills it, so the certificate that
        construct and table then build needs no second check."""
        return check_alpha(self)

    def layer(self, i: int) -> tuple[int, ...]:
        if not isinstance(self.graph, GridGraph):
            raise TypeError("layers are only defined for grid graphs")
        g = self.graph
        base = g.vertex_index((i, 1))
        return self.values[base : base + g.ring_len]


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
    """Witness of the alpha condition: the low class and its boundary.

    The high class is every other vertex; it is not stored.
    """

    low: frozenset[int]
    boundary: int


def _first_repeat(values: np.ndarray) -> int:
    """Index of the first entry equal to an earlier one; len(values) if none."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    repeats = order[1:][ordered[1:] == ordered[:-1]]
    return int(repeats.min()) if repeats.size else len(values)


def _has_repeat(values: np.ndarray, bound: int) -> bool:
    """Whether two entries agree, for values already known to lie in [0, bound)."""
    return int(np.bincount(values, minlength=bound).max()) > 1


def check_d_graceful(f: Labeling, d: int) -> CheckReport:
    """Check the d-divisible graceful condition on f.graph, reporting the first violation.

    Clause order: label range and injectivity by vertex index, then the
    difference multiset by canonical edge order.  Witnesses carry
    canonical vertex indices and the offending values.  Repeats are
    found by one bincount over the checked range, labels in
    [0, max_label] and differences in [1, d(q+1)]; only a failing input
    pays for the stable argsort that locates its first witness.  A pass
    is recorded in f.passed_d.
    """
    params = d_params(f.graph.num_edges, d)
    vals = f.values
    n = len(vals)
    labels = f.array
    over = np.flatnonzero(labels > params.max_label)
    first_over = int(over[0]) if over.size else n
    if over.size or _has_repeat(labels, params.max_label + 1):
        first_dup = _first_repeat(labels)
        if first_over < first_dup:
            return CheckReport(False, "label-out-of-range",
                               (first_over, vals[first_over], params.max_label))
        lab = vals[first_dup]
        return CheckReport(False, "duplicate-label", (vals.index(lab), first_dup, lab))
    edges = f.graph.edge_indices()
    deltas = np.abs(labels[edges[:, 0]] - labels[edges[:, 1]])
    # The labels are distinct and in range here, so every difference lies in
    # [1, max_label] and only a multiple of q + 1 is forbidden.  A repeated
    # forbidden difference is forbidden first, at its earlier edge.
    bad = np.flatnonzero(deltas % (params.q + 1) == 0)
    if bad.size or _has_repeat(deltas, params.d * (params.q + 1) + 1):
        first_bad = int(bad[0]) if bad.size else len(deltas)
        first_rep = _first_repeat(deltas)
        if first_bad < first_rep:
            u, w = (int(x) for x in edges[first_bad])
            return CheckReport(False, "forbidden-difference",
                               ((u, w), int(deltas[first_bad])))
        u, w = (int(x) for x in edges[first_rep])
        return CheckReport(False, "duplicate-difference", ((u, w), int(deltas[first_rep])))
    # The e differences are now distinct and allowed, and there are d*q = e
    # allowed values, so none of them is missing.
    f.passed_d.add(d)
    return CheckReport(True)


def check_alpha(f: Labeling) -> AlphaCert | None:
    """Rosa's alpha condition on f.graph; None if no boundary works.

    The boundary is the largest lower end of an edge, or the largest
    label on a graph without edges, where every vertex is low.
    """
    labels = f.array
    edges = f.graph.edge_indices()
    ends = labels[edges[:, 0]], labels[edges[:, 1]]
    lower, upper = np.minimum(*ends), np.maximum(*ends)
    boundary = lower.max() if lower.size else labels.max()
    if upper.size and boundary >= upper.min():
        return None
    return AlphaCert(low=frozenset(np.flatnonzero(labels <= boundary).tolist()),
                     boundary=int(boundary))
