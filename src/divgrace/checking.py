"""Divisible graceful labelings and the alpha boundary condition.

A labeling of a graph with e = d * q edges is d-divisible graceful when it
is injective into [0, d*(q+1) - 1] and the absolute edge differences use
every value of [1, d*(q+1)] except the multiples of q + 1, each exactly
once.  The allowed values split into d blocks of q consecutive integers.
With d = 1 this is the classical graceful condition; with d = e the
differences are exactly the odd numbers below 2e.

The alpha condition is Rosa's: some boundary lambda has
min f(u) <= lambda < max f(u) on every edge uw.  The smallest such
lambda is the largest lower end of an edge, and it is the whole
certificate: the low class is {u : f(u) <= lambda}, the high class the
rest of the vertices.  The condition makes the low and high classes a
proper 2-coloring, so a graph that is not bipartite has no
alpha-labeling.

A Labeling holds its graph and its labels as one read-only int64
array, the only stored form, so the checkers take the labeling alone
and work on that array: neither builds a Python object per label.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Sequence
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


def _int_array(ints: Sequence[int]) -> np.ndarray:
    """Python ints, already checked to be ints, as one int64 array; dtype
    object when one does not fit in int64."""
    try:
        return np.array(ints, dtype=np.int64)
    except OverflowError:
        return np.array(ints, dtype=object)


@dataclass(frozen=True, eq=False, init=False)
class Labeling:
    """A total vertex labeling, stored in canonical vertex order.

    The labels are held once, as the read-only int64 array `array` (dtype
    object when a label does not fit in int64), which the checkers,
    base_blocks and the certificate writer read.  Labeling(graph, labels)
    takes any sequence of integers or an integer array, and copies it, so
    the labeling never shares memory with a caller's array.  `values` is
    the same labels as a tuple of Python ints, built on first use.
    """

    graph: Graph
    array: np.ndarray

    def __init__(self, graph: Graph, values) -> None:
        n = graph.num_vertices
        if len(values) != n:
            raise ValueError(f"expected {n} labels, got {len(values)}")
        if isinstance(values, np.ndarray) and values.dtype == np.int64 and values.ndim == 1:
            array = values.copy()
        else:
            # each label is taken as an int before any conversion to int64,
            # which would cut 5.5 down to 5
            try:
                array = _int_array(list(map(operator.index, values)))
            except TypeError as exc:
                raise ValueError(f"labels must be integers: {exc}") from None
        if n and array.min() < 0:
            raise ValueError("labels must be nonnegative")
        array.setflags(write=False)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "array", array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Labeling):
            return NotImplemented
        return self.graph == other.graph and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.graph, self.values))

    @functools.cached_property
    def values(self) -> tuple[int, ...]:
        """The labels as a tuple of Python ints, built on first use and kept."""
        return tuple(self.array.tolist())

    @functools.cached_property
    def passed_d(self) -> set[int]:
        """The divisors d for which check_d_graceful has passed this
        labeling; base_blocks reads it to skip a second check."""
        return set()

    @functools.cached_property
    def alpha_boundary(self) -> int | None:
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


def _first_fault(values: np.ndarray, bad: np.ndarray) -> int:
    """Index of the first entry that the mask bad flags or that equals an
    earlier entry; len(values) if none."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    faults = bad.copy()
    faults[order[1:][ordered[1:] == ordered[:-1]]] = True
    return int(np.argmax(faults)) if faults.any() else len(values)


def _has_repeat(values: np.ndarray, bound: int) -> bool:
    """Whether two entries agree, for values already known to lie in [0, bound).

    One bincount over the range when it is small against the entry
    count, a sort otherwise: the range is at most 2e + 1 wide when the
    graph has e > 0 edges, but d on an edgeless one, whatever d is.
    """
    if bound > 8 * len(values):
        ordered = np.sort(values)
        return bool((ordered[1:] == ordered[:-1]).any())
    return int(np.bincount(values, minlength=bound).max()) > 1


def check_d_graceful(f: Labeling, d: int) -> CheckReport:
    """Check the d-divisible graceful condition on f.graph, reporting the first violation.

    Clause order: label range and injectivity by vertex index, then the
    difference multiset by canonical edge order.  Witnesses carry
    canonical vertex indices and the offending values.  Repeats are
    found by one pass over the checked range: labels in [0, max_label]
    (see _has_repeat), then differences in [1, max_label], whose one
    bincount also shows a forbidden difference as a count at a multiple
    of q + 1.  Only a failing input pays for the modulo and the stable
    argsort that locate its first witness.
    A pass is recorded in f.passed_d.
    """
    params = d_params(f.graph.num_edges, d)
    labels = f.array
    if labels.max() > params.max_label or _has_repeat(labels, params.max_label + 1):
        over = labels > params.max_label
        i = _first_fault(labels, over)
        if over[i]:
            return CheckReport(False, "label-out-of-range",
                               (i, int(labels[i]), params.max_label))
        lab = int(labels[i])
        first = int(np.argmax(labels == lab))
        return CheckReport(False, "duplicate-label", (first, i, lab))
    edges = f.graph.edge_indices()
    deltas = np.abs(labels[edges[:, 0]] - labels[edges[:, 1]])
    # The labels are distinct and in range here, so every difference lies in
    # [1, max_label], below 2e, and one bincount over that range counts them
    # all; only a multiple of q + 1 is forbidden.  A repeated forbidden
    # difference is forbidden first, at its earlier edge.
    step = params.q + 1
    # an edgeless graph has no differences, and its labels may not fit int64
    counts = np.bincount(deltas) if deltas.size else np.zeros(1, dtype=np.int64)
    if counts[step::step].any() or counts.max() > 1:
        forbidden = deltas % step == 0
        i = _first_fault(deltas, forbidden)
        u, w = (int(x) for x in edges[i])
        reason = "forbidden-difference" if forbidden[i] else "duplicate-difference"
        return CheckReport(False, reason, ((u, w), int(deltas[i])))
    # The e differences are now distinct and allowed, and there are d*q = e
    # allowed values, so none of them is missing.
    f.passed_d.add(d)
    return CheckReport(True)


def check_alpha(f: Labeling) -> int | None:
    """Rosa's alpha condition on f.graph: the boundary lambda, or None if
    no boundary works.

    The boundary is the largest lower end of an edge, or the largest
    label on a graph without edges, where every vertex is low.  It may
    be 0, so test the answer with `is None`.
    """
    labels = f.array
    edges = f.graph.edge_indices()
    ends = labels[edges[:, 0]], labels[edges[:, 1]]
    lower, upper = np.minimum(*ends), np.maximum(*ends)
    boundary = lower.max() if lower.size else labels.max()
    if upper.size and boundary >= upper.min():
        return None
    return int(boundary)
