"""Cyclic decompositions of complete multipartite graphs from labelings.

A d-divisible graceful labeling of a graph with e = d * q edges yields a
cyclic decomposition of the complete multipartite graph with q + 1 parts
of size 2dn, modeled on Z_v with v = 2dn(q+1) and parts the residue
classes mod q + 1.  Base block j keeps the labels of the low class and
shifts the high class up by j * d * (q+1); the n base blocks together
meet every difference class in [1, dn(q+1)] that is not a multiple of
q + 1 exactly once, so their v translates partition the edge set.  One
block (n = 1) needs no class split, so a plain labeling suffices there;
for n > 1 the shift argument leans on the alpha boundary lambda of the
labeling's own certificate.  The n base blocks are one read-only
(n, |V|) int64 label array, row j block j, built in one numpy
expression from the mask of the high class, the labels above lambda;
a block's edges are its labels gathered at the graph's edge indices.

verify_decomposition ignores all of that and simply counts every edge of
every translated block into a v x v int64 count matrix, which is the
point: the claim is checked against an independent exhaustive
accounting.  It builds the translates from the base blocks PAIR_BUDGET
edges at a time, never the whole development, and compares the matrix
with the multipartite edge set a few rows at a time, so it holds little
more than the matrix's 8 bytes per v^2; that still makes it a check for
moderate v only.
check_difference_classes is the O(n*e) shortcut certificate, one numpy
pass over the edges of all blocks.  Base block labels lie in [0, v), so
an edge's class is min(c, v - c) for c = |a - b|, with no modulo, and
lies in [0, v/2]; one bincount over v/2 + 1 slots then shows a zero or
forbidden class (a count at a multiple of the part count) and a repeat.
Only a failing input pays for the modulo and the stable argsort (the
labeling checker's _first_fault) that report the first zero, forbidden
or repeated class in block-then-edge order.  Distinct allowed classes
leave one missing exactly when there are fewer of them than allowed
classes, and then the smallest missing one is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .checking import (CheckReport, InvalidParametersError, Labeling, _first_fault,
                       check_d_graceful)
from .constructions import F1, F2, F4, Family
from .grids import Graph, build_grid

# Translated edges gathered, checked and counted at once, and count-matrix
# cells compared at once: this bounds verify_decomposition's working set
# beside its v x v count matrix.
PAIR_BUDGET = 1 << 16


# Largest host graph that construct, decompose and table take on, in
# vertices v = 2dn(q+1) of K_{(q+1) x 2dn} (n = 1 for construct).  It
# bounds every array they build: a labeling's labels and edges, and n
# base blocks' labels, edges and difference classes, each stay below v.
# At the limit construct peaks near 220 MiB and decompose near 400 MiB;
# the inputs the benchmark and the tests use stay below v = 70000.
MAX_V = 4_000_000


@dataclass(frozen=True)
class MultipartiteSpec:
    """Complete multipartite host graph on Z_v: parts are residues mod parts."""

    parts: int
    part_size: int

    @classmethod
    def host(cls, e: int, d: int, n: int) -> MultipartiteSpec:
        """K_{(q+1) x 2dn}, v = 2n(e + d): the host of n base blocks of a
        d-divisible labeling on e = dq edges."""
        return cls(parts=e // d + 1, part_size=2 * d * n)

    @property
    def v(self) -> int:
        return self.parts * self.part_size

    @property
    def edge_count(self) -> int:
        return math.comb(self.v, 2) - self.parts * math.comb(self.part_size, 2)

    def describe(self) -> str:
        return f"K_{{{self.parts}x{self.part_size}}}"


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class Decomposition:
    spec: MultipartiteSpec
    graph: Graph
    d: int
    n: int
    q: int
    blocks: np.ndarray  # (n, |V|) int64, read-only; row j is base block j
    development: np.ndarray | None = None  # set only by develop


def base_blocks(f: Labeling, d: int, n: int) -> Decomposition:
    """The n base blocks induced by a verified labeling, on f.graph.

    The labeling is checked here unless check_d_graceful has already
    passed it for this d (f.passed_d); n > 1 additionally requires its
    alpha certificate (f.alpha_cert) because blocks j > 0 shift the
    whole high class, the labels above the boundary, up by j * d(q+1).
    """
    if n < 1:
        raise InvalidParametersError(f"n must be >= 1, got {n}")
    if d not in f.passed_d:
        report = check_d_graceful(f, d)
        if not report:
            raise ValueError(f"labeling rejected: {report.describe()}")
    spec = MultipartiteSpec.host(f.graph.num_edges, d, n)
    shift = np.arange(n, dtype=np.int64)[:, None] * (d * spec.parts)  # j * d(q+1)
    if n > 1:
        if f.alpha_cert is None:
            raise ValueError("an alpha certificate is required for n > 1")
        shift = shift * (f.array > f.alpha_cert.boundary)
    labels = f.array + shift
    labels.setflags(write=False)
    return Decomposition(spec=spec, graph=f.graph, d=d, n=n, q=spec.parts - 1,
                         blocks=labels)


# Unused by the package; kept because perfbench/tracing.py traces it by name
# and reads development.nbytes, and the dense test reference checks its rows.
def develop(dec: Decomposition) -> Decomposition:
    """All v translates of every base block, as an (n*v, |V|) label array."""
    v = dec.spec.v
    shifts = np.arange(v, dtype=np.int64)
    dev = (dec.blocks[:, None, :] + shifts[None, :, None]) % v
    dev = np.ascontiguousarray(dev.reshape(-1, dec.blocks.shape[1]))
    dev.setflags(write=False)
    return replace(dec, development=dev)


def verify_decomposition(dec: Decomposition) -> CheckReport:
    """Exhaustively verify a decomposition from its base blocks.

    The development is the rows t < len(blocks) * v, row t the translate
    (blocks[t // v] + t % v) mod v; it is never held whole.  About
    PAIR_BUDGET translated edges' worth of rows are built at a time:
    each must map its block injectively and put every edge between two
    parts, and its edges are counted into one v x v int64 count matrix.
    That matrix is then compared with the multipartite edge set,
    PAIR_BUDGET // v rows (at least one) of its upper triangle at a
    time, so the check holds a little over 8 bytes per v^2.  Reasons
    come in the order block-not-injective, illegal-edge,
    duplicate-edge, uncovered-edge, each with its first witness in
    development order (translates) or row-major order (pairs).  Exact,
    no tolerances.
    """
    blocks = dec.blocks
    v = dec.spec.v
    residues = np.arange(v, dtype=np.int64) % dec.spec.parts
    edge_idx = dec.graph.edge_indices()
    counts = np.zeros((v, v), dtype=np.int64)
    illegal = None
    total = blocks.shape[0] * v
    step = max(1, PAIR_BUDGET // max(1, edge_idx.shape[0]))
    for start in range(0, total, step):
        t = np.arange(start, min(start + step, total), dtype=np.int64)
        rows = blocks[t // v]
        rows += (t % v)[:, None]
        rows %= v
        srt = np.sort(rows, axis=1)
        dup = srt[:, 1:] == srt[:, :-1]
        dup_rows = np.flatnonzero(dup.any(axis=1))
        if dup_rows.size:
            row = int(dup_rows[0])
            at = int(np.argmax(dup[row]))
            return CheckReport(False, "block-not-injective", (start + row, int(srt[row, at])))
        if illegal is not None:
            continue  # keep looking for a non-injective block, which comes first
        ends_a = np.take(rows, edge_idx[:, 0], axis=1)  # C order, so ravel is a view
        ends_b = np.take(rows, edge_idx[:, 1], axis=1)
        bad = np.argwhere(residues[ends_a] == residues[ends_b])
        if bad.size:
            row, col = (int(x) for x in bad[0])
            illegal = CheckReport(False, "illegal-edge", (
                start + row, (int(ends_a[row, col]), int(ends_b[row, col]))))
            continue
        _kernels.count_pairs(ends_a.ravel(), ends_b.ravel(), counts)
    if illegal is not None:
        return illegal
    # count_pairs fills only y >= x, so rows [x0, x1) are compared from
    # column x0 on; an over-count anywhere comes before an under-count
    cols = np.arange(v)
    under = None
    step = max(1, PAIR_BUDGET // v)
    for x0 in range(0, v, step):
        xs = cols[x0:x0 + step, None]
        expected = (residues[xs] != residues[x0:]) & (cols[x0:] > xs)
        got = counts[x0:x0 + step, x0:]
        wrong = got != expected
        if not wrong.any():
            continue
        over = np.argwhere(got > expected)
        if over.size:
            x, y = int(over[0, 0]) + x0, int(over[0, 1]) + x0
            return CheckReport(False, "duplicate-edge", ((x, y), int(counts[x, y])))
        if under is None:
            x, y = (int(t) + x0 for t in np.argwhere(wrong)[0])
            under = CheckReport(False, "uncovered-edge", ((x, y),))
    return under if under is not None else CheckReport(True)


def check_difference_classes(dec: Decomposition) -> CheckReport:
    """O(n*e) certificate: base-block difference classes hit the target set.

    The target is every class in [1, v/2] with representative not
    divisible by the part count, each exactly once across all blocks.
    The first violation is reported in block-then-edge order.
    """
    v = dec.spec.v
    parts = dec.spec.parts
    edge_idx = dec.graph.edge_indices()
    # base_blocks puts every label in [0, v), where |a - b| is the
    # difference mod v and no modulo is needed; blocks given with other
    # representatives are reduced first, which changes no class
    blocks = dec.blocks
    if blocks.size and (blocks.min() < 0 or blocks.max() >= v):
        blocks = blocks % v
    ends = np.take(blocks, edge_idx.T, axis=1)
    cls = np.abs(ends[:, 0] - ends[:, 1]).ravel()
    np.minimum(cls, v - cls, out=cls)
    half = v // 2
    counts = np.bincount(cls, minlength=half + 1)
    # slots 0, parts, 2 parts, ... are the zero and forbidden classes
    if counts[::parts].any() or counts.max() > 1:
        pos = _first_fault(cls, cls % parts == 0)
        b_idx, edge = divmod(pos, edge_idx.shape[0])
        c = int(cls[pos])
        if c == 0:
            label = int(dec.blocks[b_idx, edge_idx[edge, 0]])
            return CheckReport(False, "zero-difference", (b_idx, label))
        if c % parts == 0:
            return CheckReport(False, "forbidden-difference-class", (b_idx, c))
        return CheckReport(False, "duplicate-difference-class", (b_idx, c))
    # the classes are now distinct and allowed, so one is missing exactly
    # when there are fewer of them than allowed classes in [1, v/2]
    if cls.size < half - half // parts:
        missing = (counts == 0) & (np.arange(half + 1) % parts != 0)
        return CheckReport(False, "missing-difference-class", (int(np.argmax(missing)),))
    return CheckReport(True)


@dataclass(frozen=True)
class DecompositionTarget:
    """One row of the closing proposition: a host graph one family reaches."""

    family: Family
    d: int
    q: int
    spec: MultipartiteSpec


def proposition_table(k: int, m: int, n: int) -> list[DecompositionTarget]:
    """The three decomposition targets reachable at (k, m, n), one per family.

    Valid for every m >= 2; the m = 2 rows are the prism case.
    """
    if k < 1 or n < 1:
        raise InvalidParametersError(f"need k >= 1 and n >= 1, got k={k}, n={n}")
    if m < 2:
        raise InvalidParametersError(f"m must be >= 2, got {m}")
    e = build_grid(k, m).num_edges
    rows = []
    for family in (F1, F2, F4):
        d = family.divisor(m)
        spec = MultipartiteSpec.host(e, d, n)
        rows.append(DecompositionTarget(family=family, d=d, q=spec.parts - 1, spec=spec))
    return rows
