"""Loop versions of the base blocks and the difference-class
certificate, and the dense exhaustive verifier.

base_blocks builds the blocks the way divgrace.base_blocks once did,
from a boundary passed beside the labeling: block j keeps every vertex
of the low class {u : f(u) <= boundary} and shifts every other one up
by j * d(q+1).  The package instead shifts the labels above the
labeling's own boundary; the two must give the same blocks.

check_difference_classes walks the blocks and their edges one at a time
through a set, in the order the clauses are stated, so it serves as the
reference that the numpy divgrace.check_difference_classes must agree
with, verdict and witness alike.  A block is one row of the blocks array, and its edges
are its labels at the graph's edge indices.

verify_decomposition is the whole-development verifier that
divgrace.verify_decomposition replaced: it checks every translate at
once and counts into a dense v x v matrix beside a dense matrix of the
expected edges.  The streaming verifier must give the same verdict and
witness, and peak at well under its memory.
"""

import numpy as np

from divgrace import CheckReport, _kernels


def base_blocks(f, boundary, d, n):
    span = d * (f.graph.num_edges // d + 1)
    low = {u for u, x in enumerate(f.values) if x <= boundary}
    return [[x if u in low else x + j * span for u, x in enumerate(f.values)]
            for j in range(n)]


def check_difference_classes(dec):
    v = dec.spec.v
    parts = dec.spec.parts
    edge_idx = dec.graph.edge_indices()
    seen = set()
    for b_idx, labels in enumerate(dec.blocks.tolist()):
        for u, w in edge_idx:
            a, b = labels[int(u)], labels[int(w)]
            cls = min((a - b) % v, (b - a) % v)
            if cls == 0:
                return CheckReport(False, "zero-difference", (b_idx, a))
            if cls % parts == 0:
                return CheckReport(False, "forbidden-difference-class", (b_idx, cls))
            if cls in seen:
                return CheckReport(False, "duplicate-difference-class", (b_idx, cls))
            seen.add(cls)
    expected = {c for c in range(1, v // 2 + 1) if c % parts != 0}
    if seen != expected:
        return CheckReport(False, "missing-difference-class", (min(expected - seen),))
    return CheckReport(True)


def verify_decomposition(dec):
    """Checks every translated block for an injective vertex map and legal
    edges, then counts all block edges into a dense v x v int64 count
    matrix and compares it with a v x v int64 matrix of the multipartite
    edge set, about 36 bytes per v^2 in all.
    """
    if dec.development is None:
        raise ValueError("decomposition not developed; call develop() first")
    dev = dec.development
    v = dec.spec.v
    parts = dec.spec.parts
    srt = np.sort(dev, axis=1)
    dup_rows = np.flatnonzero(np.any(srt[:, 1:] == srt[:, :-1], axis=1))
    if dup_rows.size:
        row = int(dup_rows[0])
        dup_at = int(np.flatnonzero(srt[row, 1:] == srt[row, :-1])[0])
        return CheckReport(False, "block-not-injective", (row, int(srt[row, dup_at])))
    edge_idx = dec.graph.edge_indices()
    ends_a = dev[:, edge_idx[:, 0]]
    ends_b = dev[:, edge_idx[:, 1]]
    illegal = np.argwhere(ends_a % parts == ends_b % parts)
    if illegal.size:
        row, col = (int(x) for x in illegal[0])
        return CheckReport(False, "illegal-edge",
                           (row, (int(ends_a[row, col]), int(ends_b[row, col]))))
    counts = np.zeros((v, v), dtype=np.int64)
    _kernels.count_pairs(np.ascontiguousarray(ends_a.ravel()),
                         np.ascontiguousarray(ends_b.ravel()), counts)
    residues = np.arange(v, dtype=np.int64) % parts
    expected = np.triu((residues[:, None] != residues[None, :]).astype(np.int64), 1)
    over = np.argwhere(counts > expected)
    if over.size:
        x, y = (int(t) for t in over[0])
        return CheckReport(False, "duplicate-edge", ((x, y), int(counts[x, y])))
    under = np.argwhere(counts < expected)
    if under.size:
        x, y = (int(t) for t in under[0])
        return CheckReport(False, "uncovered-edge", ((x, y),))
    return CheckReport(True)
