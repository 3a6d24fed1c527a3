"""Loop versions of the d-divisible graceful and alpha checkers.

These walk the labels and edges one at a time in the order the clauses
are stated, so they serve as the reference that the vectorised checkers
in divgrace.checking must agree with, verdict and witness alike.
"""

import numpy as np

from divgrace import AlphaCert, CheckReport, NotBipartiteError, d_params, two_coloring


def check_d_graceful(g, f, d):
    params = d_params(g.num_edges, d)
    if len(f.values) != g.num_vertices:
        return CheckReport(False, "wrong-vertex-count", (len(f.values), g.num_vertices))
    seen = {}
    for idx, lab in enumerate(f.values):
        if lab > params.max_label:
            return CheckReport(False, "label-out-of-range", (idx, lab, params.max_label))
        if lab in seen:
            return CheckReport(False, "duplicate-label", (seen[lab], idx, lab))
        seen[lab] = idx
    allowed = params.allowed
    used = set()
    vals = f.values
    for u, w in g.edge_indices():
        u = int(u)
        w = int(w)
        delta = abs(vals[u] - vals[w])
        if delta not in allowed:
            return CheckReport(False, "forbidden-difference", ((u, w), delta))
        if delta in used:
            return CheckReport(False, "duplicate-difference", ((u, w), delta))
        used.add(delta)
    if used != allowed:
        missing = min(allowed - used)
        return CheckReport(False, "missing-difference", (missing,))
    return CheckReport(True)


def check_alpha(g, f):
    color = two_coloring(g)
    if color is None:
        raise NotBipartiteError("graph is not bipartite")
    class0 = frozenset(int(i) for i in np.flatnonzero(color == 0))
    class1 = frozenset(int(i) for i in np.flatnonzero(color == 1))
    vals = f.values
    for low, high in ((class0, class1), (class1, class0)):
        max_low = max((vals[v] for v in low), default=-1)
        min_high = min((vals[v] for v in high), default=max_low + 1)
        if max_low < min_high:
            return AlphaCert(low=low, high=high, boundary=max_low)
    return None
