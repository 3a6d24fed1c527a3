"""Loop versions of the d-divisible graceful and alpha checkers.

These walk the labels and edges one at a time in the order the clauses
are stated, so they serve as the reference that the vectorised checkers
in divgrace.checking must agree with, verdict and witness alike.

The rest states the paper's claims in its own terms: the d blocks of
allowed differences, and a prism's differences split by edge role.
"""

from dataclasses import dataclass

from divgrace import CheckReport, GridGraph, d_params


def check_d_graceful(f, d):
    g = f.graph
    params = d_params(g.num_edges, d)
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


def check_alpha(f):
    # Rosa: the smallest label lambda with min <= lambda < max on every
    # edge; without edges every label works, and the largest is taken
    vals = f.values
    edges = [(vals[int(u)], vals[int(w)]) for u, w in f.graph.edge_indices()]
    candidates = sorted(set(vals), reverse=not edges)
    for boundary in candidates:
        if all(min(a, b) <= boundary < max(a, b) for a, b in edges):
            return boundary
    return None


def blocks(params):
    """The d blocks of q consecutive allowed differences, in increasing order."""
    w = params.q + 1
    return tuple(range(w * t + 1, w * t + params.q + 1) for t in range(params.d))


def edge_differences(g, f):
    """Absolute label differences over the canonical edge order."""
    vals = f.values
    return tuple(abs(vals[int(u)] - vals[int(w)]) for u, w in g.edge_indices())


@dataclass(frozen=True)
class DifferenceProfile:
    """Edge differences of a prism labeling, split by edge role.

    layer1 and layer2 hold the ring differences |f(i, j+1) - f(i, j)| for
    the two rings, spokes the rung differences |f(1, j) - f(2, j)|, each
    indexed cyclically by j.  full is the whole multiset in canonical
    edge order.
    """

    layer1: tuple
    layer2: tuple
    spokes: tuple
    full: tuple


def difference_profile(g, f):
    """Split a prism labeling's differences by edge role; rejects m != 2."""
    if not isinstance(g, GridGraph) or g.m != 2:
        raise ValueError("difference profiles are defined for prisms (m = 2)")
    w = g.ring_len
    r1 = f.layer(1)
    r2 = f.layer(2)
    layer1 = tuple(abs(r1[j % w] - r1[j - 1]) for j in range(1, w + 1))
    layer2 = tuple(abs(r2[j % w] - r2[j - 1]) for j in range(1, w + 1))
    spokes = tuple(abs(r1[j] - r2[j]) for j in range(w))
    return DifferenceProfile(layer1=layer1, layer2=layer2, spokes=spokes,
                             full=edge_differences(g, f))
