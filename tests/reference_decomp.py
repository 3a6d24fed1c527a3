"""Loop version of the difference-class certificate.

It walks the blocks and their edges one at a time through a set, in the
order the clauses are stated, so it serves as the reference that the
numpy divgrace.check_difference_classes must agree with, verdict and
witness alike.  A block is one row of the blocks array, and its edges
are its labels at the graph's edge indices.
"""

from divgrace import CheckReport


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
