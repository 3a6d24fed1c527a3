"""Reference counts for the search-count workload, by independent enumeration.

Counts the d-divisible graceful labelings (optionally alpha-labelings) of
C_{4k} x P_m by backtracking over vertices in canonical order.  It shares
no code with divgrace's oracle or kernels: the grid comes from check.py's
definition and every constraint is re-derived here.

    python3 perfbench/count_labelings.py > perfbench/reference_counts.json
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from check import grid_edges, parity_classes  # noqa: E402

INSTANCES = [(1, 2, 3, True), (1, 2, 3, False)]


def count(k: int, m: int, d: int, alpha: bool) -> int:
    n = 4 * k * m
    edges = grid_edges(k, m)
    q = len(edges) // d
    top = d * (q + 1)
    allowed = [x > 0 and x % (q + 1) != 0 for x in range(top + 1)]
    earlier = [[] for _ in range(n)]
    for u, w in edges:
        earlier[max(u, w)].append(min(u, w))
    even, _ = parity_classes(k, m)
    side = [0 if x in even else 1 for x in range(n)]
    labels = [0] * n
    used_label = [False] * top
    used_diff = [False] * (top + 1)
    hi = [-1, -1]
    lo = [top, top]

    def feasible() -> bool:
        return not alpha or hi[0] < lo[1] or hi[1] < lo[0]

    def place(x: int) -> int:
        if x == n:
            return 1
        found = 0
        s = side[x]
        for lab in range(top):
            if used_label[lab]:
                continue
            diffs = [abs(labels[y] - lab) for y in earlier[x]]
            if len(set(diffs)) != len(diffs) or any(
                    not allowed[t] or used_diff[t] for t in diffs):
                continue
            saved = hi[s], lo[s]
            hi[s], lo[s] = max(hi[s], lab), min(lo[s], lab)
            if feasible():
                labels[x] = lab
                used_label[lab] = True
                for t in diffs:
                    used_diff[t] = True
                found += place(x + 1)
                for t in diffs:
                    used_diff[t] = False
                used_label[lab] = False
            hi[s], lo[s] = saved
        return found

    return place(0)


def main() -> None:
    rows = [{"k": k, "m": m, "d": d, "alpha": a, "count": count(k, m, d, a)}
            for k, m, d, a in INSTANCES]
    print(json.dumps(rows, indent=2))


if __name__ == "__main__":
    main()
