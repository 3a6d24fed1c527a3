"""Independent checker for divgrace certificates.

Plain Python; imports nothing from divgrace.  Every fact is re-derived
from the definitions: the grid C_{4k} x P_m, the d-divisible graceful
condition, the alpha boundary and Rosa's difference-class criterion for
a cyclic decomposition of the complete multipartite graph with q + 1
parts of size 2dn on Z_v, v = 2dn(q + 1).

Each check returns None when the object is correct and a one-line reason
when it is not.
"""

from __future__ import annotations

MULTIPLIER = {"f1": 1, "f2": 2, "f4": 4}


def grid_edges(k: int, m: int) -> list[tuple[int, int]]:
    """Edges of C_{4k} x P_m over vertex index (i - 1) * 4k + (j - 1)."""
    w = 4 * k
    edges = [(i * w + j, i * w + (j + 1) % w) for i in range(m) for j in range(w)]
    edges += [(i * w + j, (i + 1) * w + j) for i in range(m - 1) for j in range(w)]
    return edges


def parity_classes(k: int, m: int) -> tuple[set[int], set[int]]:
    """The two colour classes of the grid: (i + j) even and (i + j) odd."""
    w = 4 * k
    even = {i * w + j for i in range(m) for j in range(w) if (i + j) % 2 == 0}
    return even, set(range(w * m)) - even


def alpha_split(k: int, m: int, labels: list[int]) -> tuple[set[int], int] | None:
    """The (low class, boundary) of an alpha-labeling, None if neither split works."""
    classes = parity_classes(k, m)
    for low, high in (classes, classes[::-1]):
        top = max(labels[x] for x in low)
        if top < min(labels[x] for x in high):
            return low, top
    return None


def check_labeling(cert: dict, k: int, m: int, family: str) -> str | None:
    """A labeling certificate of C_{4k} x P_m in the given family."""
    if cert.get("graph") != {"kind": "grid", "k": k, "m": m}:
        return f"graph {cert.get('graph')} is not C_{4 * k} x P_{m}"
    d = cert["d"]
    if d != MULTIPLIER[family] * (2 * m - 1):
        return f"d={d} is not {MULTIPLIER[family]}*(2m-1) for family {family}"
    labels = cert["labels"]
    edges = grid_edges(k, m)
    e = len(edges)
    if len(labels) != 4 * k * m or e % d:
        return "vertex count or divisibility wrong"
    q = e // d
    top = d * (q + 1) - 1
    if len(set(labels)) != len(labels):
        return "labels not distinct"
    if min(labels) < 0 or max(labels) > top:
        return f"labels outside [0, {top}]"
    diffs = sorted(abs(labels[u] - labels[w]) for u, w in edges)
    want = [x for x in range(1, d * (q + 1) + 1) if x % (q + 1)]
    if diffs != want:
        return "edge differences are not [1, d(q+1)] minus the multiples of q+1"
    split = alpha_split(k, m, labels)
    if split is None:
        return "no (i+j)-parity class lies below the other"
    low, boundary = split
    stated = cert.get("alpha")
    if stated is None:
        return "certificate has no alpha block"
    if set(stated["low_class"]) != low or stated["lambda"] != boundary:
        return f"stated alpha block disagrees with the split (boundary {boundary})"
    return None


def check_decomposition(dec: dict, cert: dict, n: int) -> str | None:
    """A decomposition file against the labeling certificate it came from."""
    k, m = cert["graph"]["k"], cert["graph"]["m"]
    d = cert["d"]
    edges = grid_edges(k, m)
    q = len(edges) // d
    v = 2 * d * n * (q + 1)
    if (dec["q"], dec["d"], dec["n"], dec["v"]) != (q, d, n, v):
        return f"header q,d,n,v = {dec['q']},{dec['d']},{dec['n']},{dec['v']}, want {q},{d},{n},{v}"
    blocks = dec["base_blocks"]
    if len(blocks) != n:
        return f"{len(blocks)} base blocks, want {n}"
    seen = set()
    for block in blocks:
        if len(block) != 4 * k * m or len({x % v for x in block}) != len(block):
            return "a base block is not an injective copy of the grid's vertices"
        for u, w in edges:
            c = (block[u] - block[w]) % v
            c = min(c, v - c)
            if c == 0 or c % (q + 1) == 0 or c in seen:
                return f"difference class {c} is forbidden or repeated"
            seen.add(c)
    if len(seen) != v // 2 - v // 2 // (q + 1):
        return "difference classes do not cover {1..v/2} minus the multiples of q+1"
    return None


def host_edges(cert: dict, n: int) -> int:
    """Edges of the host graph K_{(q+1) x 2dn}: E = v * n * e."""
    e = 4 * cert["graph"]["k"] * (2 * cert["graph"]["m"] - 1)
    q = e // cert["d"]
    return 2 * cert["d"] * n * (q + 1) * n * e
