"""Closed-form prism labelings and their extension to deeper grids.

prism_labeling produces 3-, 6- and 12-divisible graceful alpha-labelings
of the prism C_{4k} x P_2 from piecewise assignments.  extend is the
inductive step: it shifts an existing labeling up by a constant and
writes a fresh interleaved low/high pattern onto the new top layer,
anchored at the position where the shifted maximum sits.  Each family
fixes the shift s (4k + 1, 4k + 2, 4k + 4), the divisor multiplier
(1, 2, 4) and the pattern's skip rules; the 12-divisible rules split on
the parity of k.

construct unrolls the induction into one expression.  Layer L >= 3 is
the pattern with ceiling (2L - 1) s, shifted by (m - L) s: the layer-3
pattern plus 2(L - 3) s on its highs, the odd positions.  Its 0 sits
under the previous layer's t = 1 high, which follows that layer's 0, so
the anchor moves one place per layer from where the prism's largest
label sits; one index array gathers all m - 2 rolled layers at once.
The prism rows are shifted by (m - 2) s.  The result is verified once
before it is returned (d-graceful, the alpha boundary in Rosa's edge
form, the top-layer seed), so a formula or bookkeeping error fails fast
instead of propagating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checking import Labeling, check_d_graceful
from .grids import GridGraph, build_grid


class SeedMismatchError(ValueError):
    """The top layer does not carry the pattern the extension step relies on."""


class ConstructionError(RuntimeError):
    """Post-verification of a constructed labeling failed; indicates a bug."""


@dataclass(frozen=True)
class Family:
    """An induction family: divisor multiplier and per-step shift constant."""

    name: str
    multiplier: int

    def divisor(self, m: int) -> int:
        """The divisor d of the labeling of C_{4k} x P_m in this family."""
        return self.multiplier * (2 * m - 1)

    def shift(self, k: int) -> int:
        return 4 * k + self.multiplier

    @property
    def prism_divisor(self) -> int:
        return 3 * self.multiplier


F1 = Family("f1", 1)
F2 = Family("f2", 2)
F4 = Family("f4", 4)
FAMILIES = {"f1": F1, "f2": F2, "f4": F4}


def _interleave(lows: list[int], highs: list[int]) -> tuple[int, ...]:
    out: list[int] = []
    for lo, hi in zip(lows, highs):
        out.append(lo)
        out.append(hi)
    return tuple(out)


def layer_pattern(family: Family, k: int, ceiling: int) -> tuple[int, ...]:
    """The interleaved low/high sequence written onto a fresh layer.

    It has length 4k and starts with 0; the lows sit at the even indices in increasing
    order, and the highs at the odd ones are ceiling - t for the
    subtrahends t that survive the family's skip rule.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if family.name == "f1":
        lows = list(range(2 * k))
        t_max = 2 * k + 1
        skips = {k + 1}
    elif family.name == "f2":
        lows = list(range(2 * k))
        t_max = 2 * k + 2
        skips = {k + 1, k + 2}
    elif family.name == "f4":
        t_max = 2 * k + 3
        if k % 2 == 0:
            lows = [x for x in range(2 * k + 1) if x != 3 * k // 2]
            skips = {k // 2 + 1, k + 2, k + 3}
        else:
            lows = [x for x in range(2 * k + 1) if x != (k + 1) // 2]
            skips = {k + 1, k + 2, (3 * k + 5) // 2}
    else:
        raise ValueError(f"unknown family {family.name!r}")
    subs = [t for t in range(1, t_max + 1) if t not in skips]
    highs = [ceiling - t for t in subs]
    if len(lows) != 2 * k or len(highs) != 2 * k:
        raise ConstructionError("pattern size bookkeeping broke")
    if min(highs) <= max(lows):
        raise ValueError(f"ceiling {ceiling} too small for k={k}")
    return _interleave(lows, highs)


def _prism_rows(k: int, variant: int) -> tuple[list[int], list[int]]:
    # Piecewise assignments for the two rings; positions are 1-based,
    # list index j-1 holds position j.  Ring 1 odd positions are 2i+1,
    # even positions 2i.
    w = 4 * k
    r1 = [0] * w
    r2 = [0] * w
    if variant == 3:
        r1[0] = 6 * k + 1
        for i in range(1, 2 * k):
            r1[2 * i] = 8 * k + 2 - i if i <= k else 8 * k + 1 - i
        for i in range(1, 2 * k + 1):
            r1[2 * i - 1] = 4 * k + i
        for i in range(2 * k):
            r2[2 * i] = i
        for i in range(1, 2 * k + 1):
            r2[2 * i - 1] = 12 * k + 3 - i if i <= k else 12 * k + 2 - i
    elif variant == 6:
        r1[0] = 6 * k + 2
        for i in range(1, 2 * k):
            r1[2 * i] = 8 * k + 4 - i if i <= k else 8 * k + 2 - i
        for i in range(1, 2 * k + 1):
            r1[2 * i - 1] = 4 * k + 1 + i
        for i in range(2 * k):
            r2[2 * i] = i
        for i in range(1, 2 * k + 1):
            r2[2 * i - 1] = 12 * k + 6 - i if i <= k else 12 * k + 4 - i
    elif variant == 12 and k % 2 == 0:
        r1[0] = 6 * k + 5
        for i in range(1, 2 * k):
            if i <= k // 2:
                r1[2 * i] = 8 * k + 8 - i
            elif i <= k:
                r1[2 * i] = 8 * k + 7 - i
            else:
                r1[2 * i] = 8 * k + 5 - i
        for i in range(1, 2 * k + 1):
            r1[2 * i - 1] = 4 * k + 3 + i if i <= 3 * k // 2 else 4 * k + 4 + i
        for i in range(2 * k):
            r2[2 * i] = i if i <= 3 * k // 2 - 1 else i + 1
        for i in range(1, 2 * k + 1):
            if i <= k // 2:
                r2[2 * i - 1] = 12 * k + 12 - i
            elif i <= k:
                r2[2 * i - 1] = 12 * k + 11 - i
            else:
                r2[2 * i - 1] = 12 * k + 9 - i
    elif variant == 12:
        r1[0] = 6 * k + 5
        for i in range(1, 2 * k):
            if i <= k:
                r1[2 * i] = 8 * k + 8 - i
            elif i <= (3 * k - 1) // 2:
                r1[2 * i] = 8 * k + 6 - i
            else:
                r1[2 * i] = 8 * k + 5 - i
        for i in range(1, 2 * k + 1):
            r1[2 * i - 1] = 4 * k + 3 + i if i <= (k + 1) // 2 else 4 * k + 4 + i
        for i in range(2 * k):
            r2[2 * i] = i if i <= (k - 1) // 2 else i + 1
        for i in range(1, 2 * k + 1):
            if i <= k:
                r2[2 * i - 1] = 12 * k + 12 - i
            elif i <= (3 * k - 1) // 2:
                r2[2 * i - 1] = 12 * k + 10 - i
            else:
                r2[2 * i - 1] = 12 * k + 9 - i
    else:
        raise ValueError(f"variant must be 3, 6 or 12, got {variant}")
    return r1, r2


def prism_labeling(k: int, variant: int) -> Labeling:
    """A variant-divisible graceful alpha-labeling of the prism C_{4k} x P_2."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if variant not in (3, 6, 12):
        raise ValueError(f"variant must be 3, 6 or 12, got {variant}")
    grid = build_grid(k, 2)
    r1, r2 = _prism_rows(k, variant)
    lab = Labeling(grid, tuple(r1 + r2))
    family = {3: F1, 6: F2, 12: F4}[variant]
    _verify(lab, variant, family=family, where=f"prism k={k} variant={variant}")
    return lab


def seed_matches(f: Labeling, family: Family) -> int | None:
    """The 1-based position where the top layer starts the family pattern.

    Returns None when no cyclic rotation of the top layer reproduces the
    pattern, which means the labeling cannot be extended by this family.
    """
    g = f.graph
    if not isinstance(g, GridGraph):
        raise TypeError("seed property is defined for grid labelings")
    k, m = g.k, g.m
    pattern = layer_pattern(family, k, family.shift(k) * (2 * m - 1))
    top = f.layer(m)
    w = g.ring_len
    try:
        start = top.index(0)
    except ValueError:
        return None
    if all(top[(start + t) % w] == pattern[t] for t in range(w)):
        return start + 1
    return None


def extend(f: Labeling, family: Family) -> Labeling:
    """Extend a labeling of C_{4k} x P_m to C_{4k} x P_{m+1}.

    Old labels move up by the family shift s; the unique position of the
    value 2*m*s - 1 on the old top layer anchors the fresh pattern, whose
    0 lands directly under no high neighbor.  The result is re-verified.
    """
    g = f.graph
    if not isinstance(g, GridGraph):
        raise TypeError("extend is defined for grid labelings")
    if seed_matches(f, family) is None:
        raise SeedMismatchError(
            f"top layer of k={g.k}, m={g.m} labeling does not carry the {family.name} pattern")
    k, m = g.k, g.m
    s = family.shift(k)
    w = g.ring_len
    shifted = [v + s for v in f.values]
    top = shifted[(m - 1) * w : m * w]
    target = 2 * m * s - 1
    try:
        j_star = top.index(target) + 1
    except ValueError:
        raise ConstructionError(f"shifted maximum {target} missing from top layer") from None
    pattern = layer_pattern(family, k, (2 * m + 1) * s)
    fresh = [0] * w
    for t, value in enumerate(pattern):
        fresh[(j_star - 1 + t) % w] = value
    out = Labeling(build_grid(k, m + 1), tuple(shifted + fresh))
    _verify(out, family.divisor(m + 1), family=family,
            where=f"extend k={k} to m={m + 1} family={family.name}")
    return out


def construct(k: int, m: int, family: Family) -> Labeling:
    """A d-divisible graceful alpha-labeling of C_{4k} x P_m, d = multiplier*(2m-1).

    Equal to m - 2 extend steps from the prism, built in one pass.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    s = family.shift(k)
    w = 4 * k
    r1, r2 = (np.array(r, dtype=np.int64) for r in _prism_rows(k, family.prism_divisor))
    rows = [r1 + (m - 2) * s, r2 + (m - 2) * s]
    if m > 2:
        anchor = np.flatnonzero(r2 == 3 * s - 1)  # the prism's largest label
        if anchor.size != 1:
            raise ConstructionError(
                f"k={k} layer 3 family={family.name}: no unique anchor {3 * s - 1}")
        # layer L is the layer-3 pattern with 2(L - 3)s more on its highs (the
        # odd positions), rolled one place further per layer, plus (m - L)s
        base = np.array(layer_pattern(family, k, 5 * s), dtype=np.int64)
        high = np.arange(w) % 2
        layers = np.arange(3, m + 1)[:, None]
        at = (np.arange(w) - (anchor[0] + layers - 3)) % w
        rows.append(base[at] + 2 * (layers - 3) * s * high[at] + (m - layers) * s)
    labels = np.concatenate(rows, axis=None)
    lab = Labeling(build_grid(k, m), tuple(labels.tolist()))
    _verify(lab, family.divisor(m), family=family,
            where=f"construct k={k} m={m} family={family.name}")
    return lab


def _verify(lab: Labeling, d: int, family: Family, where: str) -> None:
    # Fail-fast guard: a returned labeling always satisfies its own contract.
    g = lab.graph
    report = check_d_graceful(g, lab, d)
    if not report:
        raise ConstructionError(f"{where}: {report.describe()}")
    # Rosa's alpha condition, some boundary between the two ends of every
    # edge; on a connected graph such as a grid it is what check_alpha tests
    ends = lab.array[g.edge_indices()]
    if ends.min(axis=1).max() >= ends.max(axis=1).min():
        raise ConstructionError(f"{where}: alpha boundary violated")
    if seed_matches(lab, family) is None:
        raise ConstructionError(f"{where}: top layer lost the {family.name} pattern")
