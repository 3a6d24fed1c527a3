"""Closed-form labelings of C_{4k} x P_m and the inductive step behind them.

A family is data: its multiplier mu fixes the divisor d = mu(2m - 1) and
the shift s = 4k + mu, and its rule maps k to the two sets that shape
layer_pattern, the interleaved low/high sequence a layer carries: the
lows left out and the subtrahends t skipped.  The paper's families are
mu = 1, 2 and 4; the 12-divisible rule splits on the parity of k.
layer_pattern itself has no per-family code, so a new family is one
Family(...) line.  extend is the paper's inductive step: it shifts an
existing labeling up by s and writes the pattern with ceiling (2m + 1) s
onto the new top layer, anchored at the position where the shifted
maximum sits.

construct builds every layer, the prism's two included, from one rule:
layer L is the pattern with ceiling (2L - 1) s, rolled |L - 2| places
and shifted up by (m - L) s.  That is the ceiling-s pattern plus
2(L - 1) s on its highs, the odd positions, so one index array gathers
all m layers.  Why it holds: layer L >= 3 is the layer extend writes
when the grid reaches L layers, moved up by s in each of the m - L
later steps.  extend puts its 0 under the previous top layer's largest
label, that layer's t = 1 high, which follows its 0, so each layer
rolls one place further than the one below it.  The paper's prism
formulas for d = 3, 6 and 12 are the same rule at L = 1, 2: ring 2 is
the ceiling-3s pattern unrolled, and ring 1 the ceiling-s pattern rolled
one place, its 0 on the rung to ring 2's t = 1 high, so layer 1 mirrors
layer 3.  The result is verified once before it is returned
(d-graceful, and the alpha boundary in Rosa's edge form), so a formula
or bookkeeping error fails fast instead of propagating.  The top layer
is the ceiling-(2m - 1)s pattern by construction, so it always carries
the seed that seed_matches reads and extend needs.
"""

from __future__ import annotations

from collections.abc import Callable, Collection
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .checking import Labeling, check_d_graceful
from .grids import GridGraph, build_grid


class SeedMismatchError(ValueError):
    """The top layer does not carry the pattern the extension step relies on."""


class ConstructionError(RuntimeError):
    """Post-verification of a constructed labeling failed; indicates a bug."""


@dataclass(frozen=True)
class Family:
    """An induction family, as data.

    multiplier is mu in d = mu(2m - 1) and s = 4k + mu.  rule(k) gives the
    two sets layer_pattern reads: the lows left out and the subtrahends t
    skipped.
    """

    name: str
    multiplier: int
    rule: Callable[[int], tuple[Collection[int], Collection[int]]]

    def divisor(self, m: int) -> int:
        """The divisor d of the labeling of C_{4k} x P_m in this family."""
        return self.multiplier * (2 * m - 1)

    def shift(self, k: int) -> int:
        return 4 * k + self.multiplier


def _f4_rule(k: int) -> tuple[set[int], set[int]]:
    if k % 2 == 0:
        return {3 * k // 2}, {k // 2 + 1, k + 2, k + 3}
    return {(k + 1) // 2}, {k + 1, k + 2, (3 * k + 5) // 2}


F1 = Family("f1", 1, lambda k: ((), {k + 1}))
F2 = Family("f2", 2, lambda k: ((), {k + 1, k + 2}))
F4 = Family("f4", 4, _f4_rule)
FAMILIES = {f.name: f for f in (F1, F2, F4)}


def layer_pattern(family: Family, k: int, ceiling: int) -> tuple[int, ...]:
    """The interleaved low/high sequence written onto a fresh layer.

    It has length 4k and starts with 0.  The lows, at the even indices,
    are the first 2k integers from 0 that family.rule(k) does not leave
    out; the highs, at the odd ones, are ceiling - t for the first 2k
    values of t from 1 that it does not skip.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    missing, skips = family.rule(k)
    # at most len(missing) of the first 2k + len(missing) integers are left
    # out, so the first 2k kept ones lie among them; likewise for t
    lows = [x for x in range(2 * k + len(missing)) if x not in missing][:2 * k]
    highs = [ceiling - t for t in range(1, 2 * k + len(skips) + 1) if t not in skips][:2 * k]
    if min(highs) <= max(lows):
        raise ValueError(f"ceiling {ceiling} too small for k={k}")
    return tuple(chain.from_iterable(zip(lows, highs)))


def prism_labeling(k: int, variant: int) -> Labeling:
    """A variant-divisible graceful alpha-labeling of the prism C_{4k} x P_2.

    It is construct(k, 2, family) for the family with divisor(2) == variant.
    """
    family = next((f for f in FAMILIES.values() if f.divisor(2) == variant), None)
    if family is None:
        *rest, last = (str(f.divisor(2)) for f in FAMILIES.values())
        raise ValueError(f"variant must be {', '.join(rest)} or {last}, got {variant}")
    return construct(k, 2, family)


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
    _verify(out, family.divisor(m + 1), f"extend k={k} to m={m + 1} family={family.name}")
    return out


def construct(k: int, m: int, family: Family) -> Labeling:
    """A d-divisible graceful alpha-labeling of C_{4k} x P_m, d = multiplier*(2m-1).

    Equal to m - 2 extend steps from the prism, built in one pass.
    """
    grid = build_grid(k, m)
    s = family.shift(k)
    # layer L is the ceiling-s pattern with 2(L - 1)s more on its highs (the
    # odd positions), rolled |L - 2| places, plus (m - L)s
    base = np.array(layer_pattern(family, k, s), dtype=np.int64)
    layers = np.arange(1, m + 1)[:, None]
    at = (np.arange(grid.ring_len) - np.abs(layers - 2)) % grid.ring_len
    labels = base[at] + 2 * (layers - 1) * s * (at % 2) + (m - layers) * s
    lab = Labeling(grid, labels.ravel())
    _verify(lab, family.divisor(m), f"construct k={k} m={m} family={family.name}")
    return lab


def _verify(lab: Labeling, d: int, where: str) -> None:
    # Fail-fast guard: a returned labeling always satisfies its own contract.
    report = check_d_graceful(lab, d)
    if not report:
        raise ConstructionError(f"{where}: {report.describe()}")
    if lab.alpha_boundary is None:
        raise ConstructionError(f"{where}: alpha boundary violated")
