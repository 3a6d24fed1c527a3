"""Hot inner loops: exhaustive labeling search and pair-coverage counting.

Two kernels dominate the package's runtime: the labeling search behind
the oracle and the edge-pair accumulation behind decomposition
verification.

The search walks a frontier of partial labelings depth first.  A row
of the frontier is one partial labeling: its labels by position, as
int16, and one bool "taken" row whose first L cells mark the labels used
and whose cell L + delta marks the difference delta used or not
allowed; an alpha search also keeps, per row, the largest lower end and
the smallest upper end of its edges (Rosa's condition holds while the
first is below the second).

Forced labels come first: the prefix is replayed label by label on the
frontier's one row, in plain Python, with the same tests as the masks
below, so a count walk's forced arc and cross_validate's full labeling
build no mask.  From there, at position p the walk takes a slice of
partial labelings, rows in lexicographic order, and builds one rows x L
mask of the labels that may come next.  np.nonzero reads that mask in
row-major order, which is the order a depth-first search discovers the
children in, so descending into slices of the survivors one after
another yields the labelings in lexicographic order of positions.
Slices are cut to CELL_BUDGET mask cells, which bounds memory and lets
max_results stop the walk early.  At the last position a walk that
keeps no more rows only counts the mask's cells.

A count may pass one symmetry constraint per position, which the
oracle derives: a label that must exceed the one at an earlier position
(Puget's lex-leader constraints for all-different problems, IJCAI 2005:
the automorphisms that fix the forced arc act freely on labelings with
distinct labels, so the vertex that takes the smallest label of its
orbit picks one labeling per orbit).  It is a mask like the others and
keeps the depth-first order.
"""

from __future__ import annotations

import numpy as np

# Mask cells (rows x candidate labels) built at once.  The walk holds at
# most one slice per position, so this also bounds its working set.
CELL_BUDGET = 1 << 14


def dfs_search(back, order, allowed, use_alpha, prefix, max_results, store_cap,
               smaller=None):
    """Enumerate injective labelings in depth-first order with masked pruning.

    Parameters
    ----------
    back : list of lists of int
        back[p] lists, ascending, the earlier positions adjacent to the
        vertex at position p.
    order : list of int
        Position -> canonical vertex index; rows come back by vertex.
    allowed : list of bool, of length n_labels + 1
        allowed[delta] says the edge difference delta may appear (once);
        labels run over [0, n_labels - 1].
    use_alpha : bool
        When use_alpha, prune partial labelings whose edges already admit
        no boundary lambda with min f(u) <= lambda < max f(u) on each
        edge uw (Rosa's alpha condition).
    prefix : sequence of int
        Forced labels for the leading positions, replayed one at a time
        with the masks' tests.  The replay stops at the first label that
        fails them or lies outside [0, n_labels), and the search then
        yields no labeling.  A full-length prefix accepts or rejects one
        labeling.
    max_results : int
        Stop after this many labelings; 0 means exhaust the space.
    store_cap : int
        Keep at most this many labelings, the first ones found.
    smaller : list of int or None
        Symmetry constraints, one entry per position, -1 for none: the
        label at p must exceed the label at the earlier position
        smaller[p].

    Returns
    -------
    (total, rows, level_sizes) : found labelings overall, the kept ones
    as an int64 array of shape (kept, n) in vertex order, and a list
    that holds for each position p the number of partial labelings of
    positions 0..p that passed its tests: 1 for each forced position up
    to the first one that fails, 0 from there on.  The walk stops taking
    complete labelings at max_results, so the last entry is total.
    """
    n = len(order)
    L = len(allowed) - 1
    level_sizes = [0] * n
    smaller = [-1] * n if smaller is None else smaller

    # The forced prefix, one scalar test per mask.  taken[lab] marks a
    # label used, taken[L + delta] a difference used or not allowed.
    assign = [0] * n
    taken = [False] * L + [not ok for ok in allowed]
    low, high = -1, L
    for p, lab in enumerate(prefix):
        deltas = [abs(assign[t] - lab) for t in back[p]]
        if use_alpha:
            low = max([low] + [min(assign[t], lab) for t in back[p]])
            high = min([high] + [max(assign[t], lab) for t in back[p]])
        if (not 0 <= lab < L or taken[lab] or 0 <= smaller[p] and lab <= assign[smaller[p]]
                or any(taken[L + delta] for delta in deltas)
                or len(set(deltas)) < len(deltas) or low >= high):
            return 0, np.empty((0, n), dtype=np.int64), level_sizes
        assign[p] = lab
        taken[lab] = True
        for delta in deltas:
            taken[L + delta] = True
        level_sizes[p] = 1
    if len(prefix) == n:
        keep = min(1, store_cap)
        rows = np.empty((keep, n), dtype=np.int64)
        rows[:, order] = assign
        return 1, rows, level_sizes

    cand = np.arange(L, dtype=np.int16)

    def blocked(p, state):
        """The rows x L mask of the labels that may not come at p."""
        assign, taken = state[:2]
        bad = taken[:, :L].copy()
        if smaller[p] >= 0:
            bad |= cand <= assign[:, smaller[p], None]
        if not back[p]:
            return bad
        diff = taken.ravel()
        base = np.arange(L, diff.size, taken.shape[1])[:, None]
        deltas = []
        for t in back[p]:
            delta = np.abs(assign[:, t, None] - cand)
            bad |= diff[base + delta]
            for earlier in deltas:
                bad |= delta == earlier
            deltas.append(delta)
        if use_alpha:
            # a label c below every neighbor's keeps Rosa's condition when
            # c and low are below min(high, emin); one above every
            # neighbor's when c and high are above max(low, emax); any
            # other c fails
            low, high = state[2:]
            below, above = high, low
            for t in back[p]:
                below = np.minimum(below, assign[:, t])
                above = np.maximum(above, assign[:, t])
            below = np.where(low < below, below, 0)
            above = np.where(above < high, above, L)
            bad |= (cand >= below[:, None]) & (cand <= above[:, None])
        return bad

    def survivors(bad):
        """Rows and labels of the cells that bad leaves free, in row-major
        order; np.nonzero costs less on the flat mask than on two axes."""
        cells = np.nonzero(~bad.ravel())[0]
        rows = cells // L
        return rows, cells - rows * L

    def children(p, state):
        """Yield the survivors at p as states, one slice of the budget at a time."""
        rows, labs = survivors(blocked(p, state))
        level_sizes[p] += rows.shape[0]
        step = max(1, CELL_BUDGET // L)
        for start in range(0, rows.shape[0], step):
            part = rows[start:start + step]
            lab = labs[start:start + step]
            assign, taken = state[0][part], state[1][part]
            assign[:, p] = lab
            k = np.arange(lab.shape[0])
            taken[k, lab] = True
            ends = assign[:, back[p]]
            taken[k[:, None], L + np.abs(ends - lab[:, None])] = True
            if not use_alpha:
                yield assign, taken
                continue
            low, high = state[2][part], state[3][part]
            for t in back[p]:
                low = np.maximum(low, np.minimum(assign[:, t], lab))
                high = np.minimum(high, np.maximum(assign[:, t], lab))
            yield assign, taken, low, high

    # Labels are held as int16: oracle._allowed caps e + d, which is the
    # label count d(q + 1), at 2048.  stack[i] yields the states whose
    # positions up to len(prefix) + i are set.
    state = (np.array([assign], dtype=np.int16), np.array([taken]))
    if use_alpha:
        state += (np.array([low]), np.array([high]))
    total = stored = 0
    found = []  # kept labelings in position order, one array per slice
    stack = []
    while True:
        p = len(prefix) + len(stack)
        if p < n - 1:
            stack.append(children(p, state))
        else:
            bad = blocked(p, state)
            if stored < store_cap:
                rows, labs = survivors(bad)
                take = rows.shape[0]
            else:
                take = bad.size - int(np.count_nonzero(bad))
            if max_results > 0:
                take = min(take, max_results - total)
            level_sizes[p] += take
            keep = min(take, store_cap - stored)
            if keep > 0:
                full = state[0][rows[:keep]]
                full[:, p] = labs[:keep]
                found.append(full)
                stored += keep
            total += take
            if max_results > 0 and total >= max_results:
                break
        state = None
        while stack and state is None:
            state = next(stack[-1], None)
            if state is None:
                stack.pop()
        if state is None:
            break
    rows = np.empty((stored, n), dtype=np.int64)
    if found:
        rows[:, order] = np.concatenate(found)
    return total, rows, level_sizes


def count_pairs(lo_ends, hi_ends, counts):
    """Accumulate unordered endpoint pairs into the upper triangle of counts."""
    lo = np.minimum(lo_ends, hi_ends)
    hi = np.maximum(lo_ends, hi_ends)
    np.add.at(counts, (lo, hi), 1)
