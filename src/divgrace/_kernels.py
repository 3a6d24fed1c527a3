"""Hot inner loops: exhaustive labeling search and pair-coverage counting.

Two kernels dominate the package's runtime: the labeling search behind
the oracle and the edge-pair accumulation behind decomposition
verification.  Both are numpy over plain int64/bool arrays.

The search walks a frontier of partial labelings depth first.  At
position p it takes a slice of partial labelings, rows in lexicographic
order, and builds one rows x candidates mask of the labels that may
come next.  np.nonzero reads that mask in row-major order, which is the
order a depth-first search discovers the children in, so descending
into slices of the survivors one after another yields the labelings in
lexicographic order of positions.  Slices are cut to CELL_BUDGET mask
cells, which bounds memory and lets max_results stop the walk early.

An alpha search tests Rosa's condition edge by edge: a row dies once the
largest lower end of its edges is not below their smallest upper end.
"""

from __future__ import annotations

import numpy as np

# Mask cells (rows x candidate labels) built at once.  The walk holds at
# most one slice per position, so this also bounds its working set.
CELL_BUDGET = 1 << 13


def dfs_search(nbr_flat, nbr_off, order, allowed, use_alpha, prefix, max_results,
               store_cap):
    """Enumerate injective labelings in depth-first order with masked pruning.

    Parameters
    ----------
    nbr_flat, nbr_off : int64 arrays
        For assignment position p, nbr_flat[nbr_off[p]:nbr_off[p+1]] lists
        the earlier positions adjacent to p's vertex.
    order : int64 array
        Position -> canonical vertex index; rows come back by vertex.
    allowed : bool array of length n_labels + 1
        allowed[delta] says the edge difference delta may appear (once);
        labels run over [0, n_labels - 1].
    use_alpha : bool
        When use_alpha, prune partial labelings whose edges already admit
        no boundary lambda with min f(u) <= lambda < max f(u) on each
        edge uw (Rosa's alpha condition).
    prefix : int64 array
        Forced labels for the leading positions; an inconsistent prefix
        or one with a label outside [0, n_labels) yields no labeling.  A
        full-length prefix replays one labeling through the masks and
        accepts or rejects it.
    max_results : int
        Stop after this many labelings; 0 means exhaust the space.
    store_cap : int
        Keep at most this many labelings, the first ones found.

    Returns
    -------
    (total, rows, level_sizes) : found labelings overall, the kept ones
    as an int64 array of shape (kept, n) in vertex order, and for each
    position p the number of partial labelings of positions 0..p that
    passed its masks.  The walk stops taking complete labelings at
    max_results, so the last entry is total.
    """
    n = order.shape[0]
    L = allowed.shape[0] - 1
    level_sizes = np.zeros(n, dtype=np.int64)
    if np.any((prefix < 0) | (prefix >= L)):
        return 0, np.empty((0, n), dtype=np.int64), level_sizes
    # Candidate labels of each position, as a range [lo, hi).
    ranges = [(0, L)] * n
    for p, lab in enumerate(prefix):
        ranges[p] = (int(lab), int(lab) + 1)

    def survivors(p, state):
        """Rows, labels and new differences of the candidates at p that
        pass, and for an alpha search each row's largest and smallest
        label on p's earlier neighbors."""
        assign, used_label, blocked_diff, low, high = state
        lo, hi = ranges[p]
        cand = np.arange(lo, hi)
        ok = ~used_label[:, lo:hi]
        row_base = np.arange(0, blocked_diff.size, L + 1)[:, None]
        nbrs = nbr_flat[nbr_off[p]:nbr_off[p + 1]]
        deltas = []
        for t in nbrs:
            delta = np.abs(assign[:, t, None] - cand)
            ok &= ~blocked_diff.ravel()[row_base + delta]
            for earlier in deltas:
                ok &= delta != earlier
            deltas.append(delta)
        ends = None
        if use_alpha:
            # c's edges to its earlier neighbors have largest lower end
            # min(emax, c) and smallest upper end max(emin, c)
            ends = emax, emin = (assign[:, nbrs].max(axis=1, initial=-1),
                                 assign[:, nbrs].min(axis=1, initial=L))
            ok &= (np.maximum(low[:, None], np.minimum(emax[:, None], cand))
                   < np.minimum(high[:, None], np.maximum(emin[:, None], cand)))
        rows, cols = np.nonzero(ok)
        return rows, cand[cols], [delta[rows, cols] for delta in deltas], ends

    def children(p, state):
        """Yield the survivors at p as states, one slice of the budget at a time."""
        rows, labs, deltas, ends = survivors(p, state)
        level_sizes[p] += rows.shape[0]
        lo, hi = ranges[p + 1]
        step = max(1, CELL_BUDGET // (hi - lo))
        for start in range(0, rows.shape[0], step):
            part = slice(start, start + step)
            lab = labs[part]
            assign, used_label, blocked_diff, low, high = (a[rows[part]] for a in state)
            k = np.arange(lab.shape[0])
            assign[:, p] = lab
            used_label[k, lab] = True
            for delta in deltas:
                blocked_diff[k, delta[part]] = True
            if ends is not None:
                emax, emin = (x[rows[part]] for x in ends)
                low = np.maximum(low, np.minimum(emax, lab))
                high = np.minimum(high, np.maximum(emin, lab))
            yield assign, used_label, blocked_diff, low, high

    # A state holds, per row: the labels so far, the labels used, the
    # differences forbidden or used, and the largest lower end and the
    # smallest upper end of its edges.  stack[p] yields the states whose
    # positions 0..p are set.
    state = (np.zeros((1, n), dtype=np.int64), np.zeros((1, L), dtype=np.bool_),
             ~allowed[None, :], np.full(1, -1, dtype=np.int64),
             np.full(1, L, dtype=np.int64))
    total = stored = 0
    found = []  # kept labelings in position order, one array per slice
    stack = []
    while True:
        p = len(stack)
        if p < n - 1:
            stack.append(children(p, state))
        else:
            rows, labs, _, _ = survivors(p, state)
            take = rows.shape[0]
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
