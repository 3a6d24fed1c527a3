"""Plain-Python depth-first labeling search, kept as the reference.

This is the search the package ran before its kernel became a numpy
frontier search, with the alpha condition kept as two scalar bounds
updated one edge at a time where the kernel gathers each row's earlier
neighbors at once.  Tests run both on the same inputs and require the same
total and the same rows in the same order, so "the paths agree" compares
two different implementations.  It takes the kernel's inputs in the
form the kernel once took: the earlier-neighbor lists as one flat int64
array with offsets, order, allowed and prefix as numpy arrays, plus the
label count.  It returns (total, rows) without the level sizes and
without the symmetry constraints; test_kernels.py's shim converts the
kernel's Python lists to this form.
"""

from __future__ import annotations

import numpy as np


def dfs_search_py(nbr_flat, nbr_off, order, n_labels, allowed, use_alpha, prefix,
                  max_results, store_cap):
    """Depth-first search over injective labelings with incremental pruning.

    Parameters
    ----------
    nbr_flat, nbr_off : int64 arrays
        For assignment position p, nbr_flat[nbr_off[p]:nbr_off[p+1]] lists
        the earlier positions adjacent to p's vertex.
    order : int64 array
        Position -> canonical vertex index; results are stored by vertex.
    n_labels : int
        Labels run over [0, n_labels - 1].
    allowed : bool array of length n_labels + 1
        allowed[delta] says the edge difference delta may appear (once).
    use_alpha : bool
        When use_alpha, prune branches whose edges admit no boundary
        lambda with min <= lambda < max on each (Rosa's alpha condition),
        tracked edge by edge as the largest lower end and the smallest
        upper end.
    prefix : int64 array
        Forced labels for the leading positions; an inconsistent prefix
        yields no labeling.  A full-length prefix turns the search into a
        constraint replay that accepts or rejects one labeling.
    max_results : int
        Stop after this many labelings; 0 means exhaust the space.
    store_cap : int
        Keep at most this many labelings, the first ones found.

    Returns
    -------
    (total, rows) : found labelings overall, and the kept ones as an
    int64 array of shape (kept, n) in vertex order, in discovery order.
    """
    n = order.shape[0]
    L = n_labels
    assign = np.full(n, -1, dtype=np.int64)
    used_label = np.zeros(L, dtype=np.bool_)
    used_diff = np.zeros(L + 1, dtype=np.bool_)
    cur = np.zeros(n, dtype=np.int64)
    bounds = [-1, L]  # largest lower end, smallest upper end
    saved = [None] * n
    found = []

    def _keep():
        if len(found) < store_cap:
            row = np.empty(n, dtype=np.int64)
            row[order] = assign
            found.append(row)

    def _result(total):
        return total, np.array(found, dtype=np.int64).reshape(len(found), n)

    def _ok(p, lab):
        if used_label[lab]:
            return False
        a0 = nbr_off[p]
        a1 = nbr_off[p + 1]
        for t in range(a0, a1):
            delta = assign[nbr_flat[t]] - lab
            if delta < 0:
                delta = -delta
            if not allowed[delta] or used_diff[delta]:
                return False
            for t2 in range(a0, t):
                d2 = assign[nbr_flat[t2]] - lab
                if d2 < 0:
                    d2 = -d2
                if d2 == delta:
                    return False
        if use_alpha:
            lower, upper = bounds
            for t in range(a0, a1):
                other = assign[nbr_flat[t]]
                lower = max(lower, min(other, lab))
                upper = min(upper, max(other, lab))
            if lower >= upper:
                return False
        return True

    def _place(p, lab):
        assign[p] = lab
        used_label[lab] = True
        a0 = nbr_off[p]
        a1 = nbr_off[p + 1]
        saved[p] = list(bounds)
        for t in range(a0, a1):
            other = assign[nbr_flat[t]]
            delta = other - lab
            if delta < 0:
                delta = -delta
            used_diff[delta] = True
            bounds[0] = max(bounds[0], min(other, lab))
            bounds[1] = min(bounds[1], max(other, lab))

    def _unplace(p):
        lab = assign[p]
        a0 = nbr_off[p]
        a1 = nbr_off[p + 1]
        for t in range(a0, a1):
            delta = assign[nbr_flat[t]] - lab
            if delta < 0:
                delta = -delta
            used_diff[delta] = False
        bounds[:] = saved[p]
        used_label[lab] = False
        assign[p] = -1

    total = 0
    p0 = prefix.shape[0]
    for p in range(p0):
        lab = prefix[p]
        if lab < 0 or lab >= L or not _ok(p, lab):
            return _result(0)
        _place(p, lab)
    if p0 == n:
        _keep()
        return _result(1)

    p = p0
    cur[p] = 0
    while True:
        lab = cur[p]
        placed = False
        while lab < L:
            if _ok(p, lab):
                placed = True
                break
            lab += 1
        if placed:
            cur[p] = lab + 1
            _place(p, lab)
            if p == n - 1:
                total += 1
                _keep()
                _unplace(p)
                if max_results > 0 and total >= max_results:
                    return _result(total)
            else:
                p += 1
                cur[p] = 0
        else:
            p -= 1
            if p < p0:
                break
            _unplace(p)
    return _result(total)
