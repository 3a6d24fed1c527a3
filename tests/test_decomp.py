"""Base blocks, development and exhaustive decomposition verification."""

import math
import tracemalloc
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checking as ref_checking
import reference_decomp as ref
from divgrace import _kernels, decomp
from divgrace import (F1, F2, F4, InvalidParametersError, Labeling,
                      MultipartiteSpec, SearchConfig, SimpleGraph, base_blocks,
                      check_alpha, check_d_graceful, check_difference_classes,
                      construct, develop, proposition_table, search,
                      verify_decomposition)


def _multipartite_edges(parts, size):
    # independent oracle: all pairs minus the within-part pairs
    v = parts * size
    return math.comb(v, 2) - parts * math.comb(size, 2)


@pytest.mark.parametrize("parts,size", [(5, 6), (3, 12), (2, 24), (9, 6)])
def test_spec_edge_count(parts, size):
    spec = MultipartiteSpec(parts=parts, part_size=size)
    assert spec.edge_count == _multipartite_edges(parts, size)
    assert spec.v == parts * size
    assert spec.describe() == f"K_{{{parts}x{size}}}"


def test_block_zero_is_the_labeling(t8, t8_labeling):
    dec = base_blocks(t8_labeling, 3, 1)
    assert dec.blocks.shape == (1, t8.num_vertices)
    assert dec.blocks.dtype == np.int64
    assert not dec.blocks.flags.writeable
    assert tuple(dec.blocks[0].tolist()) == t8_labeling.values
    assert dec.q == 4
    assert dec.spec == MultipartiteSpec(parts=5, part_size=6)
    ends = dec.blocks[0][t8.edge_indices()]
    diffs = set(np.abs(ends[:, 0] - ends[:, 1]).tolist())
    assert diffs == set(range(1, 16)) - {5, 10, 15}


def test_second_block_shifts_the_high_class(t8, t8_labeling):
    low = np.flatnonzero(t8_labeling.array <= check_alpha(t8_labeling)).tolist()
    dec = base_blocks(t8_labeling, 3, 2)
    span = 3 * 5
    for x in range(t8.num_vertices):
        base = t8_labeling.values[x]
        shifted = dec.blocks[1, x]
        if x in low:
            assert shifted == base
        else:
            assert shifted == base + span


def test_develop_rows_are_translates(t8, t8_labeling):
    dec = develop(base_blocks(t8_labeling, 3, 2))
    v = dec.spec.v
    assert dec.development.shape == (2 * v, t8.num_vertices)
    assert not dec.development.flags.writeable
    for j in range(2):
        block = dec.blocks[j]
        for t in (0, 1, v - 1):
            row = dec.development[j * v + t]
            assert np.array_equal(row, (block + t) % v)


@pytest.mark.parametrize("n,expect_edges", [(1, 360), (2, 1440)])
def test_verify_counts_every_edge_once(t8, t8_labeling, n, expect_edges):
    dec = base_blocks(t8_labeling, 3, n)
    assert dec.spec.edge_count == expect_edges
    assert dec.spec.edge_count == t8.num_edges * n * dec.spec.v
    report = verify_decomposition(dec)
    assert report.ok, report.describe()


def test_verify_needs_no_development(t8, t8_labeling):
    # the translates are built from the base blocks; a development, even a
    # wrong one, is never read
    dec = base_blocks(t8_labeling, 3, 1)
    assert dec.development is None
    assert verify_decomposition(dec).ok
    wrong = np.zeros((dec.spec.v, t8.num_vertices), dtype=np.int64)
    assert verify_decomposition(replace(dec, development=wrong)).ok


def _tampered(dec, vertex, new_label):
    blocks = dec.blocks.copy()
    blocks[0, vertex] = new_label
    return replace(dec, blocks=blocks, development=None)


def test_verify_catches_label_collision(t8, t8_labeling):
    dec = _tampered(base_blocks(t8_labeling, 3, 1), 0, 5)
    report = verify_decomposition(dec)
    assert report.reason == "block-not-injective"


def test_verify_catches_within_part_edge(t8, t8_labeling):
    # 10 = 5 mod 5, so the first ring edge lands inside a part
    dec = _tampered(base_blocks(t8_labeling, 3, 1), 0, 10)
    report = verify_decomposition(dec)
    assert report.reason == "illegal-edge"


def test_verify_catches_double_cover(t8, t8_labeling):
    # 8 keeps the block injective and its edges legal but repeats class 3
    dec = _tampered(base_blocks(t8_labeling, 3, 1), 0, 8)
    report = verify_decomposition(dec)
    assert report.reason == "duplicate-edge"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_difference_classes_certificate(t8, t8_labeling, n):
    dec = base_blocks(t8_labeling, 3, n)
    report = check_difference_classes(dec)
    assert report.ok, report.describe()


def test_difference_classes_catch_tampering(t8, t8_labeling):
    dec = _tampered(base_blocks(t8_labeling, 3, 1), 0, 8)
    report = check_difference_classes(dec)
    assert report.reason == "duplicate-difference-class"


def test_verify_catches_uncovered_edge(t8, t8_labeling):
    dec = base_blocks(t8_labeling, 3, 2)
    report = verify_decomposition(replace(dec, blocks=dec.blocks[:-1]))
    assert report.reason == "uncovered-edge"
    # the dropped block's translates hold the uncovered edges; the first in
    # row-major order of the (x, y), x < y, count matrix is the smallest pair
    v = dec.spec.v
    dropped = dec.blocks[-1].tolist()
    pairs = [tuple(sorted(((dropped[u] + t) % v, (dropped[w] + t) % v)))
             for t in range(v) for u, w in t8.edge_indices().tolist()]
    assert report.witness == (min(pairs),)


# (vertex of block 0, new label) -> the reason; None leaves the blocks as
# they are, "drop" removes the last block.  On t8 at n = 1, v = 30 with 5
# parts, and vertex 0 (label 7) meets vertex 1 (label 5) on the first edge.
REASON_CASES = [
    (None, None),
    ((0, 5), "zero-difference"),
    ((0, 35), "zero-difference"),
    ((0, 10), "forbidden-difference-class"),
    ("drop", "missing-difference-class"),
]


@pytest.mark.parametrize("tamper,reason", REASON_CASES)
def test_difference_classes_match_reference(t8, t8_labeling, tamper, reason):
    dec = base_blocks(t8_labeling, 3, 1)
    if tamper == "drop":
        dec = replace(dec, blocks=dec.blocks[:-1])
    elif tamper is not None:
        dec = _tampered(dec, *tamper)
    report = check_difference_classes(dec)
    assert report.reason == reason
    assert report == ref.check_difference_classes(dec)


@lru_cache(maxsize=None)
def _grid_decomposition(k, m, family, n):
    lab = construct(k, m, family)
    return base_blocks(lab, family.divisor(m), n)


@st.composite
def tampered_decompositions(draw):
    """Base blocks of C_{4k} x P_m with one label set, two swapped, one
    block shifted by a constant, replaced by a shifted copy of another
    block or dropped (or none changed)."""
    n = draw(st.integers(1, 3))
    dec = _grid_decomposition(draw(st.integers(1, 3)), draw(st.integers(2, 4)),
                              draw(st.sampled_from([F1, F2, F4])), n)
    v = dec.spec.v
    vertices = st.integers(0, dec.graph.num_vertices - 1)
    blocks = dec.blocks.tolist()
    j = draw(st.integers(0, n - 1))
    block = blocks[j]
    kind = draw(st.sampled_from(["set", "swap", "shift", "copy", "drop", "none"]))
    if kind == "set":
        # an existing label plus a multiple of v makes zero differences likely
        label = draw(st.one_of(st.integers(-v, 2 * v),
                               st.builds(lambda x, t: x + t * v,
                                         st.sampled_from(block), st.integers(-1, 1))))
        block[draw(vertices)] = label
    elif kind == "swap":
        x, y = draw(vertices), draw(vertices)
        block[x], block[y] = block[y], block[x]
    elif kind == "shift":
        c = draw(st.integers(-v, v))
        blocks[j] = [x + c for x in block]
    elif kind == "copy":
        # at n > 1 every edge of the copied block is then covered twice
        c = draw(st.integers(-v, v))
        blocks[j] = [x + c for x in blocks[draw(st.integers(0, n - 1))]]
    elif kind == "drop":
        del blocks[j]
    labels = np.array(blocks, dtype=np.int64).reshape(len(blocks), dec.graph.num_vertices)
    return replace(dec, blocks=labels)


@settings(max_examples=300, deadline=None)
@given(tampered_decompositions())
def test_difference_classes_agree_with_reference(dec):
    got = check_difference_classes(dec)
    want = ref.check_difference_classes(dec)
    assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)
    assert got.describe() == want.describe()


# 1 checks one translate and compares one row at a time; 251 cuts chunks
# of 2 to 20 translates, which split blocks, and compares several rows at
# once at small v; the default takes most test developments whole.
BUDGETS = [1, 251, decomp.PAIR_BUDGET]


@pytest.mark.parametrize("budget", BUDGETS)
@settings(max_examples=120, deadline=None)
@given(tampered_decompositions())
def test_verify_agrees_with_dense_reference(budget, dec):
    # a dropped block leaves edges uncovered, a copied one covers some twice
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decomp, "PAIR_BUDGET", budget)
        got = verify_decomposition(dec)
    want = ref.verify_decomposition(develop(dec))
    assert (got.ok, got.reason, got.witness) == (want.ok, want.reason, want.witness)


@pytest.mark.parametrize("budget", BUDGETS)
def test_a_later_non_injective_block_beats_an_earlier_illegal_edge(
        t8, t8_labeling, monkeypatch, budget):
    # block 0 gets an edge inside a part (10 and 5 are both 0 mod 5),
    # block 1 repeats a label; the dense order reports block 1
    dec = base_blocks(t8_labeling, 3, 2)
    blocks = dec.blocks.copy()
    blocks[0, 0] = 10
    blocks[1, 0] = blocks[1, 1]
    dec = replace(dec, blocks=blocks)
    monkeypatch.setattr(decomp, "PAIR_BUDGET", budget)
    report = verify_decomposition(dec)
    assert report.reason == "block-not-injective"
    assert report.witness[0] == dec.spec.v
    assert report == ref.verify_decomposition(develop(dec))


def _traced_peak(verify, dec):
    tracemalloc.start()
    try:
        assert verify(dec).ok
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_peaks_under_half_the_dense_reference():
    # v = 1620: the dense reference peaks near 83 MiB, 33 bytes per v^2
    # beside the development it is given, and the streaming check near
    # 23 MiB, most of it the count matrix
    dec = _grid_decomposition(2, 14, F2, 3)
    assert dec.spec.v == 1620
    dense = develop(dec)
    assert _traced_peak(verify_decomposition, dec) < \
        _traced_peak(ref.verify_decomposition, dense) / 2


def test_verify_peaks_at_its_count_matrix():
    # beside the 8 * v^2 bytes of counts, a chunk holds a few int64 arrays
    # of PAIR_BUDGET translated edges (about 42 bytes per edge measured);
    # the whole development of 3 * 1620 translates of 112 labels would be
    # 4.4 MB more, and twice that while its translates are reduced mod v
    dec = _grid_decomposition(2, 14, F2, 3)
    v = dec.spec.v
    assert v == 1620
    assert _traced_peak(verify_decomposition, dec) < 8 * v * v + 64 * decomp.PAIR_BUDGET


@pytest.mark.parametrize("grid,budget", [((1, 2, F1, 2), 1), ((1, 2, F1, 2), 251),
                                         ((2, 14, F2, 3), decomp.PAIR_BUDGET)])
def test_count_pairs_sees_every_translated_edge_once(monkeypatch, grid, budget):
    # the benchmark's trace sums count_pairs' pairs; chunking must not
    # change that sum, n * v * e, which is also the host's edge count
    sizes = []
    count_pairs = _kernels.count_pairs

    def counted(lo_ends, hi_ends, counts):
        sizes.append(lo_ends.shape[0])
        return count_pairs(lo_ends, hi_ends, counts)

    monkeypatch.setattr(_kernels, "count_pairs", counted)
    monkeypatch.setattr(decomp, "PAIR_BUDGET", budget)
    dec = _grid_decomposition(*grid)
    assert verify_decomposition(dec).ok
    assert len(sizes) > 1
    assert sum(sizes) == dec.n * dec.spec.v * dec.graph.num_edges == dec.spec.edge_count


def test_certificate_agrees_with_exhaustive_verify(t8, t8_labeling):
    # same verdict on the same evidence, by entirely different accounting
    for n in (1, 2):
        dec = base_blocks(t8_labeling, 3, n)
        assert check_difference_classes(dec).ok
        assert verify_decomposition(dec).ok


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family", [F1, F2, F4], ids=["f1", "f2", "f4"])
@pytest.mark.parametrize("k,m", [(1, 2), (1, 3), (2, 2), (3, 5)])
def test_high_class_matches_the_low_class_scatter(family, k, m, n):
    # the mask of labels above lambda against a scatter over the low class
    # of the loop reference's boundary
    lab = construct(k, m, family)
    d = family.divisor(m)
    want = ref.base_blocks(lab, ref_checking.check_alpha(lab), d, n)
    assert base_blocks(lab, d, n).blocks.tolist() == want


def test_high_class_matches_the_scatter_on_a_disconnected_graph():
    # P_4 + P_3 at d = 5 has 128 alpha-labelings; in 64 of them the two
    # components put opposite color classes low, so no one color class is
    # the high class
    g = SimpleGraph(7, ((0, 1), (1, 2), (2, 3), (4, 5), (5, 6)))
    rows = search(g, SearchConfig(d=5, alpha_only=True)).labelings
    assert len(rows) == 128
    for lab in rows:
        want = ref.base_blocks(lab, ref_checking.check_alpha(lab), 5, 3)
        assert base_blocks(lab, 5, 3).blocks.tolist() == want


def test_n2_requires_alpha_cert(t8):
    # a plain row that search lists for the prism at d = 3: edge (0, 1) carries
    # labels 0 and 1, edge (1, 2) labels 1 and 9, so no lambda has
    # 0 <= lambda < 1 and 1 <= lambda
    plain = Labeling(t8, (0, 1, 9, 13, 14, 8, 11, 2))
    assert check_d_graceful(plain, 3).ok
    assert check_alpha(plain) is None
    assert base_blocks(plain, 3, 1).blocks.tolist() == [list(plain.values)]
    with pytest.raises(ValueError, match="alpha certificate is required"):
        base_blocks(plain, 3, 2)


def test_bad_labeling_rejected(t8):
    clash = Labeling(t8, (7, 5, 9, 6, 0, 14, 1, 7))
    with pytest.raises(ValueError):
        base_blocks(clash, 3, 1)
    with pytest.raises(InvalidParametersError):
        base_blocks(clash, 3, 0)


def test_base_blocks_checks_a_labeling_once(t8, t8_labeling, monkeypatch):
    calls = []
    original = decomp.check_d_graceful

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(decomp, "check_d_graceful", counted)
    lab = Labeling(t8, t8_labeling.values)
    base_blocks(lab, 3, 1)
    assert len(calls) == 1
    # the first call's pass is recorded on the labeling, so no second check
    dec = base_blocks(lab, 3, 2)
    assert len(calls) == 1
    assert tuple(dec.blocks[0].tolist()) == t8_labeling.values


def test_proposition_table_k1_m2():
    rows = proposition_table(1, 2, 1)
    got = [(r.family.name, r.d, r.q, r.spec.parts, r.spec.part_size, r.spec.v)
           for r in rows]
    assert got == [("f1", 3, 4, 5, 6, 30),
                   ("f2", 6, 2, 3, 12, 36),
                   ("f4", 12, 1, 2, 24, 48)]
    assert [r.spec.describe() for r in rows] == ["K_{5x6}", "K_{3x12}", "K_{2x24}"]


def test_proposition_table_k1_m3():
    rows = proposition_table(1, 3, 1)
    got = [(r.d, r.spec.parts, r.spec.part_size) for r in rows]
    assert got == [(5, 5, 10), (10, 3, 20), (20, 2, 40)]


def test_proposition_table_k2_m2_n2():
    rows = proposition_table(2, 2, 2)
    got = [(r.d, r.spec.parts, r.spec.part_size, r.spec.v) for r in rows]
    assert got == [(3, 9, 12, 108), (6, 5, 24, 120), (12, 3, 48, 144)]


def test_proposition_table_validation():
    for bad in [(0, 2, 1), (1, 1, 1), (1, 2, 0)]:
        with pytest.raises(InvalidParametersError):
            proposition_table(*bad)


@pytest.mark.parametrize("family", [F1, F2, F4])
def test_table_rows_verify_end_to_end(family):
    lab = construct(1, 2, family)
    d = family.divisor(2)
    dec = base_blocks(lab, d, 1)
    row = proposition_table(1, 2, 1)[[F1, F2, F4].index(family)]
    assert dec.spec == row.spec
    assert verify_decomposition(dec).ok


@pytest.mark.parametrize("family,m,n", [(F1, 3, 1), (F1, 2, 3), (F2, 2, 2)])
def test_further_rows_verify(family, m, n):
    lab = construct(1, m, family)
    dec = base_blocks(lab, family.divisor(m), n)
    assert verify_decomposition(dec).ok
    assert check_difference_classes(dec).ok
