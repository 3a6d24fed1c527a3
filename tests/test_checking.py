"""The d-divisible graceful checker, alpha checker and difference profiles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_checking as ref
from divgrace import (F1, F2, F4, InvalidParametersError, Labeling,
                      SimpleGraph, build_grid, check_alpha, check_d_graceful,
                      construct, d_params)
from divgrace import checking


def test_d_params_12_3():
    p = d_params(12, 3)
    assert (p.q, p.max_label) == (4, 14)
    assert p.forbidden == {5, 10, 15}
    assert [list(b) for b in ref.blocks(p)] == [[1, 2, 3, 4], [6, 7, 8, 9], [11, 12, 13, 14]]


def test_d_params_odd_graceful_limit():
    p = d_params(12, 12)
    assert (p.q, p.max_label) == (1, 23)
    assert p.forbidden == set(range(2, 25, 2))
    assert p.allowed == set(range(1, 24, 2))


def test_d_params_rejects_non_divisor():
    with pytest.raises(InvalidParametersError):
        d_params(12, 5)
    with pytest.raises(InvalidParametersError):
        d_params(10, 0)


@pytest.mark.parametrize("e,d", [(12, 1), (12, 2), (12, 3), (12, 4), (12, 6),
                                 (12, 12), (20, 5), (24, 8)])
def test_d_params_blocks_partition_the_range(e, d):
    p = d_params(e, d)
    values = set(p.forbidden)
    for block in ref.blocks(p):
        block = set(block)
        assert len(block) == p.q
        assert not (block & values)
        values |= block
    assert values == set(range(1, d * (p.q + 1) + 1))
    assert p.allowed == values - p.forbidden


def test_t8_labeling_passes(t8, t8_labeling):
    assert check_d_graceful(t8_labeling, 3).ok


def test_single_edge_classical_graceful():
    g = SimpleGraph(2, ((0, 1),))
    assert check_d_graceful(Labeling(g, (0, 1)), 1).ok
    report = check_d_graceful(Labeling(g, (0, 0)), 1)
    assert report.reason == "duplicate-label"


def test_path_graceful():
    g = SimpleGraph(4, ((0, 1), (1, 2), (2, 3)))
    assert check_d_graceful(Labeling(g, (0, 3, 1, 2)), 1).ok


@pytest.mark.parametrize("bad", [7.9, 12.5, 7.0, "7", None])
def test_labeling_rejects_non_integer_labels(t8, bad):
    with pytest.raises(ValueError, match="integers"):
        Labeling(t8, (bad, 5, 9, 6, 0, 14, 1, 12))


def test_labeling_accepts_numpy_integers(t8, t8_labeling):
    lab = Labeling(t8, tuple(np.array(t8_labeling.values, dtype=np.int64)))
    assert lab.values == t8_labeling.values
    assert all(type(x) is int for x in lab.values)
    assert check_d_graceful(lab, 3).ok


def test_swapped_labels_duplicate_a_difference(t8):
    swapped = Labeling(t8, (5, 7, 9, 6, 0, 14, 1, 12))
    report = check_d_graceful(swapped, 3)
    assert not report
    assert report.reason == "duplicate-difference"
    assert report.witness[1] == 2


def test_out_of_range_label(t8, t8_labeling):
    values = list(t8_labeling.values)
    values[values.index(14)] = 15
    report = check_d_graceful(Labeling(t8, tuple(values)), 3)
    assert report.reason == "label-out-of-range"


def test_forbidden_difference_reported(t8):
    # relabeling (2,3) to 4 puts the forbidden difference 10 on a ring edge
    lab = Labeling(t8, (7, 5, 9, 6, 0, 14, 4, 12))
    report = check_d_graceful(lab, 3)
    assert not report
    assert report.reason == "forbidden-difference"
    assert report.witness[1] == 10


def test_complement_preserves_the_condition(t8, t8_labeling):
    comp = Labeling(t8, tuple(14 - v for v in t8_labeling.values))
    assert check_d_graceful(comp, 3).ok


def test_checker_rejects_wrong_divisor(t8, t8_labeling):
    with pytest.raises(InvalidParametersError):
        check_d_graceful(t8_labeling, 5)


def test_labeling_validation(t8):
    with pytest.raises(ValueError):
        Labeling(t8, (0, 1, 2))
    with pytest.raises(ValueError):
        Labeling(t8, (-1, 1, 2, 3, 4, 5, 6, 7))


def _low_class(lab, boundary):
    return np.flatnonzero(lab.array <= boundary).tolist()


def test_alpha_t8(t8, t8_labeling):
    boundary = check_alpha(t8_labeling)
    assert boundary == 6
    assert type(boundary) is int
    low = _low_class(t8_labeling, boundary)
    assert {t8_labeling.values[x] for x in low} == {0, 1, 5, 6}
    assert low == [1, 3, 4, 6]


def test_alpha_cert_is_kept(t8, t8_labeling, monkeypatch):
    calls = []
    original = checking.check_alpha

    def counted(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(checking, "check_alpha", counted)
    for values, boundary in ((t8_labeling.values, 6), ((6, 5, 9, 6, 0, 14, 1, 7), None)):
        lab = Labeling(t8, values)
        assert lab.alpha_boundary == original(lab)
        assert lab.alpha_boundary == boundary
        assert lab.alpha_boundary is lab.alpha_boundary
    # one check per labeling, the failed one included
    assert len(calls) == 2


def test_alpha_single_edge():
    g = SimpleGraph(2, ((0, 1),))
    # the boundary 0 is an answer, not a failure: test it with `is None`
    boundary = check_alpha(Labeling(g, (0, 1)))
    assert boundary is not None and boundary == 0


def test_alpha_boundary_violation(t8):
    # pull one label from each side across the boundary
    lab = Labeling(t8, (6, 5, 9, 6, 0, 14, 1, 7))
    assert check_alpha(lab) is None


def test_alpha_rejects_non_bipartite():
    # an odd cycle has an edge whose ends are both low or both high
    triangle = SimpleGraph(3, ((0, 1), (1, 2), (0, 2)))
    assert check_alpha(Labeling(triangle, (0, 1, 3))) is None


def test_alpha_on_a_disconnected_graph():
    # P_2 + P_2 + K_1: the boundary is the largest lower end, 2; the
    # second edge's low end is vertex 3, and the lone vertex is high
    g = SimpleGraph(5, ((0, 1), (2, 3)))
    lab = Labeling(g, (0, 4, 3, 2, 6))
    assert check_alpha(lab) == 2
    assert _low_class(lab, 2) == [0, 3]
    # an edge wholly below the other leaves no boundary
    assert check_alpha(Labeling(g, (0, 1, 3, 4, 6))) is None


def test_alpha_without_edges():
    # every vertex is low and the boundary is the largest label
    lab = Labeling(SimpleGraph(3, ()), (4, 0, 2))
    assert check_alpha(lab) == 4
    assert _low_class(lab, 4) == [0, 1, 2]


def test_profile_t8_d3(t8, t8_labeling):
    prof = ref.difference_profile(t8, t8_labeling)
    assert set(prof.layer1) == {1, 2, 3, 4}
    assert set(prof.spokes) == {6, 7, 8, 9}
    assert set(prof.layer2) == {11, 12, 13, 14}
    assert sorted(prof.full) == sorted(prof.layer1 + prof.layer2 + prof.spokes)


def test_profile_t8_d6(t8):
    lab = Labeling(t8, (8, 6, 11, 7, 0, 17, 1, 14))
    prof = ref.difference_profile(t8, lab)
    assert set(prof.layer1) == {1, 2, 4, 5}
    assert set(prof.spokes) == {7, 8, 10, 11}
    assert set(prof.layer2) == {13, 14, 16, 17}


def test_profile_constant_labeling_is_all_zero(t8):
    prof = ref.difference_profile(t8, Labeling(t8, (0,) * 8))
    assert set(prof.layer1) == set(prof.layer2) == set(prof.spokes) == {0}


def test_profile_rejects_deeper_grids():
    g = build_grid(1, 3)
    with pytest.raises(ValueError):
        ref.difference_profile(g, Labeling(g, tuple(range(12))))


def test_differences_fill_each_block_exactly(t8, t8_labeling):
    # a passing labeling places exactly q differences in every block
    params = d_params(12, 3)
    diffs = ref.edge_differences(t8, t8_labeling)
    for block in ref.blocks(params):
        assert sum(1 for delta in diffs if delta in block) == params.q


GRID_CASES = [(k, m, family) for k in (1, 2) for m in (2, 3) for family in (F1, F2, F4)]


@st.composite
def grid_labelings(draw):
    """A constructed labeling, then a few permutations, swaps, bumps and copies."""
    k, m, family = draw(st.sampled_from(GRID_CASES))
    d = family.divisor(m)
    values = list(construct(k, m, family).values)
    top = max(values)
    n = len(values)
    kinds = st.sampled_from(["permute", "swap", "bump", "copy"])
    for kind in draw(st.lists(kinds, max_size=3)):
        if kind == "permute":
            values = list(draw(st.permutations(values)))
            continue
        if kind == "bump":
            values[draw(st.integers(0, n - 1))] = draw(st.integers(top + 1, 2 ** 40))
            continue
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        if kind == "swap":
            values[i], values[j] = values[j], values[i]
        else:
            values[j] = values[i]
    return Labeling(build_grid(k, m), tuple(values)), d


@st.composite
def simple_labelings(draw):
    """Arbitrary labels of a small simple graph, and a divisor of its edge count."""
    n = draw(st.integers(2, 7))
    pairs = [(u, w) for u in range(n) for w in range(u + 1, n)]
    edges = tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    g = SimpleGraph(n, edges)
    e = len(edges)
    d = draw(st.sampled_from([x for x in range(1, e + 1) if e % x == 0]))
    span = d * (e // d + 1)
    distinct = span + 2 >= n and draw(st.booleans())
    values = draw(st.lists(st.integers(0, span + 1), min_size=n, max_size=n,
                           unique=distinct))
    return Labeling(g, tuple(values)), d


def _same_report(lab, d):
    fast = check_d_graceful(lab, d)
    slow = ref.check_d_graceful(lab, d)
    assert fast == slow
    assert fast.describe() == slow.describe()


def _same_alpha(lab):
    assert check_alpha(lab) == ref.check_alpha(lab)


@settings(max_examples=300, deadline=None)
@given(grid_labelings())
def test_checkers_match_reference_on_grids(case):
    lab, d = case
    _same_report(lab, d)
    _same_alpha(lab)


@settings(max_examples=300, deadline=None)
@given(simple_labelings())
def test_checkers_match_reference_on_simple_graphs(case):
    lab, d = case
    _same_report(lab, d)
    _same_alpha(lab)


@pytest.mark.parametrize("index", [4, 5])
def test_labels_beyond_int64(t8, t8_labeling, index):
    values = list(t8_labeling.values)
    values[index] = 2 ** 70
    lab = Labeling(t8, tuple(values))
    report = check_d_graceful(lab, 3)
    assert report == ref.check_d_graceful(lab, 3)
    assert report.witness == (index, 2 ** 70, 14)
    assert check_alpha(lab) == ref.check_alpha(lab)


@pytest.mark.parametrize("index", [4, 5])
def test_label_above_range_within_int64(t8, t8_labeling, index):
    # fits int64, so the label array stays int64, but it is far above
    # max_label: the range check must report it before any bincount
    values = list(t8_labeling.values)
    values[index] = 10 ** 15
    lab = Labeling(t8, tuple(values))
    assert lab.array.dtype == np.int64
    report = check_d_graceful(lab, 3)
    assert report == ref.check_d_graceful(lab, 3)
    assert report.witness == (index, 10 ** 15, 14)
    assert check_alpha(lab) == ref.check_alpha(lab)


def test_labeling_array_is_built_once(t8, t8_labeling):
    arr = t8_labeling.array
    assert arr.dtype == np.int64
    assert arr.tolist() == list(t8_labeling.values)
    assert t8_labeling.array is arr
    with pytest.raises(ValueError):
        arr[0] = 1
    big = Labeling(t8, (2 ** 70,) + t8_labeling.values[1:])
    assert big.array.dtype == object
    assert big.array.tolist() == list(big.values)


def test_a_pass_is_recorded_on_the_labeling(t8, t8_labeling):
    lab = Labeling(t8, t8_labeling.values)
    assert lab.passed_d == set()
    assert not check_d_graceful(lab, 6)
    assert lab.passed_d == set()
    assert check_d_graceful(lab, 3)
    assert lab.passed_d == {3}
    # the record is not part of the value
    assert lab == Labeling(t8, t8_labeling.values)
    assert hash(lab) == hash(Labeling(t8, t8_labeling.values))

