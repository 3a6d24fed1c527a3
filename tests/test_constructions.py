"""Prism labelings, layer patterns and the inductive extension."""

import hashlib

import pytest

from divgrace import (F1, F2, F4, FAMILIES, Family, Labeling, SeedMismatchError,
                      base_blocks, build_grid, check_alpha, check_d_graceful, construct,
                      extend, layer_pattern, prism_labeling, proposition_table,
                      seed_matches, verify_decomposition)
from reference_checking import difference_profile, edge_differences
from reference_constructions import prism_rows
from reference_grids import edges


def _interval(a, b):
    return set(range(a, b + 1))


def _reference_prism(k, variant):
    r1, r2 = prism_rows(k, variant)
    return Labeling(build_grid(k, 2), tuple(r1 + r2))


def test_prism_d3_k1_frozen():
    lab = prism_labeling(1, 3)
    assert lab.layer(1) == (7, 5, 9, 6)
    assert lab.layer(2) == (0, 14, 1, 12)


def test_prism_d6_k1_frozen():
    lab = prism_labeling(1, 6)
    assert lab.layer(1) == (8, 6, 11, 7)
    assert lab.layer(2) == (0, 17, 1, 14)


def test_prism_d12_k2_frozen():
    lab = prism_labeling(2, 12)
    assert lab.layer(1) == (17, 12, 23, 13, 21, 14, 18, 16)
    assert lab.layer(2) == (0, 35, 1, 33, 2, 30, 4, 29)


def test_prism_d12_k1_frozen():
    lab = prism_labeling(1, 12)
    assert lab.layer(1) == (11, 8, 15, 10)
    assert lab.layer(2) == (0, 23, 2, 19)


@pytest.mark.parametrize("k", [*range(1, 9), 63, 64])
def test_prism_d3_interval_claims(k):
    lab = prism_labeling(k, 3)
    prof = difference_profile(lab.graph, lab)
    assert set(prof.layer1) == _interval(1, 4 * k)
    assert set(prof.spokes) == _interval(4 * k + 2, 8 * k + 1)
    assert set(prof.layer2) == _interval(8 * k + 3, 12 * k + 2)


@pytest.mark.parametrize("k", [*range(1, 9), 63, 64])
def test_prism_d6_interval_claims(k):
    lab = prism_labeling(k, 6)
    prof = difference_profile(lab.graph, lab)
    assert set(prof.layer1) == _interval(1, 2 * k) | _interval(2 * k + 2, 4 * k + 1)
    assert set(prof.spokes) == (_interval(4 * k + 3, 6 * k + 2)
                                | _interval(6 * k + 4, 8 * k + 3))
    assert set(prof.layer2) == (_interval(8 * k + 5, 10 * k + 4)
                                | _interval(10 * k + 6, 12 * k + 5))


@pytest.mark.parametrize("k", [*range(1, 9), 63, 64])
def test_prism_d12_interval_claims(k):
    lab = prism_labeling(k, 12)
    prof = difference_profile(lab.graph, lab)
    assert set(prof.layer1) == _interval(1, 4 * k + 3) - {k + 1, 2 * k + 2, 3 * k + 3}
    assert set(prof.spokes) == (_interval(4 * k + 5, 8 * k + 7)
                                - {5 * k + 5, 6 * k + 6, 7 * k + 7})
    assert set(prof.layer2) == (_interval(8 * k + 9, 12 * k + 11)
                                - {9 * k + 9, 10 * k + 10, 11 * k + 11})


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize("variant", [3, 6, 12])
def test_prisms_verify(k, variant):
    lab = prism_labeling(k, variant)
    assert check_d_graceful(lab, variant).ok
    assert check_alpha(lab) is not None


@pytest.mark.parametrize("variant", [3, 6, 12])
def test_prism_equals_the_paper_formulas(variant):
    # k = 1..64 covers both parities of the 12-divisible formulas and every
    # piecewise threshold in them
    for k in range(1, 65):
        assert prism_labeling(k, variant).values == _reference_prism(k, variant).values


def test_prism_validation():
    with pytest.raises(ValueError):
        prism_labeling(0, 3)
    with pytest.raises(ValueError):
        prism_labeling(1, 5)


def test_layer_pattern_frozen_examples():
    assert layer_pattern(F1, 1, 25) == (0, 24, 1, 22)
    assert layer_pattern(F4, 2, 36) == (0, 35, 1, 33, 2, 30, 4, 29)
    assert layer_pattern(F4, 1, 24) == (0, 23, 2, 19)


@pytest.mark.parametrize("family", [F1, F2, F4])
@pytest.mark.parametrize("k", range(1, 7))
def test_layer_pattern_shape(family, k):
    ceiling = family.shift(k) * 5
    pat = layer_pattern(family, k, ceiling)
    assert len(pat) == 4 * k
    assert pat[0] == 0
    lows = pat[::2]
    assert tuple(sorted(set(lows))) == lows
    highs = set(pat[1::2])
    assert max(lows) < min(highs)
    assert all(0 <= val < ceiling for val in pat)
    assert ceiling - 1 in highs


def test_layer_pattern_rejects_tiny_ceiling():
    with pytest.raises(ValueError):
        layer_pattern(F1, 2, 6)


def test_seed_positions():
    assert seed_matches(prism_labeling(1, 3), F1) == 1
    assert seed_matches(construct(1, 3, F1), F1) == 2


@pytest.mark.parametrize("k,variant,family", [(1, 3, F1), (2, 6, F2), (1, 12, F4),
                                              (2, 12, F4), (3, 12, F4)])
def test_prism_top_layer_carries_the_pattern(k, variant, family):
    assert seed_matches(prism_labeling(k, variant), family) is not None


def test_seed_mismatch_on_flat_layer():
    g = build_grid(1, 2)
    flat = Labeling(g, (7, 5, 9, 6, 0, 0, 0, 0))
    assert seed_matches(flat, F1) is None
    with pytest.raises(SeedMismatchError):
        extend(flat, F1)


def test_extend_worked_example():
    lab = extend(prism_labeling(1, 3), F1)
    assert lab.graph.m == 3
    assert lab.layer(1) == (12, 10, 14, 11)
    assert lab.layer(2) == (5, 19, 6, 17)
    assert lab.layer(3) == (22, 0, 24, 1)
    assert check_d_graceful(lab, 5).ok
    g = lab.graph
    spokes = {abs(lab.values[g.vertex_index((2, j))] - lab.values[g.vertex_index((3, j))])
              for j in range(1, 5)}
    assert spokes == {16, 17, 18, 19}
    ring3 = lab.layer(3)
    new_ring = {abs(ring3[j % 4] - ring3[j - 1]) for j in range(1, 5)}
    assert new_ring == {21, 22, 23, 24}


def test_extend_shifts_old_differences_rigidly():
    base = prism_labeling(2, 6)
    out = extend(base, F2)
    # every edge already present keeps its difference under the shift
    old_diffs = edge_differences(base.graph, base)
    at = out.graph.vertex_index
    for (u, w), expect in zip(edges(base.graph), old_diffs):
        assert abs(out.values[at(u)] - out.values[at(w)]) == expect


@pytest.mark.parametrize("family", [F1, F2, F4])
@pytest.mark.parametrize("k", range(1, 5))
@pytest.mark.parametrize("m", range(2, 6))
def test_construct_verifies_everywhere(family, k, m):
    lab = construct(k, m, family)
    d = family.divisor(m)
    assert check_d_graceful(lab, d).ok
    cert = check_alpha(lab)
    assert cert is not None
    q = lab.graph.num_edges // d
    assert 0 in lab.values
    assert d * (q + 1) - 1 in lab.values
    assert seed_matches(lab, family) is not None


def test_construct_labels_frozen_digest():
    # sha256 of the label tuples for every family at k <= 8, m <= 12, as
    # written by the layer-by-layer build before construct became one pass
    h = hashlib.sha256()
    for family in (F1, F2, F4):
        for k in range(1, 9):
            for m in range(2, 13):
                h.update(repr(construct(k, m, family).values).encode())
    assert h.hexdigest() == "1a724f6f2a7744b158b033209450aed45b1611db2afd19abbcc07a949f80cec3"


@pytest.mark.parametrize("family", [F1, F2, F4])
@pytest.mark.parametrize("k", range(1, 7))
def test_construct_equals_extend_chain(family, k):
    # k = 1..6 covers both parities of f4's rules; the chain starts from the
    # paper's prism formulas, so it shares only layer_pattern with construct
    lab = _reference_prism(k, family.divisor(2))
    for m in range(2, 13):
        assert construct(k, m, family) == lab
        lab = extend(lab, family)


def _mu8_rule(k):
    # a base pattern for mu = 8 at k = 4, found by search: lows
    # {0, 1, 2, 3, 4, 6, 8, 10}; no closed form in k is known yet
    assert k == 4
    return {5, 7, 9}, {2, 4, 6, 8, 9, 14, 15}


def test_a_family_is_data():
    t8 = Family("t8", 8, _mu8_rule)
    lab = construct(4, 2, t8)
    for m in range(2, 13):
        assert construct(4, m, t8) == lab
        assert check_d_graceful(lab, t8.divisor(m)).ok
        assert lab.alpha_boundary is not None
        assert seed_matches(lab, t8) is not None
        lab = extend(lab, t8)
    dec = base_blocks(construct(4, 3, t8), 40, 2)
    assert (dec.spec.parts, dec.spec.part_size, dec.spec.v) == (3, 160, 480)
    assert verify_decomposition(dec).ok


def test_a_registered_family_is_a_table_row(monkeypatch):
    def row(target):
        return target.family.name, target.d, target.spec.describe()

    paper = [row(target) for target in proposition_table(4, 3, 2)]
    assert paper == [("f1", 5, "K_{17x20}"), ("f2", 10, "K_{9x40}"),
                     ("f4", 20, "K_{5x80}")]
    with pytest.raises(ValueError, match="^variant must be 3, 6 or 12, got 5$"):
        prism_labeling(1, 5)
    monkeypatch.setitem(FAMILIES, "t8", Family("t8", 8, _mu8_rule))
    rows = [row(target) for target in proposition_table(4, 3, 2)]
    assert rows == paper + [("t8", 40, "K_{3x160}")]
    with pytest.raises(ValueError, match="^variant must be 3, 6, 12 or 24, got 5$"):
        prism_labeling(1, 5)
    assert prism_labeling(4, 24) == construct(4, 2, FAMILIES["t8"])


def test_construct_m2_is_the_prism():
    assert construct(1, 2, F1).values == _reference_prism(1, 3).values
    assert construct(2, 2, F4).values == _reference_prism(2, 12).values


def test_construct_validation():
    with pytest.raises(ValueError):
        construct(0, 2, F1)
    with pytest.raises(ValueError):
        construct(1, 1, F1)


def test_family_constants():
    assert (F1.divisor(3), F2.divisor(3), F4.divisor(3)) == (5, 10, 20)
    assert (F1.shift(1), F2.shift(1), F4.shift(1)) == (5, 6, 8)
    assert (F1.divisor(2), F2.divisor(2), F4.divisor(2)) == (3, 6, 12)
