"""Acceptance gate: six criteria, one verdict line each.

Each criterion prints "ACCEPTANCE n: PASS" or "ACCEPTANCE n: FAIL" on
the real terminal (capture suspended) so the verdicts always show.
Timed criteria assert their budget inside the test, and the budget
covers every call the criterion makes.
"""

import math
import random
import time
from contextlib import contextmanager

from divgrace import (F1, F2, F4, InvalidParametersError, Labeling, SearchConfig,
                      SimpleGraph, base_blocks, build_grid, check_alpha,
                      check_d_graceful, construct, cross_validate, develop,
                      prism_labeling, search, seed_matches, verify_decomposition)
from reference_checking import difference_profile, edge_differences


@contextmanager
def _criterion(number, capsys, budget=None):
    start = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - start
        assert budget is None or elapsed < budget, (
            f"criterion {number} took {elapsed:.2f}s, budget {budget}s")
        ok = True
    finally:
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}", flush=True)


def _interval(a, b):
    return set(range(a, b + 1))


def _d3_claims(k):
    return (_interval(1, 4 * k),
            _interval(4 * k + 2, 8 * k + 1),
            _interval(8 * k + 3, 12 * k + 2))


def _d6_claims(k):
    return (_interval(1, 2 * k) | _interval(2 * k + 2, 4 * k + 1),
            _interval(4 * k + 3, 6 * k + 2) | _interval(6 * k + 4, 8 * k + 3),
            _interval(8 * k + 5, 10 * k + 4) | _interval(10 * k + 6, 12 * k + 5))


def _d12_claims(k):
    return (_interval(1, 4 * k + 3) - {k + 1, 2 * k + 2, 3 * k + 3},
            _interval(4 * k + 5, 8 * k + 7) - {5 * k + 5, 6 * k + 6, 7 * k + 7},
            _interval(8 * k + 9, 12 * k + 11) - {9 * k + 9, 10 * k + 10, 11 * k + 11})


def test_criterion_1_prism_interval_claims(capsys):
    claims = {3: _d3_claims, 6: _d6_claims, 12: _d12_claims}
    with _criterion(1, capsys, budget=1.0):
        for k in range(1, 9):
            for variant, claim in claims.items():
                lab = prism_labeling(k, variant)
                assert check_d_graceful(lab, variant).ok
                assert check_alpha(lab) is not None
                ring1, spokes, ring2 = claim(k)
                prof = difference_profile(lab.graph, lab)
                assert set(prof.layer1) == ring1
                assert set(prof.spokes) == spokes
                assert set(prof.layer2) == ring2


def test_criterion_2_inductive_families(capsys):
    with _criterion(2, capsys, budget=5.0):
        for k in range(1, 7):
            for m in range(2, 7):
                for family in (F1, F2, F4):
                    lab = construct(k, m, family)
                    d = family.multiplier * (2 * m - 1)
                    assert check_d_graceful(lab, d).ok
                    assert check_alpha(lab) is not None
                    q = lab.graph.num_edges // d
                    assert 0 in lab.values
                    assert d * (q + 1) - 1 in lab.values
                    assert seed_matches(lab, family) is not None


def test_criterion_3_worked_example(capsys):
    with _criterion(3, capsys):
        lab = construct(1, 3, F1)
        assert lab.layer(1) == (12, 10, 14, 11)
        assert lab.layer(2) == (5, 19, 6, 17)
        assert lab.layer(3) == (22, 0, 24, 1)
        at = lab.graph.vertex_index
        spokes = {abs(lab.values[at((2, j))] - lab.values[at((3, j))])
                  for j in range(1, 5)}
        assert spokes == {16, 17, 18, 19}
        ring = lab.layer(3)
        new_cycle = {abs(ring[j % 4] - ring[j - 1]) for j in range(1, 5)}
        assert new_cycle == {21, 22, 23, 24}


def test_criterion_4_decomposition_edge_counts(capsys):
    cases = [
        ((1, 2, F1, 1), 5, 6, 360),
        ((1, 2, F1, 2), 5, 12, 1440),
        ((1, 3, F1, 1), 5, 10, 1000),
        ((1, 2, F2, 1), 3, 12, 432),
        ((2, 2, F1, 1), 9, 6, 1296),
    ]
    with _criterion(4, capsys, budget=10.0):
        for (k, m, family, n), parts, size, edges in cases:
            lab = construct(k, m, family)
            cert = check_alpha(lab)
            dec = develop(base_blocks(lab, cert, family.divisor(m), n))
            assert (dec.spec.parts, dec.spec.part_size) == (parts, size)
            assert dec.spec.edge_count == edges
            v = parts * size
            assert edges == math.comb(v, 2) - parts * math.comb(size, 2)
            assert edges == n * v * lab.graph.num_edges
            assert verify_decomposition(dec).ok


def test_criterion_5_oracle_equivalence(capsys):
    edge = SimpleGraph(2, ((0, 1),))
    c4 = SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    t8 = build_grid(1, 2)
    with _criterion(5, capsys, budget=60.0):
        res = search(edge, SearchConfig(d=1))
        assert res.count == 2
        res = search(c4, SearchConfig(d=1))
        assert res.count >= 1
        for lab in res.labelings:
            assert check_d_graceful(lab, 1).ok
        res = search(t8, SearchConfig(d=3, alpha_only=True))
        assert res.count >= 1
        for lab in res.labelings:
            assert check_d_graceful(lab, 3).ok
            assert check_alpha(lab) is not None
        cases = [(1, 2, F1), (1, 2, F2), (1, 2, F4), (1, 3, F1), (2, 2, F1)]
        built = [(construct(k, m, fam), fam.divisor(m)) for k, m, fam in cases]
        rng = random.Random(2026)
        rejected = 0
        while rejected < 1000:
            base, d = built[rejected % len(built)]
            span = d * (base.graph.num_edges // d + 1)
            vals = list(base.values)
            x = rng.randrange(len(vals))
            vals[x] = rng.choice([c for c in range(span) if c != vals[x]])
            perturbed = Labeling(base.graph, tuple(vals))
            if check_d_graceful(perturbed, d).ok:
                # a rare symmetric relabeling can stay valid; not a perturbation
                continue
            report = cross_validate(perturbed, SearchConfig(d=d))
            assert report.ok, report.describe()
            assert report.reason == "agree-reject"
            rejected += 1


def test_criterion_6_definitional_edge_cases(capsys):
    with _criterion(6, capsys):
        lab = prism_labeling(1, 12)
        g = lab.graph
        assert g.num_edges == 12
        diffs = set(edge_differences(g, lab))
        assert diffs == set(range(1, 24, 2))
        assert check_d_graceful(lab, 12).ok
        try:
            check_d_graceful(lab, 5)
        except InvalidParametersError:
            pass
        else:
            raise AssertionError("d=5 must be rejected for 12 edges")
        try:
            search(g, SearchConfig(d=7))
        except InvalidParametersError:
            pass
        else:
            raise AssertionError("search must reject d=7 for 12 edges")
