"""JSON certificate round trips and DOT export."""

import json
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divgrace import (F1, Labeling, SimpleGraph, base_blocks, build_grid,
                      check_alpha, construct)
from divgrace import certificates, cli
from divgrace.certificates import (CertificateError, decomposition_from_obj,
                                   decomposition_to_obj, dot_export, dumps,
                                   graph_from_obj, graph_to_obj,
                                   labeling_from_obj, labeling_to_obj,
                                   read_json, read_labeling, write_labeling)


def test_grid_graph_round_trip():
    g = build_grid(2, 3)
    obj = graph_to_obj(g)
    assert obj == {"kind": "grid", "k": 2, "m": 3}
    assert graph_from_obj(obj) == g


def test_simple_graph_round_trip():
    g = SimpleGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    back = graph_from_obj(graph_to_obj(g))
    assert back == g


def test_labeling_obj_key_order(t8_labeling):
    cert = check_alpha(t8_labeling)
    obj = labeling_to_obj(t8_labeling, 3, cert)
    assert list(obj) == ["graph", "d", "labels", "alpha"]
    assert obj["labels"] == [7, 5, 9, 6, 0, 14, 1, 12]
    assert obj["alpha"] == {"low_class": [1, 3, 4, 6], "lambda": 6}


def test_labeling_round_trip(t8_labeling):
    cert = check_alpha(t8_labeling)
    obj = labeling_to_obj(t8_labeling, 3, cert)
    lab, d, alpha = labeling_from_obj(json.loads(dumps(obj)))
    assert lab.values == t8_labeling.values
    assert lab.graph == t8_labeling.graph
    assert d == 3
    assert alpha == cert


def test_file_round_trip_is_byte_identical(tmp_path, t8_labeling):
    cert = check_alpha(t8_labeling)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    write_labeling(first, t8_labeling, 3, cert)
    lab, d, alpha = read_labeling(first)
    write_labeling(second, lab, d, alpha)
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().endswith("}\n")


def test_alpha_block_optional(t8_labeling):
    obj = labeling_to_obj(t8_labeling, 3)
    assert "alpha" not in obj
    _, _, alpha = labeling_from_obj(obj)
    assert alpha is None


def test_decomposition_round_trip(t8, t8_labeling):
    dec = base_blocks(t8_labeling, 3, 2)
    obj = decomposition_to_obj(dec)
    assert list(obj) == ["q", "d", "n", "v", "base_blocks"]
    record = decomposition_from_obj(json.loads(dumps(obj)))
    assert record == {"q": 4, "d": 3, "n": 2, "v": 60,
                      "base_blocks": dec.blocks.tolist()}


T8 = {"kind": "grid", "k": 1, "m": 2}
T8_LABELS = [7, 5, 9, 6, 0, 14, 1, 12]


@pytest.mark.parametrize("obj", [
    [],
    {"kind": "torus"},
    {"kind": "grid", "k": 0, "m": 2},
    {"kind": "simple", "n": 2, "edges": [[0, 5]]},
    "grid",
    {"kind": "grid", "k": 1.7, "m": 2},
    {"kind": "grid", "k": "1", "m": 2},
    {"kind": "grid", "k": 1, "m": True},
    {"kind": "simple", "n": 2.0, "edges": [[0, 1]]},
    {"kind": "simple", "n": 2, "edges": [[0, 1.0]]},
    {"kind": "simple", "n": 2, "edges": [["0", 1]]},
    {"kind": "simple", "n": 2, "edges": "01"},
    {"kind": "simple", "n": 2, "edges": {"0": 1}},
    {"kind": "simple", "n": 2, "edges": ["01"]},
    {"kind": "simple", "n": 3, "edges": [[0, 1, 2]]},
])
def test_bad_graph_objects(obj):
    with pytest.raises(CertificateError):
        graph_from_obj(obj)


@pytest.mark.parametrize("obj", [
    {},
    {"graph": {"kind": "grid", "k": 1, "m": 2}, "d": 3},
    {"graph": {"kind": "grid", "k": 1, "m": 2}, "d": 3, "labels": [1, 2]},
    {"graph": {"kind": "grid", "k": 1, "m": 2}, "d": 3,
     "labels": [7, 5, 9, 6, 0, 14, 1, "x"]},
    42,
    {"graph": T8, "d": 3, "labels": [7.9, 5, 9, 6, 0, 14, 1, 12]},
    {"graph": T8, "d": 3, "labels": ["7", "5", "9", "6", "0", "14", "1", "12"]},
    {"graph": T8, "d": 3, "labels": [True, 5, 9, 6, 0, 14, 1, 12]},
    {"graph": T8, "d": "3", "labels": T8_LABELS},
    {"graph": T8, "d": 3.0, "labels": T8_LABELS},
    {"graph": {"kind": "grid", "k": 1.7, "m": 2}, "d": 3, "labels": T8_LABELS},
    {"graph": T8, "d": 3, "labels": "75960141"},
    {"graph": T8, "d": 3, "labels": dict.fromkeys("abcdefgh", 1)},
    {"graph": T8, "d": 3, "labels": T8_LABELS,
     "alpha": {"low_class": [1, 3, 4, 6.0], "lambda": 6}},
    {"graph": T8, "d": 3, "labels": T8_LABELS,
     "alpha": {"low_class": "1346", "lambda": 6}},
    {"graph": T8, "d": 3, "labels": T8_LABELS,
     "alpha": {"low_class": [1, 3, 4, 6], "lambda": 6.5}},
    {"graph": T8, "d": 3, "labels": T8_LABELS, "alpha": [[1, 3, 4, 6], 6]},
    {"graph": T8, "d": 3, "labels": T8_LABELS,
     "alpha": {"low_class": [1, 3, 4, 6, 6], "lambda": 6}},
    {"graph": T8, "d": 3, "labels": T8_LABELS,
     "alpha": {"low_class": [1, 1, 3, 4], "lambda": 6}},
    {"graph": T8, "d": 3, "labels": T8_LABELS,
     "alpha": {"low_class": [1, 3, 4, 8], "lambda": 6}},
    {"graph": T8, "d": 3, "labels": T8_LABELS,
     "alpha": {"low_class": [-1, 1, 3, 4, 6], "lambda": 6}},
    # in the middle, and each what the label it replaces would become in an
    # int64 array, so a list converted before its types are checked passes
    {"graph": T8, "d": 3, "labels": [7, 5, 9, 6, 0, 14, True, 12]},
    {"graph": T8, "d": 3, "labels": [7, 5, 9, 6.5, 0, 14, 1, 12]},
])
def test_bad_labeling_objects(obj):
    with pytest.raises(CertificateError):
        labeling_from_obj(obj)


def test_bad_alpha_block(t8_labeling):
    obj = labeling_to_obj(t8_labeling, 3)
    # True would become index 1 in an int64 array, which gives the true low
    # class [1, 3, 4, 6], stated first or in the middle
    for alpha in ({"lambda": 6},
                  {"low_class": [True, 3, 4, 6], "lambda": 6},
                  {"low_class": [3, True, 4, 6], "lambda": 6}):
        obj["alpha"] = alpha
        with pytest.raises(CertificateError, match="low_class"):
            labeling_from_obj(obj)


def test_a_labeling_from_an_array_equals_one_from_a_list(tmp_path, t8, t8_labeling):
    given = np.array(t8_labeling.values, dtype=np.int64)
    from_array = Labeling(t8, given)
    from_list = Labeling(t8, list(t8_labeling.values))
    assert from_array == from_list
    assert hash(from_array) == hash(from_list)
    for lab in (from_array, from_list):
        assert lab.values == (7, 5, 9, 6, 0, 14, 1, 12)
        assert all(type(x) is int for x in lab.values)
        assert lab.array.dtype == np.int64
        assert not lab.array.flags.writeable
        with pytest.raises(ValueError):
            lab.array[0] = 1
    # the labeling keeps its own copy: writing to the caller's array after
    # the fact changes nothing
    assert not np.shares_memory(from_array.array, given)
    given[0] = 8
    assert from_array.values[0] == 7
    assert check_alpha(from_array) == check_alpha(from_list)
    paths = tmp_path / "array.json", tmp_path / "list.json"
    write_labeling(paths[0], from_array, 3, check_alpha(from_array))
    write_labeling(paths[1], from_list, 3, check_alpha(from_list))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_bad_decomposition_objects():
    good = {"q": 4, "d": 3, "n": 1, "v": 30, "base_blocks": [T8_LABELS]}
    assert decomposition_from_obj(good) == good
    bad = [
        {"q": 4, "d": 3, "n": 1},
        {**good, "base_blocks": [["x"]]},
        {**good, "q": 4.0},
        {**good, "d": "3"},
        {**good, "n": True},
        {**good, "v": 30.5},
        {**good, "base_blocks": [[7.9, 5, 9, 6, 0, 14, 1, 12]]},
        {**good, "base_blocks": ["75960141"]},
        {**good, "base_blocks": "75960141"},
        {**good, "base_blocks": {"0": T8_LABELS}},
    ]
    for obj in bad:
        with pytest.raises(CertificateError):
            decomposition_from_obj(obj)


def test_unreadable_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CertificateError):
        read_labeling(bad)


def _widest_certificate(size):
    # a simple graph with `size` vertices and edges, every number 7 digits
    # wide as the largest labels below MAX_V / 2 are
    big = 1_999_999 - size
    return {"graph": {"kind": "simple", "n": big,
                      "edges": [[big + i, big + i + 1] for i in range(size)]},
            "d": big, "labels": [big + i for i in range(size)],
            "alpha": {"low_class": [big + i for i in range(size)], "lambda": big}}


def test_read_limit_admits_the_largest_certificate():
    # a certificate grows by the same bytes per vertex-and-edge pair at
    # every size, and MAX_V allows at most MAX_V / 2 pairs
    small, large = (len(dumps(_widest_certificate(size))) for size in (1000, 2000))
    per_pair = (large - small) // 1000
    largest = small + per_pair * (cli.MAX_V // 2 - 1000)
    assert largest <= certificates.MAX_FILE_BYTES < largest + 4096


def test_read_refuses_an_oversized_file_unread(tmp_path):
    path = tmp_path / "big.json"
    with open(path, "wb") as fh:  # sparse: no disk blocks behind the size
        fh.truncate(certificates.MAX_FILE_BYTES + 1)
    tracemalloc.start()
    try:
        with pytest.raises(CertificateError, match="file too large"):
            read_json(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


def test_read_limit_holds_for_a_pipe(tmp_path, monkeypatch):
    # a pipe has no size to check first, so the read itself is bounded
    monkeypatch.setattr(certificates, "MAX_FILE_BYTES", 64)
    path = tmp_path / "pipe"
    for payload, fits in ((b"[" + b"1, " * 20 + b"1]", True),
                          (b"[" + b"1, " * 21 + b"1]", False)):
        assert (len(payload) <= 64) == fits
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes, args=(payload,), daemon=True)
        writer.start()
        try:
            if fits:
                assert read_json(path) == [1] * 21
            else:
                with pytest.raises(CertificateError, match="file too large"):
                    read_json(path)
        finally:
            writer.join(timeout=10)
            path.unlink()
        assert not writer.is_alive()


def test_dot_export_layout(t8_labeling):
    dot = dot_export(t8_labeling)
    lines = dot.splitlines()
    assert lines[0] == "graph labeling {"
    assert lines[1] == '  v0 [label="7"];'
    assert lines[9] == "  v0 -- v1;"
    assert lines[-1] == "}"
    assert dot.endswith("}\n")
    assert len(lines) == 2 + 8 + 12


def test_dot_export_matches_canonical_edges():
    lab = construct(1, 3, F1)
    dot = dot_export(lab)
    edge_lines = [ln for ln in dot.splitlines() if "--" in ln]
    expect = [f"  v{int(u)} -- v{int(w)};" for u, w in lab.graph.edge_indices()]
    assert edge_lines == expect


# Everything json.dumps writes: nested lists and dicts (empty ones too),
# ints beyond int64 either way, bools, None, floats including NaN and
# infinities, and strings with quotes, escapes and non-ASCII characters.
_json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.integers(min_value=2 ** 63, max_value=2 ** 80)
                 | st.integers(min_value=-2 ** 80, max_value=-2 ** 63 - 1)
                 | st.text()
                 | st.sampled_from(['"', '\\"q\\"', "\\", "é", "线", "\u2028", "\n"]))
_json_trees = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=4), inner, max_size=6),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(_json_trees)
def test_dumps_matches_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2) + "\n"
