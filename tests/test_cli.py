"""Command line driver: exit codes and the construct/verify/decompose chain."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import divgrace

from divgrace import certificates, checking, cli, decomp
from divgrace.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_writes_certificate(tmp_path, capsys):
    out = tmp_path / "t8.json"
    code, stdout, _ = _run(capsys, "construct", "--k", "1", "--m", "2",
                           "--family", "f1", "--out", str(out))
    assert code == 0
    assert "C_{4}xP_2, d=3" in stdout
    obj = json.loads(out.read_text())
    assert obj["labels"] == [7, 5, 9, 6, 0, 14, 1, 12]
    assert obj["alpha"]["lambda"] == 6


def test_construct_dot_output(tmp_path, capsys):
    out = tmp_path / "lab.json"
    dot = tmp_path / "lab.dot"
    code, _, _ = _run(capsys, "construct", "--k", "1", "--m", "3",
                      "--family", "f2", "--out", str(out), "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph labeling {")
    assert text.count("--") == 20


def test_construct_rejects_bad_parameters(tmp_path, capsys):
    code, _, stderr = _run(capsys, "construct", "--k", "0", "--m", "2",
                           "--family", "f1", "--out", str(tmp_path / "x.json"))
    assert code == 2
    assert "invalid parameters" in stderr
    # the parameters are checked before the host graph is sized, so a grid
    # that cannot exist is not reported as too large
    for k, m, why in [("0", "1000000000", "k must be >= 1, got 0"),
                      ("1000000000", "1", "m must be >= 2, got 1")]:
        code, _, stderr = _run(capsys, "construct", "--k", k, "--m", m,
                               "--family", "f1", "--out", str(tmp_path / "x.json"))
        assert code == 2
        assert stderr == f"invalid parameters: {why}\n"
    assert not (tmp_path / "x.json").exists()


def test_construct_into_missing_directory(tmp_path, capsys):
    out = tmp_path / "missing" / "c.json"
    code, _, stderr = _run(capsys, "construct", "--k", "1", "--m", "2",
                           "--family", "f1", "--out", str(out))
    assert code == 2
    assert stderr.startswith("cannot write certificate:")
    assert stderr.count("\n") == 1
    assert not out.exists()
    code, _, stderr = _run(capsys, "construct", "--k", "1", "--m", "2",
                           "--family", "f1", "--out", str(tmp_path / "c.json"),
                           "--dot", str(tmp_path / "missing" / "c.dot"))
    assert code == 2
    assert stderr.startswith("cannot write DOT file:")
    assert stderr.count("\n") == 1


def test_verify_valid_certificate(tmp_path, capsys):
    out = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(out))
    code, stdout, _ = _run(capsys, "verify", str(out), "--alpha")
    assert code == 0
    assert "graph: 8 vertices, 12 edges; d=3, q=4" in stdout
    assert "labeling: valid" in stdout
    assert "alpha: valid, boundary 6" in stdout


def test_verify_rejects_tampered_labels(tmp_path, capsys):
    out = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(out))
    obj = json.loads(out.read_text())
    obj["labels"][0] = obj["labels"][1]
    out.write_text(json.dumps(obj))
    code, stdout, _ = _run(capsys, "verify", str(out))
    assert code == 1
    assert "INVALID (duplicate-label" in stdout


def test_verify_rejects_misstated_alpha_block(tmp_path, capsys):
    out = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(out))
    obj = json.loads(out.read_text())
    obj["alpha"]["lambda"] = 7
    out.write_text(json.dumps(obj))
    code, stdout, _ = _run(capsys, "verify", str(out))
    assert code == 1
    assert "alpha-block-mismatch" in stdout


# On the F1 prism certificate (low class [1, 3, 4, 6], labels 5, 6, 0, 1,
# lambda 6) both keep lambda: the complement, labels 7, 9, 14, 12, and
# the low class with index 6 moved across, whose largest label is still 6.
@pytest.mark.parametrize("low_class", [[0, 2, 5, 7], [1, 3, 4]],
                         ids=["swapped", "one-moved"])
def test_verify_rejects_misstated_low_class(tmp_path, capsys, low_class):
    out = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(out))
    obj = json.loads(out.read_text())
    assert obj["alpha"] == {"low_class": [1, 3, 4, 6], "lambda": 6}
    obj["alpha"]["low_class"] = low_class
    out.write_text(json.dumps(obj))
    code, stdout, _ = _run(capsys, "verify", str(out), "--alpha")
    assert code == 1
    assert stdout.endswith("INVALID (alpha-block-mismatch: stated boundary 6)\n")


# decompose refuses the same misstated blocks, and writes nothing
@pytest.mark.parametrize("n", ["1", "2"])
@pytest.mark.parametrize("alpha", [{"low_class": [1, 3, 4, 6], "lambda": 7},
                                   {"low_class": [0, 2, 5, 7], "lambda": 6}],
                         ids=["lambda-plus-one", "swapped"])
def test_decompose_rejects_misstated_alpha_block(tmp_path, capsys, alpha, n):
    cert = tmp_path / "t8.json"
    out = tmp_path / "dec.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(cert))
    obj = json.loads(cert.read_text())
    obj["alpha"] = alpha
    cert.write_text(json.dumps(obj))
    for flags in ([], ["--full-check"]):
        code, stdout, stderr = _run(capsys, "decompose", "--in", str(cert), "--n", n,
                                    *flags, "--out", str(out))
        assert (code, stdout) == (1, "")
        assert stderr == ("stated alpha block does not verify (alpha-block-mismatch: "
                          f"stated boundary {alpha['lambda']})\n")
        assert not out.exists()


# the low class is a set: any order states the same block
def test_low_class_in_another_order_is_accepted(tmp_path, capsys):
    cert = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(cert))
    obj = json.loads(cert.read_text())
    assert obj["alpha"] == {"low_class": [1, 3, 4, 6], "lambda": 6}
    reordered = tmp_path / "reordered.json"
    reordered.write_text(json.dumps(dict(obj, alpha={"low_class": [6, 4, 3, 1],
                                                     "lambda": 6})))
    code, stdout, _ = _run(capsys, "verify", str(reordered), "--alpha")
    assert code == 0
    assert stdout.endswith("alpha: valid, boundary 6\n")
    for n in ("1", "2"):
        for flags in ([], ["--full-check"]):
            written = []
            for source in (cert, reordered):
                out = tmp_path / f"dec-{source.stem}.json"
                code, _, stderr = _run(capsys, "decompose", "--in", str(source),
                                       "--n", n, *flags, "--out", str(out))
                assert (code, stderr) == (0, "")
                written.append(out.read_bytes())
            assert written[0] == written[1]


# a bool or a float among the labels, or a bool in the low class, each
# equal to what it replaces once converted to int64: refused as input
@pytest.mark.parametrize("key, index, value", [
    ("labels", 6, True), ("labels", 3, 6.5), ("low_class", 0, True)])
def test_non_integers_exit_2(tmp_path, capsys, key, index, value):
    cert = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(cert))
    obj = json.loads(cert.read_text())
    assert obj["labels"][6] == 1 and obj["labels"][3] == 6
    assert obj["alpha"]["low_class"][0] == 1
    (obj if key == "labels" else obj["alpha"])[key][index] = value
    cert.write_text(json.dumps(obj))
    for argv in (["verify", str(cert), "--alpha"],
                 ["decompose", "--in", str(cert), "--n", "2",
                  "--out", str(tmp_path / "dec.json")]):
        code, stdout, stderr = _run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"cannot read certificate: {key} must hold integers")
    assert not (tmp_path / "dec.json").exists()


def test_verify_rejects_non_integer_label(tmp_path, capsys):
    out = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(out))
    text = out.read_text()
    assert '"labels": [\n    7,\n' in text
    out.write_text(text.replace('"labels": [\n    7,\n', '"labels": [\n    7.9,\n'))
    code, stdout, stderr = _run(capsys, "verify", str(out), "--alpha")
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("cannot read certificate: labels must hold integers")


def test_verify_missing_file(tmp_path, capsys):
    code, _, stderr = _run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read certificate" in stderr


@pytest.mark.parametrize("content,message", [
    (b"\xff\xfe{}", "not valid JSON: 'utf-8' codec can't decode"),
    (b"[" * 100_000, "not valid JSON: maximum recursion depth exceeded"),
    (b"1" * 5000, "not valid JSON: Exceeds the limit"),
], ids=["not-utf8", "deeply-nested", "long-number"])
def test_readers_refuse_undecodable_files(tmp_path, capsys, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    out = tmp_path / "dec.json"
    for argv, what in ((["verify", str(path)], "certificate"),
                       (["decompose", "--in", str(path), "--n", "1", "--out", str(out)],
                        "certificate"),
                       (["search", "--graph", str(path), "--d", "1"], "graph")):
        code, stdout, stderr = _run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"cannot read {what}: {message}")
    assert not out.exists()


def test_readers_refuse_oversized_files(tmp_path, capsys):
    path = tmp_path / "big.json"
    with open(path, "wb") as fh:  # sparse: no disk blocks behind the size
        fh.truncate(certificates.MAX_FILE_BYTES + 1)
    out = tmp_path / "dec.json"
    for argv, what in ((["verify", str(path)], "certificate"),
                       (["decompose", "--in", str(path), "--n", "1", "--out", str(out)],
                        "certificate"),
                       (["search", "--graph", str(path), "--d", "1"], "graph")):
        code, stdout, stderr = _run(capsys, *argv)
        assert code == 2
        assert stdout == ""
        assert stderr == (f"cannot read {what}: file too large: more than "
                          f"{certificates.MAX_FILE_BYTES} bytes\n")
    assert not out.exists()


def test_non_bipartite_graph_has_no_alpha_labeling(tmp_path, capsys):
    # the triangle labeled 0, 1, 3 is graceful, but no boundary splits
    # the ends of all three edges
    graph = {"kind": "simple", "n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(graph))
    for extra in ([], ["--count"]):
        assert _run(capsys, "search", "--graph", str(path), "--d", "1", "--alpha",
                    *extra) == (0, "0\n" if extra else "", "")
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps({"graph": graph, "d": 1, "labels": [0, 1, 3]}))
    code, stdout, _ = _run(capsys, "verify", str(cert), "--alpha")
    assert code == 1
    assert stdout.splitlines()[-1] == "INVALID (alpha-boundary-violation)"
    out = tmp_path / "dec.json"
    code, _, stderr = _run(capsys, "decompose", "--in", str(cert), "--n", "2",
                           "--out", str(out))
    assert code == 1
    assert stderr == "alpha condition fails, cannot decompose with n > 1\n"
    assert not out.exists()


@pytest.mark.parametrize("n,flags,line", [
    ("2", [], "K_{1x8}: 0 difference classes verified"),
    ("2", ["--full-check"], "K_{1x8}: 0/0 edges covered exactly once"),
    ("3", [], "K_{1x12}: 0 difference classes verified"),
    ("3", ["--full-check"], "K_{1x12}: 0/0 edges covered exactly once"),
])
def test_decompose_an_edgeless_graph(tmp_path, capsys, n, flags, line):
    # without edges every vertex is low, so no block shifts a label and
    # the host, a single part, has no edge to cover
    cert = tmp_path / "k2bar.json"
    out = tmp_path / "dec.json"
    cert.write_text(json.dumps({"graph": {"kind": "simple", "n": 2, "edges": []},
                                "d": 2, "labels": [0, 1]}))
    code, stdout, stderr = _run(capsys, "decompose", "--in", str(cert), "--n", n,
                                *flags, "--out", str(out))
    assert (code, stderr) == (0, "")
    assert stdout == f"{line}\nwrote {out}\n"
    assert json.loads(out.read_text())["base_blocks"] == [[0, 1]] * int(n)


def test_decompose_difference_classes(tmp_path, capsys):
    cert = tmp_path / "t8.json"
    out = tmp_path / "dec.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(cert))
    code, stdout, _ = _run(capsys, "decompose", "--in", str(cert),
                           "--n", "1", "--out", str(out))
    assert code == 0
    assert "K_{5x6}: 12 difference classes verified" in stdout
    obj = json.loads(out.read_text())
    assert obj["v"] == 30
    assert obj["base_blocks"] == [[7, 5, 9, 6, 0, 14, 1, 12]]


def test_decompose_full_check(tmp_path, capsys):
    cert = tmp_path / "t8.json"
    out = tmp_path / "dec.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(cert))
    code, stdout, _ = _run(capsys, "decompose", "--in", str(cert), "--n", "2",
                           "--full-check", "--out", str(out))
    assert code == 0
    assert "K_{5x12}: 1440/1440 edges covered exactly once" in stdout
    obj = json.loads(out.read_text())
    assert obj["n"] == 2
    assert obj["v"] == 60
    assert len(obj["base_blocks"]) == 2


def test_full_checks_never_develop(tmp_path, capsys, monkeypatch):
    # the exhaustive check builds its translates from the base blocks a
    # chunk at a time; develop would hold all n * v of them at once
    def refuse(*args):
        raise AssertionError("the full check must not materialise the development")

    _rebind(monkeypatch, decomp.develop, refuse)
    cert = tmp_path / "c.json"
    _run(capsys, "construct", "--k", "2", "--m", "3", "--family", "f1",
         "--out", str(cert))
    for n in ("1", "2", "3"):
        code, stdout, _ = _run(capsys, "decompose", "--in", str(cert), "--n", n,
                               "--full-check", "--out", str(tmp_path / "d.json"))
        assert code == 0
        assert "edges covered exactly once" in stdout
    # every cell has v <= 180, under table's exhaustive-check limit
    code, stdout, _ = _run(capsys, "table", "--kmax", "2", "--mmax", "3", "--n", "2")
    assert code == 0
    assert stdout.count(": verified") == 12
    assert "classes" not in stdout


def test_decompose_into_missing_directory(tmp_path, capsys):
    cert = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(cert))
    code, _, stderr = _run(capsys, "decompose", "--in", str(cert), "--n", "1",
                           "--out", str(tmp_path / "missing" / "d.json"))
    assert code == 2
    assert stderr.startswith("cannot write decomposition:")
    assert stderr.count("\n") == 1


def test_decompose_full_check_rejects_large_v(tmp_path, capsys, monkeypatch):
    # k=40, m=10, F1, n=3 gives v = 18354: a count matrix of 2.7 GB alone
    def refuse(*args):
        raise AssertionError("the full check must not start above the limit")

    monkeypatch.setattr(cli, "verify_decomposition", refuse)
    cert = tmp_path / "big.json"
    _run(capsys, "construct", "--k", "40", "--m", "10", "--family", "f1",
         "--out", str(cert))
    code, _, stderr = _run(capsys, "decompose", "--in", str(cert), "--n", "3",
                           "--full-check", "--out", str(tmp_path / "d.json"))
    assert code == 2
    assert f"v <= {cli.DECOMPOSE_FULL_CHECK_MAX_V}" in stderr
    assert "v = 18354" in stderr
    assert "difference classes" in stderr
    assert not (tmp_path / "d.json").exists()
    # the benchmark's full checks reach v = 3220 and must stay under the limit
    assert cli.DECOMPOSE_FULL_CHECK_MAX_V >= 3300


def test_oversized_inputs_exit_before_building(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the size check must come before any array is built")

    cert = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(cert))
    for name in ("construct", "base_blocks", "verify_decomposition"):
        monkeypatch.setattr(cli, name, refuse)
    # the alpha certificate is found on first use of Labeling.alpha_cert
    _rebind(monkeypatch, checking.check_alpha, refuse)
    big = str(10 ** 9)
    for argv in (["decompose", "--in", str(cert), "--n", big,
                  "--out", str(tmp_path / "d.json")],
                 ["construct", "--k", big, "--m", "2", "--family", "f1",
                  "--out", str(tmp_path / "c.json")],
                 ["construct", "--k", "1", "--m", big, "--family", "f4",
                  "--out", str(tmp_path / "c.json")],
                 ["table", "--kmax", big, "--mmax", "2", "--n", "1"],
                 ["table", "--kmax", "1", "--mmax", big, "--n", "1"],
                 ["table", "--kmax", "1", "--mmax", "2", "--n", big]):
        code, stdout, stderr = _run(capsys, *argv)
        assert (code, stdout) == (2, "")
        assert stderr.startswith("too large: the host graph would have v = ")
        assert stderr.endswith(f"above the limit of {cli.MAX_V}\n")
        assert stderr.count("\n") == 1
    assert not (tmp_path / "c.json").exists() and not (tmp_path / "d.json").exists()


def test_size_limit_admits_its_bound(tmp_path, capsys, monkeypatch):
    # construct-deep decomposes grids near C_160 x P_40 with n = 2: v < 70000
    assert cli.MAX_V >= 70000
    # the prism's f1 labeling: d = 3, q = 4, so v = 30n
    monkeypatch.setattr(cli, "MAX_V", 30)
    cert = tmp_path / "t8.json"
    assert _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
                "--out", str(cert))[0] == 0
    assert _run(capsys, "decompose", "--in", str(cert), "--n", "1",
                "--out", str(tmp_path / "d.json"))[0] == 0
    code, _, stderr = _run(capsys, "decompose", "--in", str(cert), "--n", "2",
                           "--out", str(tmp_path / "d.json"))
    assert code == 2 and "v = 60 vertices" in stderr


def test_decompose_rejects_bad_n(tmp_path, capsys):
    cert = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(cert))
    code, _, stderr = _run(capsys, "decompose", "--in", str(cert),
                           "--n", "0", "--out", str(tmp_path / "d.json"))
    assert code == 2
    assert "--n must be >= 1" in stderr


def test_decompose_rejects_invalid_labeling(tmp_path, capsys):
    cert = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(cert))
    obj = json.loads(cert.read_text())
    obj["labels"][5] = 2
    del obj["alpha"]
    cert.write_text(json.dumps(obj))
    code, _, stderr = _run(capsys, "decompose", "--in", str(cert),
                           "--n", "1", "--out", str(tmp_path / "d.json"))
    assert code == 1
    assert "labeling does not verify" in stderr


def test_verify_rejects_a_huge_label_without_sizing_by_it(tmp_path, capsys):
    cert = tmp_path / "t8.json"
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(cert))
    assert _run(capsys, "verify", str(cert), "--alpha")[0] == 0
    obj = json.loads(cert.read_text())
    obj["labels"][4] = 10 ** 15
    cert.write_text(json.dumps(obj))
    tracemalloc.start()
    try:
        code, stdout, _ = _run(capsys, "verify", str(cert), "--alpha")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert "INVALID (label-out-of-range: (4, 1000000000000000, 14))" in stdout
    # a bincount sized by the label would need 8 PB; the check stays small
    assert peak < 2 ** 20


def test_edgeless_graph_with_a_huge_divisor(tmp_path, capsys):
    # with no edge the label range is [0, d - 1]; a bincount over it would
    # need 7 PB
    cert = tmp_path / "edgeless.json"
    cert.write_text(json.dumps({"graph": {"kind": "simple", "n": 2, "edges": []},
                                "d": 10 ** 15, "labels": [0, 1]}))
    code, stdout, _ = _run(capsys, "verify", str(cert))
    assert code == 0
    assert "labeling: valid" in stdout
    code, stdout, stderr = _run(capsys, "decompose", "--in", str(cert), "--n", "1",
                                "--out", str(tmp_path / "d.json"))
    assert (code, stdout) == (2, "")
    assert stderr.startswith("too large: the host graph would have v = 2000000000000000 ")
    assert not (tmp_path / "d.json").exists()


def _planted(*args):
    return checking.CheckReport(False, "planted", (1, 2))


def _raise_construction_error(*args):
    raise cli.ConstructionError("planted")


_PRISM_STDOUT = "graph: 8 vertices, 12 edges; d=3, q=4\n"
_NO_FILE = "[Errno 2] No such file or directory: '{tmp}/"
_TOO_LARGE = "too large: the host graph would have v = {} vertices, above the limit of 4000000"

# Every failure exit of the command line: (argv, exit code, stdout, the one
# stderr line or "" for none), with "{tmp}" the test's directory and an
# optional (name, replacement) to set on cli first.  In that directory
# c.json is the F1 prism certificate, dup.json the same labels with
# labels[0] = labels[1], lambda7.json its alpha block with lambda 7, d5.json
# its labels with d = 5, triangle.json the graceful but not alpha triangle
# 0, 1, 3, and edgeless.json a graph descriptor of two vertices and no edge.
FAILURE_EXITS = {
    "construct-invalid-parameters": (
        ["construct", "--k", "0", "--m", "2", "--family", "f1", "--out", "{tmp}/x.json"],
        2, "", "invalid parameters: k must be >= 1, got 0"),
    "construct-too-large": (
        ["construct", "--k", str(10 ** 9), "--m", "2", "--family", "f1",
         "--out", "{tmp}/x.json"],
        2, "", _TOO_LARGE.format(24000000006)),
    "construct-fails-verification": (
        ["construct", "--k", "1", "--m", "2", "--family", "f1", "--out", "{tmp}/x.json"],
        1, "", "construction failed verification: planted",
        ("construct", _raise_construction_error)),
    "construct-cannot-write-certificate": (
        ["construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", "{tmp}/missing/x.json"],
        2, "", "cannot write certificate: " + _NO_FILE + "missing/x.json'"),
    "construct-cannot-write-dot": (
        ["construct", "--k", "1", "--m", "2", "--family", "f1", "--out", "{tmp}/x.json",
         "--dot", "{tmp}/missing/x.dot"],
        2, "wrote {tmp}/x.json: C_{{4}}xP_2, d=3, labels in [0,14]\n",
        "cannot write DOT file: " + _NO_FILE + "missing/x.dot'"),
    "verify-cannot-read": (
        ["verify", "{tmp}/absent.json"],
        2, "", "cannot read certificate: " + _NO_FILE + "absent.json'"),
    "verify-invalid-parameters": (
        ["verify", "{tmp}/d5.json"], 2, "", "invalid parameters: d=5 does not divide e=12"),
    "verify-invalid-labeling": (
        ["verify", "{tmp}/dup.json"],
        1, _PRISM_STDOUT + "INVALID (duplicate-label: (0, 1, 5))\n", ""),
    "verify-no-alpha": (
        ["verify", "{tmp}/triangle.json", "--alpha"],
        1, "graph: 3 vertices, 3 edges; d=1, q=3\nlabeling: valid\n"
           "INVALID (alpha-boundary-violation)\n", ""),
    "verify-alpha-mismatch": (
        ["verify", "{tmp}/lambda7.json"],
        1, _PRISM_STDOUT + "labeling: valid\n"
           "INVALID (alpha-block-mismatch: stated boundary 7)\n", ""),
    "decompose-bad-n": (
        ["decompose", "--in", "{tmp}/c.json", "--n", "0", "--out", "{tmp}/d.json"],
        2, "", "--n must be >= 1, got 0"),
    "decompose-cannot-read": (
        ["decompose", "--in", "{tmp}/absent.json", "--n", "1", "--out", "{tmp}/d.json"],
        2, "", "cannot read certificate: " + _NO_FILE + "absent.json'"),
    "decompose-invalid-parameters": (
        ["decompose", "--in", "{tmp}/d5.json", "--n", "1", "--out", "{tmp}/d.json"],
        2, "", "invalid parameters: d=5 does not divide e=12"),
    "decompose-invalid-labeling": (
        ["decompose", "--in", "{tmp}/dup.json", "--n", "1", "--out", "{tmp}/d.json"],
        1, "", "labeling does not verify: duplicate-label: (0, 1, 5)"),
    "decompose-too-large": (
        ["decompose", "--in", "{tmp}/c.json", "--n", str(10 ** 9), "--out", "{tmp}/d.json"],
        2, "", _TOO_LARGE.format(30000000000)),
    "decompose-alpha-mismatch": (
        ["decompose", "--in", "{tmp}/lambda7.json", "--n", "1", "--out", "{tmp}/d.json"],
        1, "", "stated alpha block does not verify (alpha-block-mismatch: "
               "stated boundary 7)"),
    "decompose-no-alpha": (
        ["decompose", "--in", "{tmp}/triangle.json", "--n", "2", "--out", "{tmp}/d.json"],
        1, "", "alpha condition fails, cannot decompose with n > 1"),
    "decompose-full-check-limit": (
        ["decompose", "--in", "{tmp}/c.json", "--n", "1", "--full-check",
         "--out", "{tmp}/d.json"],
        2, "", "--full-check is limited to v <= 29 (here v = 30); drop --full-check "
               "to verify by difference classes",
        ("DECOMPOSE_FULL_CHECK_MAX_V", 29)),
    "decompose-fails-verification": (
        ["decompose", "--in", "{tmp}/c.json", "--n", "1", "--out", "{tmp}/d.json"],
        1, "", "decomposition does not verify: planted: (1, 2)",
        ("check_difference_classes", _planted)),
    "decompose-cannot-write": (
        ["decompose", "--in", "{tmp}/c.json", "--n", "1", "--out", "{tmp}/missing/d.json"],
        2, "K_{{5x6}}: 12 difference classes verified\n",
        "cannot write decomposition: " + _NO_FILE + "missing/d.json'"),
    "search-negative-limit": (
        ["search", "--grid", "1,2", "--d", "3", "--limit", "-1"],
        2, "", "--limit must be >= 0, got -1"),
    "search-bad-grid": (
        ["search", "--grid", "1x2", "--d", "3"],
        2, "", "bad --grid value '1x2': not enough values to unpack (expected 2, got 1)"),
    "search-cannot-read": (
        ["search", "--graph", "{tmp}/absent.json", "--d", "3"],
        2, "", "cannot read graph: " + _NO_FILE + "absent.json'"),
    "search-invalid-divisor": (
        ["search", "--grid", "1,2", "--d", "5", "--count"],
        2, "", "d=5 does not divide e=12"),
    "search-size-cap": (
        ["search", "--graph", "{tmp}/edgeless.json", "--d", "4096", "--count"],
        2, "", "search is limited to e + d <= 2048, got e = 0 and d = 4096"),
    "table-bad-range": (
        ["table", "--kmax", "0", "--mmax", "2", "--n", "1"],
        2, "", "need --kmax >= 1, --mmax >= 2, --n >= 1"),
    "table-too-large": (
        ["table", "--kmax", "1", "--mmax", "2", "--n", str(10 ** 9)],
        2, "", _TOO_LARGE.format(48000000000)),
    "table-fails-verification": (
        ["table", "--kmax", "1", "--mmax", "2", "--n", "1"],
        1, "k=1 m=2  K_{{5x6}}: FAILED  K_{{3x12}}: FAILED  K_{{2x24}}: FAILED\n", "",
        ("verify_decomposition", _planted)),
}


@pytest.mark.parametrize("name", FAILURE_EXITS)
def test_every_failure_exit(tmp_path, capsys, monkeypatch, name):
    argv, code, stdout, line, *patch = FAILURE_EXITS[name]
    _run(capsys, "construct", "--k", "1", "--m", "2", "--family", "f1",
         "--out", str(tmp_path / "c.json"))
    obj = json.loads((tmp_path / "c.json").read_text())
    triangle = {"kind": "simple", "n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
    plain = {key: obj[key] for key in ("graph", "d", "labels")}
    inputs = {
        "dup.json": dict(plain, labels=[obj["labels"][1]] + obj["labels"][1:]),
        "lambda7.json": dict(obj, alpha=dict(obj["alpha"], **{"lambda": 7})),
        "d5.json": dict(plain, d=5),
        "triangle.json": {"graph": triangle, "d": 1, "labels": [0, 1, 3]},
        "edgeless.json": {"kind": "simple", "n": 2, "edges": []},
    }
    for file, content in inputs.items():
        (tmp_path / file).write_text(json.dumps(content))
    for attr, value in patch:
        monkeypatch.setattr(cli, attr, value)
    tmp = str(tmp_path)
    assert _run(capsys, *(arg.format(tmp=tmp) for arg in argv)) == \
        (code, stdout.format(tmp=tmp), line.format(tmp=tmp) + "\n" if line else "")


def _rebind(monkeypatch, original, replacement):
    """Replace original under every name that any divgrace module binds it to."""
    for name, mod in list(sys.modules.items()):
        if name == "divgrace" or name.startswith("divgrace."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, replacement)


def _count_checks(monkeypatch):
    """Count check_d_graceful and check_alpha calls under every name that
    any divgrace module binds them to."""
    counts = {"check_d_graceful": 0, "check_alpha": 0}
    for fname in counts:
        original = getattr(checking, fname)

        def counted(*args, _original=original, _name=fname):
            counts[_name] += 1
            return _original(*args)

        _rebind(monkeypatch, original, counted)
    return counts


@pytest.mark.parametrize("family", ["f1", "f2", "f4"])
def test_one_check_per_command(tmp_path, capsys, monkeypatch, family):
    counts = _count_checks(monkeypatch)
    cert, dec = str(tmp_path / "c.json"), str(tmp_path / "d.json")
    # (argv, check_d_graceful calls, check_alpha calls): construct checks
    # both conditions once and keeps the alpha certificate for its file or
    # table's base blocks; decompose checks the labeling it reads
    calls = [
        (["construct", "--k", "3", "--m", "5", "--family", family, "--out", cert], 1, 1),
        (["verify", cert, "--alpha"], 1, 1),
        (["decompose", "--in", cert, "--n", "2", "--out", dec], 1, 1),
        (["decompose", "--in", cert, "--n", "2", "--full-check", "--out", dec], 1, 1),
        (["construct", "--k", "2", "--m", "2", "--family", family, "--out", cert], 1, 1),
        (["decompose", "--in", cert, "--n", "1", "--out", dec], 1, 1),
        # one construct per cell: 2 rows of 3 cells
        (["table", "--kmax", "1", "--mmax", "3", "--n", "2"], 6, 6),
    ]
    for argv, graceful, alpha in calls:
        before = dict(counts)
        assert main(argv) == 0, argv
        assert {name: counts[name] - before[name] for name in counts} == \
            {"check_d_graceful": graceful, "check_alpha": alpha}, argv
    capsys.readouterr()


def test_search_count(capsys):
    code, stdout, _ = _run(capsys, "search", "--grid", "1,2", "--d", "3",
                           "--alpha", "--count")
    assert code == 0
    assert stdout.strip() == "576"


def test_search_limit_prints_certificates(capsys):
    code, stdout, _ = _run(capsys, "search", "--grid", "1,2", "--d", "3",
                           "--limit", "3")
    assert code == 0
    lines = stdout.strip().splitlines()
    assert len(lines) == 3
    for line in lines:
        obj = json.loads(line)
        assert obj["d"] == 3
        assert len(obj["labels"]) == 8


def test_search_notes_a_truncated_listing(tmp_path, capsys):
    # the path P_9 at d = 8 has 10752 labelings, above the 10000-row cap
    path = tmp_path / "p9.json"
    path.write_text(json.dumps(
        {"kind": "simple", "n": 9, "edges": [[v, v + 1] for v in range(8)]}))
    code, stdout, stderr = _run(capsys, "search", "--graph", str(path), "--d", "8")
    assert code == 0
    assert len(stdout.splitlines()) == 10000
    assert len(stderr.splitlines()) == 1
    for part in ("10000 of 10752", "--limit", "--count"):
        assert part in stderr
    code, stdout, stderr = _run(capsys, "search", "--graph", str(path), "--d", "8",
                                "--limit", "10752")
    assert code == 0
    assert len(stdout.splitlines()) == 10752
    assert stderr == ""


def test_search_rejects_negative_limit(capsys):
    code, stdout, stderr = _run(capsys, "search", "--grid", "1,2", "--d", "3",
                                "--alpha", "--limit", "-1")
    assert code == 2
    assert stdout == ""
    assert "--limit must be >= 0" in stderr


def test_search_graph_file(tmp_path, capsys):
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(
        {"kind": "simple", "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    code, stdout, _ = _run(capsys, "search", "--graph", str(path),
                           "--d", "1", "--count")
    assert code == 0
    assert stdout.strip() == "16"


def test_search_rejects_incompatible_divisor(capsys):
    code, _, stderr = _run(capsys, "search", "--grid", "1,2", "--d", "5",
                           "--count")
    assert code == 2
    assert "does not divide" in stderr


def test_search_rejects_oversized_graph(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the size check must come before the edge array")

    # about 1.2e10 edges: building the edge array is what the cap prevents
    monkeypatch.setattr(divgrace.GridGraph, "edge_indices", refuse)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"kind": "grid", "k": 10 ** 9, "m": 2}))
    for source in (["--graph", str(path)], ["--grid", f"{10 ** 9},2"]):
        for extra in (["--count"], ["--limit", "1"]):
            code, stdout, stderr = _run(capsys, "search", *source, "--d", "3", *extra)
            assert code == 2
            assert stdout == ""
            assert "search is limited to 1024 vertices and 1024 edges" in stderr


@pytest.mark.parametrize("d", [4096, 10 ** 15])
def test_search_rejects_a_huge_divisor_on_an_edgeless_graph(tmp_path, capsys,
                                                           monkeypatch, d):
    def refuse(self):
        raise AssertionError("the size check must come before the allowed set")

    # the edge cap does not bound d when e = 0, and the search builds its
    # label and difference masks d wide
    monkeypatch.setattr(checking.DParams, "allowed", property(refuse))
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"kind": "simple", "n": 2, "edges": []}))
    for extra in (["--count"], ["--limit", "1"]):
        code, stdout, stderr = _run(capsys, "search", "--graph", str(path),
                                    "--d", str(d), *extra)
        assert (code, stdout) == (2, "")
        assert stderr == f"search is limited to e + d <= 2048, got e = 0 and d = {d}\n"


def test_search_rejects_malformed_grid(capsys):
    code, _, stderr = _run(capsys, "search", "--grid", "1x2", "--d", "3")
    assert code == 2
    assert "bad --grid value" in stderr


def test_table_small_range(capsys):
    code, stdout, _ = _run(capsys, "table", "--kmax", "1", "--mmax", "2",
                           "--n", "1")
    assert code == 0
    assert "k=1 m=2" in stdout
    for cell in ("K_{5x6}: verified", "K_{3x12}: verified", "K_{2x24}: verified"):
        assert cell in stdout


def test_table_checks_by_classes_above_the_full_check_limit(capsys, monkeypatch):
    # cells at v = 30 and 36 are checked edge by edge, the one at 48 by
    # difference classes
    monkeypatch.setattr(cli, "DECOMPOSE_FULL_CHECK_MAX_V", 36)
    code, stdout, _ = _run(capsys, "table", "--kmax", "1", "--mmax", "2", "--n", "1")
    assert code == 0
    assert stdout == ("k=1 m=2  K_{5x6}: verified  K_{3x12}: verified  "
                      "K_{2x24}: verified (classes)\n")


def test_table_rejects_bad_range(capsys):
    code, _, stderr = _run(capsys, "table", "--kmax", "0", "--mmax", "2",
                           "--n", "1")
    assert code == 2
    assert "need --kmax >= 1" in stderr


def test_usage_error_exit_code(capsys):
    assert main(["construct", "--k", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [[], ["bogus"]])
def test_unknown_command_exit_code(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()

# sha256 of every file construct and decompose --n 1/2/3 write, taken
# from the writer that called json.dumps(obj, indent=2) directly.
WRITTEN_SHA256 = {
    "f1-1-2.json": "f82efceae8ddf7feaea700e384449775387c506df137f0890ea03a364c4807ba",
    "f1-1-2-n1.json": "4cb01afa8add430a2f835ba692b2a46a3c174f006158f4e1af8fb4e2fd28a555",
    "f1-1-2-n2.json": "074f0c674361dbfeaa2ece14ae5f1ba04f7f300b2b5c64963ab0f36e56608687",
    "f1-1-2-n3.json": "419793969b9c46192123e0eead21ddb48baa6914a3d3be77352f9cb827e10631",
    "f1-3-5.json": "9082257b5d448526d08300240952a154886faa04ff2928bf85adfdd03f5d827a",
    "f1-3-5-n1.json": "8d79f4cb9623356617810cb9f7646cd5b27050a77d98d32b6e9e8785a2100908",
    "f1-3-5-n2.json": "33a396be9e4b64f0d27478168bdea44496bb2c2c1b1256a5efaff80c6eb31a76",
    "f1-3-5-n3.json": "93300daf0bda1303185ee24607650ba45735b9d73cd9d548c8afaf23d7a67b76",
    "f1-40-40.json": "6706020766d30087606ab82f1e984914d9f81fbed248bec38467b747ec7ac56e",
    "f1-40-40-n1.json": "f58749309c3ebb0012187c1049c4d705482b64759518598b7d62ba761f89a9c4",
    "f1-40-40-n2.json": "563ee3f68ed359e991cdcf058423607ae966a91630fbffb09947f4135b0a0bd4",
    "f1-40-40-n3.json": "3811f6c47fc1c484d99f466a1fefcc7c57ab07d0cdca9c4887877322b4a33bb0",
    "f2-1-2.json": "3ae826779d5b5d835adf2eccd7af616e9917dc4be4fd54774b469a0b62481607",
    "f2-1-2-n1.json": "a37db9fc73c3169506c9d527333def1ea3426818f0f61c961c489e75bbec4541",
    "f2-1-2-n2.json": "c9df934e8e741b75c9f9a236c75c230e2cdb7bbb7c427e396a80d8a300414a72",
    "f2-1-2-n3.json": "2cddd67606edcd29ba12c9776a0a4b87c691a3e27644ae180bca9a1718614d23",
    "f2-3-5.json": "f9e44c4659ce9c02ac5d79fce14d02db50034c0b77c5da38b9fcff9e301106e3",
    "f2-3-5-n1.json": "9ad94edb0af3363441d1d08af213fdf6a27d3cb9be2b3e643e14b26459784276",
    "f2-3-5-n2.json": "d83c9b4781eab27b44b3eb13da843a3964f4f0cfefa30bfd71e099961e0083d3",
    "f2-3-5-n3.json": "3fbafb26093505f57f03383196428d8b381278dd866a1dd47d8c3c405d6e2595",
    "f2-40-40.json": "cc1b65b8ea5dcc9abc3131af2067d962bc13e958a04d2b4f43cecf3582071aae",
    "f2-40-40-n1.json": "adab723b6c6d3c3a3bbff54e93f50e71e94367966a955f3106963148c8647a20",
    "f2-40-40-n2.json": "59a30cce7cfbdd78c5f95c352aca54f6e5ba5ef992b45967e5028d339fe2a8df",
    "f2-40-40-n3.json": "7e8dc7e35576b7f3cbce11c83f32bdc114257a67eb18460c87cc2c6ead3f66ad",
    "f4-1-2.json": "2faa275ecdec079ea602eb4b1badd39ad9720f508b814591691543a839273334",
    "f4-1-2-n1.json": "0bc79c40b47bb4565e8ee46f0d5c02f9bf666658d7d7730031ec92bbb1e89d50",
    "f4-1-2-n2.json": "93a44b47241a545d2142a5a4296024aa6e6f5005b8892ab05ba34202e0bbdf75",
    "f4-1-2-n3.json": "e6880b34ab0966aa764611ee9cb129f015b794641f01a27abb01c43aed562f6f",
    "f4-3-5.json": "1f093c17785afc1d63a833f71dab50eb1fb8a177e8e82ce3db2c5c647d9f91e7",
    "f4-3-5-n1.json": "2b1c16bd4cadd660538432ba0b5dc51189a47c9de77dc18fc3602ccad9c60da3",
    "f4-3-5-n2.json": "6da8ccea091a6f2dff1a1ead45de71a3d1d0bba8c590cd72fe245b9ba32e7588",
    "f4-3-5-n3.json": "5adbffd3f43edb7eafa7354c9fd999453b4f63a1787fa5cf33618efccb9f8c82",
    "f4-40-40.json": "1fec669a304905d5ec635e26c6c145526d77af975efc0b333481620c9f27da9a",
    "f4-40-40-n1.json": "0b80f21d4be146ffa2dfc462cc09d6f41a0b2845af02d0a7b50e26bcdf907a4e",
    "f4-40-40-n2.json": "8a68e9ea27a8f66103236cabcf169f663e1f8ae3fb5af1f2a141809928a7f5b5",
    "f4-40-40-n3.json": "88ff7017a963df413472821e7acad7e71da1626dc851f1ee27a89b2530db0145",
}


def test_written_files_are_pinned(tmp_path, capsys):
    for family in ("f1", "f2", "f4"):
        for k, m in ((1, 2), (3, 5), (40, 40)):
            cert = tmp_path / f"{family}-{k}-{m}.json"
            assert main(["construct", "--k", str(k), "--m", str(m),
                         "--family", family, "--out", str(cert)]) == 0
            for n in (1, 2, 3):
                dec = tmp_path / f"{family}-{k}-{m}-n{n}.json"
                assert main(["decompose", "--in", str(cert), "--n", str(n),
                             "--out", str(dec)]) == 0
    capsys.readouterr()
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == WRITTEN_SHA256


REUSED_PARSER_CALLS = [
    ["search", "--grid", "1,2", "--d", "x"],
    ["construct", "--k", "1", "--m", "3", "--family", "f2", "--out", "a.json",
     "--dot", "a.dot"],
    ["construct", "--k", "1", "--m", "2", "--family", "f1", "--out", "b.json"],
    ["search", "--grid", "1,2", "--d", "3", "--count"],
]


def test_reused_parser_matches_fresh_processes(tmp_path, capsys, monkeypatch):
    # One process runs every call in turn on the cached parser; each call
    # must act as it does in a process of its own.
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    same.mkdir()
    fresh.mkdir()
    monkeypatch.chdir(same)
    in_process = []
    for argv in REUSED_PARSER_CALLS:
        code = main(argv)
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    env = dict(os.environ, PYTHONPATH=str(Path(divgrace.__file__).parents[1]))
    script = "import sys; from divgrace.cli import main; sys.exit(main(sys.argv[1:]))"
    separate = []
    for argv in REUSED_PARSER_CALLS:
        proc = subprocess.run([sys.executable, "-c", script, *argv], cwd=fresh,
                              env=env, capture_output=True, text=True, check=False)
        separate.append((proc.returncode, proc.stdout, proc.stderr))
    assert in_process == separate
    assert [code for code, _, _ in in_process] == [2, 0, 0, 0]
    assert "a.dot" not in in_process[2][1]
    files = sorted(path.name for path in same.iterdir())
    assert files == sorted(path.name for path in fresh.iterdir()) == \
        ["a.dot", "a.json", "b.json"]
    for name in files:
        assert (same / name).read_bytes() == (fresh / name).read_bytes()


def test_module_runs_the_cli(tmp_path):
    # python -m divgrace from a checkout, with only src on the path
    env = dict(os.environ, PYTHONPATH=str(Path(divgrace.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "divgrace", "search", "--grid", "1,2",
                           "--d", "3", "--count"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=False)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1440\n", "")
