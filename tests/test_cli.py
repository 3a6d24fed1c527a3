"""Command line driver: exit codes and the construct/verify/decompose chain."""

import json

import pytest

from divgrace import cli
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


def test_verify_missing_file(tmp_path, capsys):
    code, _, stderr = _run(capsys, "verify", str(tmp_path / "absent.json"))
    assert code == 2
    assert "cannot read certificate" in stderr


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
    # k=40, m=10, F1, n=3 gives v = 18354: dense v x v arrays of about 2.7 GB
    def refuse(*args):
        raise AssertionError("the full check must not start above the limit")

    monkeypatch.setattr(cli, "develop", refuse)
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