"""Every function the benchmark's tracer wraps must exist in the package,
and every size it measures must read the result that function returns.

perfbench/tracing.py names its targets as (module, attribute) strings and
only looks them up when a traced run starts, and its MEASURES read
attributes of a target's arguments and result, so a rename, removal or
new return type in divgrace would break `perfbench/run.py --trace 1`
without failing any other test.  The file is loaded by path and only
read.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from divgrace import SearchConfig, _kernels, base_blocks, develop, search
from divgrace.certificates import dumps, write_json

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _tracing()
TARGETS = TRACING.TARGETS


@pytest.mark.parametrize("module,attr,name", TARGETS, ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(module, attr, name):
    owner = importlib.import_module(f"divgrace.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name


def _develop(lab, tmp_path):
    # n = 2 blocks of v = 60 translates of the 8 prism labels, 8 bytes each
    dec = base_blocks(lab, 3, 2)
    return (dec,), develop(dec), 2 * 60 * 8 * 8


def _count_pairs(lab, tmp_path):
    # every edge of every translate: 2 blocks x 60 translates x 12 edges
    dec = develop(base_blocks(lab, 3, 2))
    edges = lab.graph.edge_indices()
    args = (dec.development[:, edges[:, 0]].ravel(),
            dec.development[:, edges[:, 1]].ravel(),
            np.zeros((60, 60), dtype=np.int64))
    return args, _kernels.count_pairs(*args), 2 * 60 * 12


def _search(lab, tmp_path):
    # the prism's 1440 3-divisible graceful labelings
    args = (lab.graph, SearchConfig(d=3, store_limit=0))
    return args, search(*args), 1440


def _write_json(lab, tmp_path):
    obj = {"labels": list(lab.values)}
    args = (tmp_path / "obj.json", obj)
    return args, write_json(*args), len(dumps(obj).encode())


CALLS = {"decomp.develop": _develop, "kernels.count_pairs": _count_pairs,
         "oracle.search": _search, "certificates.write_json": _write_json}


def test_every_measure_has_a_call():
    assert set(TRACING.MEASURES) == set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_measure_reads_its_target(name, t8_labeling, tmp_path):
    _, size = TRACING.MEASURES[name]
    args, out, expected = CALLS[name](t8_labeling, tmp_path)
    assert size(args, out) == expected
