"""Every function the benchmark's tracer wraps must exist in the package.

perfbench/tracing.py names its targets as (module, attribute) strings and
only looks them up when a traced run starts, so a rename or removal in
divgrace would break `perfbench/run.py --trace 1` without failing any
other test.  The file is loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module,attr,name", TARGETS, ids=[t[2] for t in TARGETS])
def test_tracer_target_resolves(module, attr, name):
    owner = importlib.import_module(f"divgrace.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), name
