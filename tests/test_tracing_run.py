"""A traced `search --count` records the search kernel's spans and sizes.

`perfbench/run.py --trace 1` wraps the package's functions with
perfbench/tracing.py's Tracer, which reads their arguments and results,
so a change to a traced function's signature or return value could
break a traced run while test_tracing_targets.py, which only resolves
the names, still passes.  The Tracer is loaded by path and only read.
It runs in a process of its own, because install() rebinds the
package's functions for the rest of the process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import divgrace

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

SCRIPT = """
import contextlib, importlib.util, io, json, sys
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from divgrace import cli
tracer = tracing.Tracer()
tracer.install()
out = io.StringIO()
with tracer.instance(), contextlib.redirect_stdout(out):
    codes = [cli.main(["search", "--grid", "1,2", "--d", "3", "--count", *extra])
             for extra in ([], ["--alpha"])]
print(json.dumps({"codes": codes, "stdout": out.getvalue(),
                  "spans": [span[:3] for span in tracer.spans],
                  "sizes": tracer.sizes, "metrics": tracer.metrics()}))
"""


def test_traced_search_count_records_the_kernel():
    env = dict(os.environ, PYTHONPATH=str(Path(divgrace.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(TRACING_PATH)], env=env,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    run = json.loads(proc.stdout)
    assert run["codes"] == [0, 0]
    assert run["stdout"] == "1440\n576\n"
    assert run["sizes"]["oracle.search.labelings"] == 1440 + 576
    names = {span_id: name for span_id, _, name in run["spans"]}
    kernel = [parent for _, parent, name in run["spans"] if name == "kernels.dfs_search"]
    assert kernel and all(names[parent] == "oracle.search" for parent in kernel)
    assert run["metrics"]["kernels.dfs_search.calls"] == len(kernel)
    assert run["metrics"]["kernels.dfs_search.s"] > 0
