"""The declared dependencies are what the commands load.

pyproject.toml declares numpy alone.  Each subcommand runs in a fresh
process on a tiny input; every top-level module it loads beyond those
the interpreter started with must be in the standard library, numpy or
divgrace itself.  The process runs without the site module (python -S),
so no .pth file loads a package before the probe looks, and its path
holds only divgrace's and numpy's parent directories.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy

import divgrace

# Runs the CLI on argv[2:] and writes the top-level modules it loaded,
# beyond those present at start-up, to the file argv[1].
PROBE = """
import json, sys
before = set(sys.modules)
from divgrace.cli import main
code = main(sys.argv[2:])
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
with open(sys.argv[1], "w") as fh:
    json.dump(sorted(loaded), fh)
sys.exit(code)
"""

COMMANDS = [
    ["construct", "--k", "1", "--m", "2", "--family", "f1", "--out", "c.json",
     "--dot", "c.dot"],
    ["verify", "c.json", "--alpha"],
    ["decompose", "--in", "c.json", "--n", "2", "--full-check", "--out", "d.json"],
    ["search", "--grid", "1,2", "--d", "3", "--alpha", "--limit", "2"],
    ["search", "--grid", "1,2", "--d", "3", "--count"],
    ["table", "--kmax", "1", "--mmax", "2", "--n", "1"],
]


def test_commands_load_only_declared_dependencies(tmp_path):
    path = os.pathsep.join(str(Path(mod.__file__).parents[1]) for mod in (divgrace, numpy))
    env = dict(os.environ, PYTHONPATH=path)
    allowed = set(sys.stdlib_module_names) | {"numpy", "divgrace"}
    report = tmp_path / "modules.json"
    for argv in COMMANDS:
        proc = subprocess.run([sys.executable, "-S", "-c", PROBE, str(report), *argv],
                              cwd=tmp_path, env=env, capture_output=True, text=True,
                              check=False)
        assert proc.returncode == 0, proc.stderr
        loaded = set(json.loads(report.read_text()))
        assert loaded - allowed == set(), argv
        assert {"numpy", "divgrace"} <= loaded, argv
