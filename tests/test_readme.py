"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    blocks = list(re.finditer(r"```python\n(.*?)```", text, flags=re.DOTALL))
    assert len(blocks) == 1
    # padded so that a traceback names the README's own line numbers
    code = "\n" * text.count("\n", 0, blocks[0].start(1)) + blocks[0].group(1)
    exec(compile(code, str(README), "exec"), {})
