"""The README's library example runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks():
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_library_example_runs(capsys):
    blocks = python_blocks()
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("converged ")
    assert 0.0 < float(lines[-1]) < 1e-5
