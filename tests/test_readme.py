"""The README's library example runs, and its settings and statuses match the package."""

import ast
import dataclasses
import re
import typing
from pathlib import Path

from sparsa import solver
from sparsa.solver import SolverConfig

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


def settings_tables():
    """Each table under "Solver settings" as {name: value}, values read as literals."""
    section = README.read_text().split("## Solver settings\n", 1)[1].split("\n## ", 1)[0]
    tables = re.findall(r"(?:^\|.*\n)+", section, flags=re.M)
    row = re.compile(r"^\| `(\w+)` \| `([^`]*)` \|", flags=re.M)
    return [{name: ast.literal_eval(value) for name, value in row.findall(t)} for t in tables]


def test_settings_tables_match_solver_config():
    fields, constants = settings_tables()
    assert fields == {f.name: f.default for f in dataclasses.fields(SolverConfig)}
    hints = typing.get_type_hints(SolverConfig)
    assert constants == {
        name: getattr(SolverConfig, name)
        for name, hint in hints.items()
        if typing.get_origin(hint) is typing.ClassVar
    }


def test_status_list_matches_solver():
    text = " ".join(README.read_text().split())
    listed = re.search(r"with `status` one of (.*?)\.", text).group(1)
    statuses = {value for name, value in vars(solver).items() if name.startswith("STATUS_")}
    assert sorted(re.findall(r"`([^`]+)`", listed)) == sorted(statuses)
