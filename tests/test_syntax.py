"""Every Python file parses as Python 3.10, the oldest version supported."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for folder in ("src", "bench", "tools", "tests")
    for path in (ROOT / folder).rglob("*.py")
)


def test_the_sources_are_found():
    assert any(path.name == "solver.py" for path in SOURCES)
    assert any(path.name == "run.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
