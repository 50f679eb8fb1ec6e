"""Every name the demos and the README import from the package exists, and
the README's quick tour runs."""

import ast
import re
from pathlib import Path

import numpy as np

import memtensor

ROOT = Path(__file__).resolve().parents[1]


def _imported_names(source: str) -> set[str]:
    """Names of the ``from memtensor import ...`` statements in ``source``;
    parsed, never run."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "memtensor" and node.level == 0
        for alias in node.names
    }


def _readme_blocks() -> list[str]:
    readme = (ROOT / "README.md").read_text()
    return re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)


def test_demo_and_readme_imports_resolve_on_the_package():
    sources = {path.name: path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))}
    for k, block in enumerate(_readme_blocks()):
        sources[f"README.md python block {k}"] = block
    assert len(sources) >= 6  # five demos and the README's example
    for where, source in sources.items():
        names = _imported_names(source)
        assert names, f"{where} imports nothing from memtensor"
        missing = sorted(name for name in names if not hasattr(memtensor, name))
        assert not missing, f"{where} imports {missing}, which memtensor does not export"


def test_readme_quick_tour_runs_and_returns_one_trajectory_array():
    (tour,) = [block for block in _readme_blocks() if "trajectory = propagate(" in block]
    scope = {}
    exec(compile(tour, "README.md quick tour", "exec"), scope)
    trajectory = scope["trajectory"]
    assert isinstance(trajectory, np.ndarray)
    assert trajectory.shape == (161, 2, 2) and trajectory.dtype == complex
