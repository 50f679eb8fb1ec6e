"""Only ``linalg`` touches the Hermitian basis: every other module of the
package converts to and from coordinates through its functions."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "memtensor"
BASIS = {"hermitian_basis", "coordinate_basis"}


def _references(source: str):
    """``(name, node)`` for every identifier, attribute, imported name and
    string constant of ``source``; parsed, never run."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rpartition(".")[2], node
                yield alias.asname, node
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node


def test_the_walk_sees_every_kind_of_reference():
    source = (
        "import memtensor.linalg.coordinate_basis\n"
        "from .linalg import hermitian_basis as hb\n"
        "x = linalg.coordinate_basis(4)\n"
        "y = coordinate_basis\n"
        "z = getattr(linalg, 'hermitian_basis')\n"
    )
    lines = sorted(node.lineno for name, node in _references(source) if name in BASIS)
    assert lines == [1, 2, 3, 4, 5]


def test_only_linalg_references_the_basis():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert {"linalg.py", "models.py", "kernel.py", "tomography.py", "transfer.py"} <= set(modules)
    defined = {node.name for node in ast.walk(ast.parse(modules["linalg.py"]))
               if isinstance(node, ast.FunctionDef)}
    assert BASIS <= defined
    found = []
    for name, source in modules.items():
        if name == "linalg.py":
            continue
        for ref, node in _references(source):
            # the package may re-export the public basis
            exported = name == "__init__.py" and ref == "hermitian_basis" and isinstance(
                node, ast.ImportFrom) and node.module == "linalg"
            if ref in BASIS and not exported:
                found.append(f"{name}:{node.lineno} {ref}")
    assert not found, f"modules besides linalg reference the basis: {found}"
