"""Package structure: modules reach each other only through public names, and
the reference implementations stay out of the public API."""
import ast
from pathlib import Path

import pytest

import mshist

SRC = Path(mshist.__file__).resolve().parent
MODULES = {p.stem for p in SRC.glob("*.py")}
REFERENCE = Path(__file__).resolve().parent / "reference.py"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_uses(source: str) -> list[str]:
    """Leading-underscore names of other mshist modules that ``source``
    imports or reads as module attributes."""
    tree = ast.parse(source)
    found, aliases = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            mod = node.module or ""
            if not (node.level or mod == "mshist" or mod.startswith("mshist.")):
                continue
            for a in node.names:
                if mod in ("", "mshist") and a.name in MODULES:
                    aliases.add(a.asname or a.name)
                elif _private(a.name):
                    found.append(f"{mod}.{a.name}")
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("mshist."):
                    aliases.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if ast.unparse(node.value) in aliases:
                found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_checker_flags_private_access():
    assert private_uses("from .dp import _single_bin") == ["dp._single_bin"]
    assert private_uses("from . import multiscale\nmultiscale._cache_path(1)") == [
        "multiscale._cache_path"
    ]
    assert private_uses("import mshist.dp as d\nd._backtrack") == ["d._backtrack"]
    assert private_uses("from .dp import HistogramModel\nimport os\nos._exit") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cross_module_private_names(path):
    assert private_uses(path.read_text()) == []


def test_reference_names_not_exported():
    tree = ast.parse(REFERENCE.read_text())
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "brute_force_histogram" in defined
    assert defined.isdisjoint(mshist.__all__)
