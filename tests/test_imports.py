"""Import hygiene: every name a package module imports is used in it, and
every private module-level function or class is used by the package."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "z2ucodes"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names bound by import statements that no other name in the
    source reads, in order of import.  ``__future__`` imports bind nothing."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_an_unused_import_is_found():
    source = "from .codewords import DEFAULT_BUDGET, check_budget\ncheck_budget(1, 2)\n"
    assert unused_imports(source) == ["DEFAULT_BUDGET"]


def unused_private_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes named with a leading
    underscore (dunders aside) that no code of ``sources`` reads outside
    their own definition, as "module.name" in order of definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    used = set()
    for tree in trees.values():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name.startswith("_")
        and not stmt.name.startswith("__")
        and stmt.name not in used
    ]


def test_every_private_definition_is_used_in_the_package():
    sources = {p.stem: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert unused_private_definitions(sources) == []


def test_an_unused_private_definition_is_found():
    sources = {
        "a": "def _kept():\n    return 1\n\ndef _alone(n):\n    return _alone(n - 1)\n",
        "b": "from .a import _kept\nprint(_kept())\n",
    }
    assert unused_private_definitions(sources) == ["a._alone"]
