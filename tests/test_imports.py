"""Every name a module imports is used in the scope that imports it.

An import that nothing reads is a dependency that is not there: it makes one
module load another for no reason and hides where a name really comes from.
The package's modules, the tests and the benchmark are checked alike, each
function's own imports within that function. The package's `__init__.py`
imports to re-export, so it is left out.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eegintent"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py") + sorted(
    p for folder in ("tests", "bench") for p in (ROOT / folder).glob("*.py"))
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def own_nodes(scope):
    """The nodes of a scope, not descending into the scopes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def imported_names(scope) -> set[str]:
    """The names the scope's own import statements bind."""
    names = set()
    for node in own_nodes(scope):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def used_names(scope) -> set[str]:
    """Every name the scope or a scope nested in it reads, in code or in an annotation."""
    return {node.id for node in ast.walk(scope) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.stem if p.parent == SRC else f"{p.parent.name}/{p.stem}")
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {(getattr(scope, "name", "<module>"), name)
              for scope in ast.walk(tree) if isinstance(scope, SCOPES)
              for name in imported_names(scope) - used_names(scope)}
    assert unused == set()
