"""Static hygiene of the package source: no unused imports, no stale __all__.

Each module of cantor_riesz is parsed with ast (standard library only), so
what a refactor leaves behind -- an import nothing reads, an export whose
definition moved away -- fails here instead of lingering.
"""

import ast
from pathlib import Path

import pytest

import cantor_riesz

MODULES = sorted(Path(cantor_riesz.__file__).parent.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _top_level(tree: ast.Module):
    """Module-level statements, looking inside if/try blocks but not into defs."""
    todo = list(tree.body)
    while todo:
        node = todo.pop(0)
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            todo += node.body + node.orelse + getattr(node, "finalbody", [])
            for handler in getattr(node, "handlers", []):
                todo += handler.body


def _exports(tree: ast.Module) -> list[str]:
    for node in _top_level(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _imported(tree: ast.Module) -> dict[str, int]:
    """Name each import binds, with its line, skipping __future__ imports."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree: ast.Module) -> set[str]:
    """Names the module reads, including those inside quoted annotations."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return used


def _bound(tree: ast.Module) -> set[str]:
    bound = set(_imported(tree))
    for node in _top_level(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                bound |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return bound


def test_modules_found():
    assert {p.name for p in MODULES} >= {"__init__.py", "geometry.py", "wolff.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = _read_names(tree) | set(_exports(tree))
    unused = {name: line for name, line in _imported(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_bindings(path):
    tree = _tree(path)
    missing = set(_exports(tree)) - _bound(tree)
    assert not missing, f"{path.name}: __all__ names unbound {sorted(missing)}"


SCRIPTS = sorted((Path(__file__).parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_has_a_test(script):
    """Each script is run by some test, which names its file."""
    here = Path(__file__)
    texts = (p.read_text(encoding="utf-8") for p in here.parent.glob("*.py") if p != here)
    assert any(script.name in text for text in texts), f"no test names {script.name}"
