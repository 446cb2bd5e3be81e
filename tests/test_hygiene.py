"""Static hygiene of the package source: no unused imports, no stale __all__,
no public name or method that nothing reads.

Each module of cantor_riesz is parsed with ast (standard library only), so
what a refactor leaves behind -- an import nothing reads, an export whose
definition moved away, a method whose last caller went -- fails here instead
of lingering.
"""

import ast
import functools
import re
import types
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


def _corpus_reads() -> tuple[set[str], set[str]]:
    """Names and attribute names read by code outside the package __init__: a
    module, a script, a bench file or the README's python blocks."""
    root = Path(__file__).parents[1]
    paths = [p for p in MODULES if p.name != "__init__.py"] + SCRIPTS
    trees = [_tree(p) for p in paths + sorted((root / "bench").glob("*.py"))]
    readme = (root / "README.md").read_text(encoding="utf-8")
    trees += [ast.parse(block) for block in re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)]
    names, attrs = set(), set()
    for tree in trees:
        names |= _read_names(tree)
        attrs |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return names, attrs


def test_every_export_is_used():
    """Each public name is read by code outside the package __init__.

    Only Name and Attribute nodes count, so __all__ strings, import lines,
    docstrings and comments do not keep a name alive.
    """
    names, attrs = _corpus_reads()
    unused = sorted(set(cantor_riesz.__all__) - names - attrs)
    assert not unused, f"public names nothing outside __init__ reads: {unused}"


def test_every_public_method_is_used():
    """Each public method, property, classmethod or cached property of an
    exported class is read as an attribute by code outside the package __init__."""
    kinds = (types.FunctionType, property, classmethod, functools.cached_property)
    _, attrs = _corpus_reads()
    unused = [
        f"{export}.{name}"
        for export in cantor_riesz.__all__
        if isinstance(cls := getattr(cantor_riesz, export), type)
        for name, member in vars(cls).items()
        if not name.startswith("_") and isinstance(member, kinds) and name not in attrs
    ]
    assert not unused, f"public methods nothing outside __init__ reads: {unused}"


def _private_definitions(tree: ast.Module):
    """(name, statement) of each module-level name with one leading underscore."""
    for node in _top_level(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def test_every_private_helper_is_used():
    """Each module-level _name of the package is read, as a name or an
    attribute, somewhere in the package outside its own definition, so a
    helper whose last caller went fails here instead of lingering."""
    trees = [_tree(p) for p in MODULES]
    reads: dict[str, list[int]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                reads.setdefault(node.id, []).append(id(node))
            elif isinstance(node, ast.Attribute):
                reads.setdefault(node.attr, []).append(id(node))
    unused = []
    for path, tree in zip(MODULES, trees):
        for name, stmt in _private_definitions(tree):
            own = {id(n) for n in ast.walk(stmt)}
            if all(r in own for r in reads.get(name, [])):
                unused.append(f"{path.name}: {name}")
    assert not unused, f"private helpers nothing else in the package reads: {unused}"
