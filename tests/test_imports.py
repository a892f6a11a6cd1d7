"""Static guards: every name a pfkern module imports is used in that module,
every top-level function or class of pfkern is named somewhere outside
its own definition, in the package, its tests or its benchmark, and one
function builds every kernel block."""
import ast
import functools
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pfkern"


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def _referenced(stmt):
    """Identifiers a statement names: bare names, attributes and imports."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@functools.cache
def _named_elsewhere():
    """Every identifier named in src/, tests/ or bench/, leaving out each
    top-level definition's references to itself."""
    named = set()
    for folder in ("src", "tests", "bench"):
        for path in (ROOT / folder).rglob("*.py"):
            for stmt in ast.parse(path.read_text(), filename=str(path)).body:
                refs = _referenced(stmt)
                if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                    refs.discard(stmt.name)
                named |= refs
    return named


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_orphan_definitions(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = [stmt.name for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))]
    named = _named_elsewhere()
    assert [name for name in defined if name not in named] == []


def test_one_block_builder():
    # every KernelBlockSet comes from one builder, so the lattice, rows and
    # Gram of a block are chosen in one place
    builders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "KernelBlockSet" for node in ast.walk(fn)):
                builders.append(f"{path.stem}.{fn.name}")
    assert builders == ["kernels.gram_block"]
