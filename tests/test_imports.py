"""Static guards: every name a pfkern module imports is used in that module,
every top-level definition of pfkern is reachable from `cli.main` or from a
name the benchmark imports, one function builds every kernel block, only
`kernels` reads a block's factors, and the process-wide caches are the
listed ones.  One run-time guard: no pfkern process imports scipy."""
import ast
import functools
import os
import pathlib
import subprocess
import sys

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


def _sources(folder):
    return {path.stem: path.read_text() for path in sorted(folder.glob("*.py"))}


def _code_nodes(node):
    """Every node under `node` except those inside annotations."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        skip = set()
        if isinstance(node, ast.arg):
            skip.add(id(node.annotation))
        elif isinstance(node, ast.FunctionDef):
            skip.add(id(node.returns))
        elif isinstance(node, ast.AnnAssign):
            skip.add(id(node.annotation))
        stack.extend(child for child in ast.iter_child_nodes(node) if id(child) not in skip)


def _top_level(tree):
    """Name -> statement of each top-level function, class and name binding."""
    defs = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defs[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in getattr(stmt, "targets", [getattr(stmt, "target", None)]):
                if isinstance(target, ast.Name):
                    defs[target.id] = stmt
    return defs


def _package_imports(tree):
    """Local name -> (module, name or None) of every pfkern import in a
    module; None stands for a whole module (`from . import reports`)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = (node.module, alias.name) if node.module else (alias.name, None)
                aliases[alias.asname or alias.name] = target
    return aliases


def unreachable(sources, roots):
    """Top-level definitions, as 'module.name', that no chain of names used
    in code leads to from `roots` (a set of (module, name) pairs).  Only
    the names a definition uses outside annotations count: bare names, and
    attributes of an imported pfkern module (`reports.write_json`)."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs = {mod: _top_level(tree) for mod, tree in trees.items()}
    imports = {mod: _package_imports(tree) for mod, tree in trees.items()}

    def refs(mod, stmt):
        for node in _code_nodes(stmt):
            if isinstance(node, ast.Name):
                if node.id in defs[mod]:
                    yield mod, node.id
                elif imports[mod].get(node.id, (None, None))[1]:
                    yield imports[mod][node.id]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and imports[mod].get(node.value.id, (None, ""))[1] is None):
                yield imports[mod][node.value.id][0], node.attr

    seen, todo = set(), list(roots)
    while todo:
        mod, name = todo.pop()
        if (mod, name) in seen or name not in defs.get(mod, {}):
            continue
        seen.add((mod, name))
        todo.extend(refs(mod, defs[mod][name]))
    return sorted(f"{mod}.{name}" for mod in defs for name in defs[mod]
                  if (mod, name) not in seen)


def bench_roots():
    """(module, name) of every pfkern name that bench/ imports, plus cli.main."""
    roots = {("cli", "main")}
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pfkern."):
                roots |= {(node.module.partition(".")[2], a.name) for a in node.names}
    return roots


@functools.cache
def _unreachable_in_src():
    return unreachable(_sources(SRC), bench_roots())


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_orphan_definitions(path):
    # every top-level definition is reachable from `cli.main` or from what the
    # benchmark imports; a name that only tests use is code no user runs
    assert [name for name in _unreachable_in_src() if name.startswith(f"{path.stem}.")] == []


def test_reachability_names_a_planted_orphan():
    # `planted` is named only in an annotation of the reachable `site_density`
    sources = _sources(SRC)
    sources["saddles"] = (sources["saddles"].replace("def site_density(family,",
                                                     "def site_density(family: planted,")
                          + "\n\ndef planted(x):\n    return site_density(x, 1.0)\n")
    assert unreachable(sources, bench_roots()) == ["saddles.planted"]
    # uses of a module's attribute (cli's `reports.write_table_csv`) are followed
    sources["cli"] = sources["cli"].replace("reports.write_table_csv", "print")
    assert "reports.write_table_csv" in unreachable(sources, bench_roots())


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


def test_only_kernels_reads_block_factors():
    # the block forms (K, the rank-one term, the inserted blocks) are read off
    # a block's factors in `kernels` alone, so a change of form lands there
    readers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    isinstance(node, ast.Attribute) and node.attr == "factors"
                    for node in ast.walk(fn)):
                readers.append(f"{path.stem}.{fn.name}")
    assert readers and [r for r in readers if not r.startswith("kernels.")] == []


def test_process_wide_caches_are_the_listed_ones():
    # a process-wide cache holds memory across requests (a sweep's wave tables
    # once summed to tens of MB), so a new one needs a deliberate edit here
    def is_cache(node):
        func = node.func if isinstance(node, ast.Call) else node
        return getattr(func, "id", getattr(func, "attr", None)) in ("lru_cache", "cache")

    cached = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if any(map(is_cache, getattr(stmt, "decorator_list", []))):
                cached.append(f"{path.stem}.{stmt.name}")
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call) \
                    and is_cache(stmt.value):          # name = cache(fn)
                cached.append(f"{path.stem}.{stmt.targets[0].id}")
    assert cached == ["kernels._contour_phi", "kernels.adjudicate_projection",
                      "kernels.adjudicate_composition", "refkernels.legendre_nodes",
                      "saddles._saddle_rows", "symbols.unit_roots"]


def test_no_pfkern_process_imports_scipy(tmp_path):
    # every module, and the two requests that read Airy and Bessel functions
    # (scipy.special was 0.22-0.27 s of a 0.4 s import); tests may use scipy
    script = (
        "import importlib, pkgutil, sys\n"
        "import pfkern\n"
        "for m in pkgutil.iter_modules(pfkern.__path__):\n"
        "    importlib.import_module('pfkern.' + m.name)\n"
        "from pfkern.cli import main\n"
        f"assert main(['asym', 'edge', '--family', 'charlier', '--tau', '1', '--block', 'K',"
        f" '--A-list', '32,64', '--out', {str(tmp_path)!r}]) == 0\n"
        f"assert main(['asym', 'crossover', '--family', 'meixner', '--alpha', '1',"
        f" '--N-list', '16,32', '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
