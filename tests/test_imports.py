"""Static guards: every name a pfkern module imports is used in that module,
every top-level definition of pfkern is reachable from `cli.main` or from a
name the benchmark imports, no module (nor the benchmark) reads another's
underscore names, every setting of pfkern takes two values in use, one
function builds every kernel block, only `kernels` reads a block's factors,
and the process-wide caches are the listed ones.  One run-time guard: no
pfkern process imports scipy."""
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
    """Local name -> (module, name or None) of every pfkern import in a module:
    relative (`from .kernels import rank_of`), absolute (`from pfkern.kernels
    import rank_of`) or `name = importlib.import_module("pfkern.cli")`; None
    stands for a whole module (`from . import reports`)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").partition(".")[0] == "pfkern"):
            module = node.module if node.level else node.module.partition(".")[2]
            for alias in node.names:
                target = (module, alias.name) if module else (alias.name, None)
                aliases[alias.asname or alias.name] = target
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and getattr(node.value.func, "attr", None) == "import_module"
              and str(getattr(node.value.args[0], "value", "")).startswith("pfkern.")):
            aliases[node.targets[0].id] = (node.value.args[0].value.partition(".")[2], None)
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



# ---------------------------------------------------------------------------
# one owner per private name


def private_reads(sources):
    """'module: owner.name' of every underscore name that a module imports from
    another pfkern module, or reads off one that it imports whole."""
    found = []
    for mod, text in sources.items():
        tree = ast.parse(text)
        aliases = _package_imports(tree)
        found += [f"{mod}: {owner}.{name}" for owner, name in aliases.values()
                  if name and name.startswith("_") and owner != mod]
        found += [f"{mod}: {aliases[node.value.id][0]}.{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and aliases.get(node.value.id, (None, ""))[1] is None
                  and node.attr.startswith("_")]
    return sorted(found)


def _bench_sources():
    return {f"bench/{stem}": text for stem, text in _sources(ROOT / "bench").items()}


def test_no_module_reads_another_modules_private_names():
    # a private name is decided in its own module; the benchmark, too, keeps
    # to the public API
    assert private_reads({**_sources(SRC), **_bench_sources()}) == []


def test_private_reads_names_planted_violations():
    sources = _sources(SRC)
    sources["harness"] = sources["harness"].replace(
        "from .kernels import crossover_block,", "from .kernels import _assemble_blocks, crossover_block,")
    sources["cli"] = sources["cli"].replace("reports.write_table_csv", "reports._default", 1)
    gate = _bench_sources()["bench/gate"].replace("import beta1_indices,",
                                                  "import _rank_one_factors, beta1_indices,")
    assert private_reads({**sources, "bench/gate": gate}) == [
        "bench/gate: kernels._rank_one_factors", "cli: reports._default",
        "harness: kernels._assemble_blocks"]


# ---------------------------------------------------------------------------
# no setting with a single value

MANY = "<many>"     # the value of a non-literal argument: it may be any number of values


def _literal(node):
    """repr of a literal expression, else None."""
    try:
        return repr(ast.literal_eval(node))
    except (ValueError, TypeError, SyntaxError):
        return None


def _signature(node):
    """(names in call order, name -> default node, **kwargs name, number of
    positional names) of a function, or of a class: its dataclass fields,
    else its __init__ after self."""
    skip = 0
    if isinstance(node, ast.ClassDef):
        if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
            fields = [s for s in node.body if isinstance(s, ast.AnnAssign)]
            names = [f.target.id for f in fields]
            return names, {f.target.id: f.value for f in fields if f.value}, None, len(names)
        init = [s for s in node.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"]
        node, skip = (init[0], 1) if init else (ast.parse("def f(): pass").body[0], 0)
    args = node.args
    positional = [a.arg for a in args.posonlyargs + args.args]
    defaults = dict(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaults |= {a.arg: d for a, d in zip(args.kwonlyargs, args.kw_defaults) if d}
    return (positional[skip:] + [a.arg for a in args.kwonlyargs], defaults,
            args.kwarg.arg if args.kwarg else None, len(positional) - skip)


def _splat_keys(node, scope):
    """{keyword: value node, or None for any value} that `**node` passes, where
    its keys are known: a dict display with string keys, either branch of
    `a if c else b`, or a name that `scope` binds only to those (tuple
    assignments included) and reads only in splats.  None where unknown."""
    if isinstance(node, ast.Dict) and all(isinstance(getattr(k, "value", None), str)
                                          for k in node.keys):
        return dict(zip([k.value for k in node.keys], node.values))
    if isinstance(node, ast.IfExp):
        a, b = _splat_keys(node.body, scope), _splat_keys(node.orelse, scope)
        return None if a is None or b is None else dict.fromkeys(a | b)
    if not isinstance(node, ast.Name) or scope is None:
        return None
    uses = [n for n in ast.walk(scope) if isinstance(n, ast.Name) and n.id == node.id]
    splats = [k for k in ast.walk(scope) if isinstance(k, ast.keyword) and k.arg is None
              and getattr(k.value, "id", None) == node.id]
    bound = []
    for stmt in ast.walk(scope):
        for target in getattr(stmt, "targets", []) if isinstance(stmt, ast.Assign) else []:
            pairs = (zip(target.elts, stmt.value.elts) if isinstance(target, ast.Tuple)
                     and isinstance(stmt.value, ast.Tuple) else [(target, stmt.value)])
            bound += [value for t, value in pairs if getattr(t, "id", None) == node.id]
    keys = [_splat_keys(value, None) for value in bound]
    if not bound or None in keys or len(uses) != len(bound) + len(splats):
        return None
    return dict.fromkeys(k for ks in keys for k in ks)


class SettingsIndex:
    """Every call site, in the `callers` modules, of every top-level function
    and class of the `src` modules, and the values each parameter takes there.

    A call site is a call by a name or module attribute that a caller imports
    from pfkern (or defines, in `src`); a `functools.partial` of one (either
    branch of `partial(a if c else b, ...)`) completed by each call of the name
    it is bound to; or a reference that is not a call or a class test, which
    may be called with anything.  An argument's values are its literal, the
    values of the enclosing function's parameter that it passes on unchanged
    (a `**kwargs` splat passes the enclosing function's keywords on), else
    MANY; a parameter that a call omits takes its default there, unless a
    `*args` or `**mapping` splat of unknown keys may fill it (MANY)."""

    def __init__(self, src, callers):
        trees = {mod: ast.parse(text) for mod, text in callers.items()}
        self.defs = {(mod, stmt.name): stmt for mod in src for stmt in trees[mod].body
                     if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
        self.sigs = {key: _signature(node) for key, node in self.defs.items()}
        self.sites = {key: [] for key in self.defs}
        self.aliases = {mod: _package_imports(tree) for mod, tree in trees.items()}
        for mod, tree in trees.items():
            for top in tree.body:
                methods = [s for s in getattr(top, "body", []) if isinstance(s, ast.FunctionDef)]
                for scope in methods if isinstance(top, ast.ClassDef) else [top]:
                    self._collect(mod, scope)

    def _targets(self, mod, node):
        """The pfkern definitions that the expression `node` in `mod` names."""
        if isinstance(node, ast.IfExp):
            return self._targets(mod, node.body) + self._targets(mod, node.orelse)
        key = None
        if isinstance(node, ast.Name):
            key = (mod, node.id) if (mod, node.id) in self.defs else self.aliases[mod].get(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner, name = self.aliases[mod].get(node.value.id, (None, ""))
            key = (owner, node.attr) if name is None else None
        return [key] if key in self.defs else []

    def _site(self, mod, scope, args, keywords, star=False):
        """(module, scope, positional args, {keyword: node or None}, star, forwarded
        **kwargs owners) of one call."""
        positional = [a for a in args if not isinstance(a, ast.Starred)]
        star, kw, forwards = star or len(positional) < len(args), {}, []
        owner = self._owner(mod, scope)
        kwargs = self.sigs[owner][2] if owner else None
        for k in keywords:
            keys = _splat_keys(k.value, scope) if k.arg is None else {k.arg: k.value}
            if keys is not None:
                kw |= keys
            elif kwargs and getattr(k.value, "id", None) == kwargs:
                forwards.append(owner)
            else:
                star = True
        return mod, scope, positional, kw, star, forwards

    def _owner(self, mod, scope):
        """The (module, name) of `scope` if it is a top-level function, else None."""
        return (mod, scope.name) if self.defs.get((mod, getattr(scope, "name", None))) is scope \
            else None

    def _collect(self, mod, scope):
        """Record the call sites in one top-level statement or method."""
        targets = lambda node: self._targets(mod, node)
        nodes = list(_code_nodes(scope))
        calls = [n for n in nodes if isinstance(n, ast.Call)]
        is_partial = lambda call: getattr(call.func, "id", getattr(call.func, "attr", None)) \
            == "partial" and call.args
        bound = {}          # name -> the partials assigned to it, in any branch
        for stmt in nodes:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Call) and is_partial(stmt.value):
                bound.setdefault(stmt.targets[0].id, []).append(stmt.value)
        seen = set()        # nodes already counted as a call site, or a class test
        for call in calls:
            seen.add(id(call.func))
            if getattr(call.func, "id", None) == "isinstance":
                seen |= {id(n) for n in ast.walk(call)}
            elif is_partial(call):
                seen |= {id(n) for n in ast.walk(call.args[0])}
                uses = [c for c in calls if call in bound.get(getattr(c.func, "id", None), [])]
                for key in targets(call.args[0]):
                    self.sites[key] += [self._site(mod, scope, call.args[1:] + use.args,
                                                   call.keywords + use.keywords)
                                        for use in uses] or [
                        self._site(mod, scope, call.args[1:], call.keywords, star=True)]
            else:
                for key in targets(call.func):
                    self.sites[key].append(self._site(mod, scope, call.args, call.keywords))
        for node in nodes:
            if id(node) not in seen and isinstance(getattr(node, "ctx", None), ast.Load):
                for key in targets(node):
                    self.sites[key].append((mod, scope, [], {}, True, []))

    def _value(self, node, mod, scope, seen):
        """The values of one argument expression (class docstring)."""
        literal = None if node is None else _literal(node)
        if literal is not None:
            return {literal}
        owner = self._owner(mod, scope)
        if owner and isinstance(node, ast.Name) and node.id in self.sigs[owner][0] and not any(
                isinstance(n, ast.Name) and n.id == node.id and isinstance(n.ctx, ast.Store)
                for n in ast.walk(scope)):
            return self.values(owner, node.id, seen)
        return {MANY}

    def values(self, key, name, seen=frozenset()):
        """The values that parameter `name` of `key` takes over its call sites."""
        if (key, name) in seen:
            return {MANY}
        names, defaults, _, positional = self.sigs[key]
        index = names.index(name)
        default = defaults.get(name)
        omitted = {_literal(default) or ast.unparse(default)} if default else {MANY}
        out = set()
        for mod, scope, args, kw, star, forwards in self.sites[key]:
            if index < min(positional, len(args)):
                out |= self._value(args[index], mod, scope, seen | {(key, name)})
            elif name in kw:
                out |= self._value(kw[name], mod, scope, seen | {(key, name)})
            elif star:
                out.add(MANY)
            elif forwards:
                out |= {v for owner in forwards
                        for v in self._passed(owner, name, omitted, seen | {(key, name)})}
            else:
                out |= omitted
        return out

    def _passed(self, owner, name, omitted, seen):
        """The values of keyword `name` that calls of `owner` pass through its **kwargs."""
        if (owner, "**") in seen:
            return {MANY}
        seen, out = seen | {(owner, "**")}, set()
        for mod, scope, _, kw, star, forwards in self.sites[owner]:
            if name in kw:
                out |= self._value(kw[name], mod, scope, seen)
            elif star:
                out.add(MANY)
            else:
                out |= {v for o in forwards for v in self._passed(o, name, omitted, seen)} or omitted
        return out

    def kwargs_values(self, key, seen=frozenset()):
        """The sets of keyword names that calls of `key` pass into its **kwargs."""
        if key in seen:
            return {MANY}
        names = self.sigs[key][0]
        out = set()
        for _, _, _, kw, star, forwards in self.sites[key]:
            extra = sorted(set(kw) - set(names))
            out |= {MANY} if star else {repr(extra)} if not forwards else \
                {v for owner in forwards for v in self.kwargs_values(owner, seen | {key})}
        return out

    def single_valued(self):
        """'module.name.parameter' of every default, dataclass-field default and
        **kwargs that takes fewer than two distinct values over its call sites
        (MANY counts as two)."""
        found = []
        for key, (names, defaults, kwargs, _) in self.sigs.items():
            for name in [n for n in names if n in defaults] + ([f"**{kwargs}"] if kwargs else []):
                vals = self.kwargs_values(key) if name.startswith("**") else self.values(key, name)
                if MANY not in vals and len(vals) < 2:
                    found.append(f"{key[0]}.{key[1]}.{name}")
        return sorted(found)


# ROADMAP item 17 keeps the Meixner shape parameter, at 1 in every caller
SETTINGS_ALLOWED = ["families.Meixner.beta_m"]


def test_every_setting_takes_two_values():
    # a default that every caller in src/ and bench/ leaves alone, or sets to one
    # value, is a constant under another name (tests are no callers)
    src = _sources(SRC)
    assert SettingsIndex(src, {**src, **_bench_sources()}).single_valued() == SETTINGS_ALLOWED


def test_settings_guard_names_planted_single_values():
    src = _sources(SRC)
    # a default that no call passes, one that calls pass through **kwargs,
    # and one whose other value came only through a `partial`
    src["fredholm"] = (src["fredholm"]
                       .replace("def sine_gap(length: float):", "def sine_gap(length: float, **kw):")
                       .replace("b: float):\n", "b: float, tol: float = 1e-10):\n")
                       .replace("gap_probability(sine_kernel, 0.0, length)",
                                "gap_probability(sine_kernel, 0.0, length, **kw)"))
    src["kernels"] = src["kernels"].replace('numerator="printed"', 'numerator="difference-quotient"')
    # a parameter passed on unchanged takes its caller's values
    src["saddles"] = src["saddles"].replace("N: int | None = None) -> dict:",
                                            "N: int | None = None, side=1) -> dict:")
    src["harness"] = src["harness"].replace("edge_data(fam, N)", "edge_data(fam, N, side)").replace(
        "block: str = \"S\") -> dict:\n    \"\"\"The block against the Airy",
        "block: str = \"S\", side=1) -> dict:\n    \"\"\"The block against the Airy")
    found = SettingsIndex(src, {**src, **_bench_sources()}).single_valued()
    assert found == sorted(SETTINGS_ALLOWED + [
        "fredholm.gap_probability.tol", "fredholm.sine_gap.**kw",
        "harness.edge_convergence_test.side", "kernels._meixner_paper_kernel.numerator",
        "saddles.edge_data.side"])


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
