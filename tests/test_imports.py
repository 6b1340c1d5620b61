"""Static checks on the AST of each module of the package and of the
tests.

No linter ships with the test environment.  Every name a module of the
package or a test module imports must be used there: a name bound by
`import` or `from ... import` that the module never loads is dead.
`__init__.py` is skipped, since its imports are the package's re-exports.
The library holds what the CLI runs: every public top-level function or
class must be reachable from `cli.py` or allowed, with its reason, in
`ALLOWED_UNREACHED`, which keeps only the names the benchmark hooks: a
name kept for a planned CLI kind comes back with that kind.  Test
oracles and fixtures live in `tests/`.  Every package attribute that the
benchmark's `perfbench/child.py` hooks by name must exist.  Every field
of a dataclass in the package must be read somewhere in `src/` or
`tests/`.  Every parameter with a default, on a public top-level function
of the package, must be passed at some call in `src/`: one that only
tests set is a knob the program never turns.  The capacity policy lives
in `lattice` alone: only `lattice` calls `capacity_cap`, and no other
module raises `CapacityError`, but for `mc`'s lost worker processes.
Each trial-geometry rule has one home: only `lattice.coupling_domain`
sizes a box by the truncation radius of u, and only
`resonance.zeroed_exterior_witness` calls `DisorderModel.in_support`.
So does the Lifshitz tiling rule: only `initial_scale.odd_tiling`
computes a side floor(2x + 1).
"""

import ast
import importlib
from pathlib import Path

import pytest

import alloymsa

PACKAGE = Path(alloymsa.__file__).parent
TESTS = Path(__file__).resolve().parent
CHILD = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in loaded]


def test_scanner_flags_unused_and_keeps_used():
    source = ("from __future__ import annotations\n"
              "import math, os.path\n"
              "from .lattice import Box, make_box as mb\n"
              "def f(b: Box):\n"
              "    return mb(math.pi)\n")
    assert unused_imports(source) == ["line 2: os"]


@pytest.mark.parametrize("path", MODULES + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Public names that no CLI kind reaches, each kept for the reason given.
PERFBENCH_HOOK = "perfbench/child.py hooks it by name at --trace 1"
ALLOWED_UNREACHED = {
    "greens_column": PERFBENCH_HOOK,
    "uniform_regularity_test": PERFBENCH_HOOK,
}


def _loaded_names(node) -> set[str]:
    """Every name a node loads, bare or as an attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreached_public(sources: dict[str, str], root: str,
                     kept=()) -> dict[str, str]:
    """Public top-level functions and classes of `sources` (module name ->
    source) that no code reachable from module `root` or from the names
    `kept` refers to, as name -> module.

    The whole of `root`, the names `kept` and the module-level statements
    of every module (which run on import) are reached; a reached function
    or class reaches every name its body loads.  Names match by spelling
    alone, so a name used anywhere reached keeps every definition of it:
    the scan may miss dead code, but never flags code that runs.
    """
    defs: dict[str, list] = {}
    reached_from = set(kept)
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append((module, node))
                if module == root:
                    reached_from |= _loaded_names(node)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached_from |= _loaded_names(node)
    reached: set[str] = set()
    while reached_from:
        name = reached_from.pop()
        reached.add(name)
        for _, node in defs.get(name, []):
            reached_from |= _loaded_names(node) - reached
    return {name: module for name, entries in defs.items()
            for module, _ in entries
            if not name.startswith("_") and name not in reached}


def test_reachability_scanner():
    sources = {
        "cli": "from .lib import used\nTABLE = {'a': used}\n",
        "lib": ("LIMIT = helper_for_limit()\n"
                "def helper_for_limit(): return 1\n"
                "def used(x): return x.method() + indirect()\n"
                "def indirect(): return 2\n"
                "class Holder:\n"
                "    def method(self): return dead_from_dead()\n"
                "def dead_from_dead(): return 3\n"
                "def dead(): return dead_from_dead()\n"
                "def _private(): return 4\n"),
    }
    # `method` is loaded as an attribute, but Holder is never named
    assert unreached_public(sources, "cli") == {
        "Holder": "lib", "dead": "lib", "dead_from_dead": "lib"}
    assert unreached_public(sources, "cli", kept=["dead"]) == {"Holder": "lib"}


def test_public_names_reach_the_cli_or_are_allowed():
    sources = {path.stem: path.read_text() for path in MODULES}
    unexplained = unreached_public(sources, "cli", kept=ALLOWED_UNREACHED)
    assert unexplained == {}
    # the benchmark's hooks are the only reason to keep an unreached name
    assert [name for name, reason in ALLOWED_UNREACHED.items()
            if reason != PERFBENCH_HOOK] == []
    # a name the CLI reaches, or that is gone, leaves the allow-list
    unreached = unreached_public(sources, "cli")
    assert [name for name in ALLOWED_UNREACHED if name not in unreached] == []


def hooked_targets(source: str) -> list[tuple[str, ...]]:
    """The target of every `hook(owner, "attr", ...)` call in `source`
    whose owner is a module imported from the package, as its path from
    the package: ("spectral", "eigensolve"), ("lattice", "DisorderModel",
    "sample").  Owners outside the package (scipy, jsonschema) are left out."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "alloymsa"
               for alias in node.names}
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "hook":
            owner, attr = node.args[:2]
            path = [attr.value]
            while isinstance(owner, ast.Attribute):
                path.insert(0, owner.attr)
                owner = owner.value
            if isinstance(owner, ast.Name) and owner.id in modules:
                targets.append((modules[owner.id], *path))
    return targets


def test_hook_scanner():
    source = ("import scipy.linalg\n"
              "def install(hook):\n"
              "    from alloymsa import lattice, msa as m\n"
              "    hook(lattice.DisorderModel, 'sample', 'lattice.sample')\n"
              "    hook(m, 'uniform_regularity_test', 'msa.test', None)\n"
              "    hook(scipy.linalg, 'eigh', 'spectral.eigh')\n")
    assert hooked_targets(source) == [("lattice", "DisorderModel", "sample"),
                                      ("msa", "uniform_regularity_test")]


def test_perfbench_hooks_exist():
    # deleting a hooked name fails here, not only in the benchmark
    targets = hooked_targets(CHILD.read_text())
    assert ("spectral", "greens_column") in targets
    missing = []
    for module, *attrs in targets:
        owner = importlib.import_module(f"alloymsa.{module}")
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(".".join([module, *attrs]))
    assert missing == []
    # a name kept for the benchmark must still be hooked there
    hooked = {attrs[-1] for _, *attrs in targets}
    assert [name for name, reason in ALLOWED_UNREACHED.items()
            if "perfbench" in reason and name not in hooked] == []


def _is_dataclass_decorator(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    return (isinstance(node, ast.Name) and node.id == "dataclass") or \
        (isinstance(node, ast.Attribute) and node.attr == "dataclass")


def unread_fields(sources: dict[str, str], readers: list[str]) -> list[str]:
    """Fields of every `@dataclass` class in `sources` (module name ->
    source) that no `.field` attribute load in `readers` reads, as
    "Class.field".

    The check is by name only: `x.delta` anywhere counts as a read of
    every field named `delta`, so a field whose name another attribute
    shares is never flagged, and a field read only through `getattr`,
    `asdict` or unpacking is.
    """
    fields = []
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef) and \
                    any(map(_is_dataclass_decorator, node.decorator_list)):
                fields += [(node.name, stmt.target.id) for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
    read = {node.attr for source in readers for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls}.{name}" for cls, name in fields if name not in read]


def test_field_scanner():
    sources = {"lib": ("import dataclasses\n"
                       "from dataclasses import dataclass\n"
                       "@dataclass(frozen=True)\n"
                       "class A:\n"
                       "    read: int\n"
                       "    unread: float\n"
                       "    shared: int\n"
                       "    def total(self): return self.read\n"
                       "@dataclasses.dataclass\n"
                       "class B:\n"
                       "    only_written: int = 0\n"
                       "class NotADataclass:\n"
                       "    ignored: int\n")}
    readers = [*sources.values(), "def f(x): return x.shared\n",
               "def g(b): b.only_written = 1\n"]
    assert unread_fields(sources, readers) == ["A.unread", "B.only_written"]


def test_every_dataclass_field_is_read():
    sources = {path.stem: path.read_text() for path in MODULES}
    readers = [path.read_text()
               for root in (PACKAGE.parent, TESTS) for path in root.rglob("*.py")]
    assert unread_fields(sources, readers) == []


def unpassed_defaults(sources: dict[str, str], exempt=()) -> list[str]:
    """Parameters with a default of the public top-level functions of
    `sources` (module name -> source), but not of those named in `exempt`,
    that no call in `sources` passes, by position or by keyword, as
    "function.parameter".

    Calls match by the called name alone, bare or as an attribute.  A call
    with *args passes every positional parameter and one with **kwargs
    every parameter, so the scan may miss a knob but never flags one that
    some call sets."""
    params: dict[str, tuple[list[str], list[str]]] = {}
    calls = []
    for source in sources.values():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and \
                    not node.name.startswith("_") and node.name not in exempt:
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, default in
                              zip(args.kwonlyargs, args.kw_defaults)
                              if default is not None]
                params[node.name] = positional, defaulted
        calls += [node for node in ast.walk(tree)
                  if isinstance(node, ast.Call)]
    passed: dict[str, set[str]] = {name: set() for name in params}
    for call in calls:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else \
            func.attr if isinstance(func, ast.Attribute) else None
        if name not in params:
            continue
        positional, defaulted = params[name]
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            passed[name] |= set(positional)
        passed[name] |= set(positional[:len(call.args)])
        for keyword in call.keywords:
            passed[name] |= set(defaulted) if keyword.arg is None \
                else {keyword.arg}
    return [f"{name}.{param}" for name, (_, defaulted) in params.items()
            for param in defaulted if param not in passed[name]]


def test_default_scanner():
    sources = {"lib": ("def f(a, b=1, c=2, *, d=3, e=4): return a\n"
                       "def g(x, y=0): return x\n"
                       "def h(x, y=0): return x\n"
                       "def _private(x, y=0): return x\n"
                       "def main(argv=None): return 0\n"),
               "cli": ("from . import lib\n"
                       "lib.f(1, 2, e=5)\n"
                       "g(*[1, 2])\n"
                       "h(1, **{})\n")}
    assert unpassed_defaults(sources, exempt=["main"]) == ["f.c", "f.d"]


def test_every_default_is_passed_in_src():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unpassed_defaults(sources, ["main", *ALLOWED_UNREACHED]) == []


def _name(node) -> str | None:
    """The name a node spells, bare or as an attribute."""
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def sites(sources: dict[str, str], matches) -> set[str]:
    """Where in `sources` (module name -> source) a node for which
    `matches(node)` holds sits, as {"module.function"}, the innermost
    enclosing function ("module" at module level)."""
    found = set()

    def visit(node, where):
        if isinstance(node, ast.FunctionDef):
            where = f"{where.split('.')[0]}.{node.name}"
        elif matches(node):
            found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for module, source in sources.items():
        visit(ast.parse(source), module)
    return found


def calls_to(name: str):
    """A matcher of the calls to `name`, bare or as an attribute."""
    return lambda node: isinstance(node, ast.Call) and _name(node.func) == name


def raises(name: str):
    """A matcher of the statements that raise `name` or an instance of it."""
    def matches(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return _name(exc) == name
    return matches


def capacity_sites(sources: dict[str, str]) -> dict[str, set[str]]:
    """Where `sources` (module name -> source) call `capacity_cap` and
    raise `CapacityError`, as "calls" / "raises" -> {"module.function"},
    the innermost enclosing function ("module" at module level)."""
    return {"calls": sites(sources, calls_to("capacity_cap")),
            "raises": sites(sources, raises("CapacityError"))}


def test_capacity_scanner():
    sources = {
        "lattice": ("CAP = capacity_cap()\n"
                    "def check(n):\n"
                    "    if n > capacity_cap():\n"
                    "        raise CapacityError('big')\n"),
        "mc": ("def run():\n"
               "    def inner():\n"
               "        raise errors.CapacityError\n"
               "    raise ValueError\n"),
    }
    assert capacity_sites(sources) == {
        "calls": {"lattice", "lattice.check"},
        "raises": {"lattice.check", "mc.inner"}}


def test_capacity_policy_in_lattice_alone():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert capacity_sites(sources) == {
        "calls": {"lattice.check_capacity"},
        # mc's: a worker process that cannot be started or that died
        "raises": {"lattice.check_capacity", "mc._fork_share",
                   "mc.run_trials"}}


def sizes_box_by_truncation_radius(node) -> bool:
    """A call to `make_box` with an argument that reads `truncation_radius`."""
    return calls_to("make_box")(node) and any(
        _name(sub) == "truncation_radius"
        for arg in [*node.args, *(k.value for k in node.keywords)]
        for sub in ast.walk(arg))


def test_geometry_scanner():
    sources = {
        "lattice": ("def domain(u, box):\n"
                    "    return make_box(box.center,\n"
                    "                    box.half_side + u.truncation_radius)\n"
                    "def plain(l):\n"
                    "    return make_box((0,), l)\n"),
        "cli": ("from .lattice import make_box as mb\n"
                "def run(u, model, l, r):\n"
                "    box = lattice.make_box((0,), half_side=l + r)\n"
                "    r = u.truncation_radius\n"
                "    if model.in_support(0.0):\n"
                "        return make_box((0,), max(l, truncation_radius))\n"
                "WITNESS = in_support(0.0)\n"),
    }
    assert sites(sources, sizes_box_by_truncation_radius) == {
        "lattice.domain", "cli.run"}
    assert sites(sources, calls_to("in_support")) == {"cli.run", "cli"}


def test_coupling_domain_in_lattice_alone():
    # which couplings reach a box: `lattice.coupling_domain` is the one box
    # sized by the truncation radius of u
    sources = {path.stem: path.read_text() for path in MODULES}
    assert sites(sources, sizes_box_by_truncation_radius) == {
        "lattice.coupling_domain"}


def test_witness_rule_in_one_predicate():
    # whether the zeroed exterior witnesses a completion: only
    # `resonance.zeroed_exterior_witness` asks the density about 0
    sources = {path.stem: path.read_text() for path in MODULES}
    assert sites(sources, calls_to("in_support")) == {
        "resonance.zeroed_exterior_witness"}


def floors_a_side(node) -> bool:
    """A call to `floor` of 2x + 1, x + 1 with x a product or quotient of
    which 2 is a factor: the side of a cube of half-side x."""
    if not (calls_to("floor")(node) and len(node.args) == 1):
        return False
    arg = node.args[0]
    if not (isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Add)):
        return False
    for one, twice in ((arg.left, arg.right), (arg.right, arg.left)):
        while isinstance(twice, ast.BinOp) and \
                isinstance(twice.op, (ast.Mult, ast.Div)):
            if any(isinstance(side, ast.Constant) and side.value == 2
                   for side in (twice.left, twice.right)):
                return isinstance(one, ast.Constant) and one.value == 1
            twice = twice.left
    return False


def test_side_scanner():
    sources = {"lib": ("def tile(l, s):\n"
                       "    b = math.floor(2.0 * l ** 0.5 / s + 1.0)\n"
                       "    return floor(1 + l * 2) // b\n"
                       "def plain(l):\n"
                       "    return (2 * math.floor(l) + 1, floor(l + 1),\n"
                       "            floor(3 * l + 1), floor(2 * l + 2))\n"
                       "SIDE = floor(2 * L / 3 + 1)\n")}
    assert sites(sources, floors_a_side) == {"lib.tile", "lib"}


def test_tiling_rule_in_one_predicate():
    # the side b of the Lifshitz sub-cubes: only `initial_scale.odd_tiling`
    # computes it, for `admissible_lengths` and `lifshitz_probe` alike
    sources = {path.stem: path.read_text() for path in MODULES}
    assert sites(sources, floors_a_side) == {"initial_scale.odd_tiling"}
