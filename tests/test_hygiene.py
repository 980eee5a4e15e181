"""Static checks on the package source: no unused imports, no asserts, one
tower per map-level call, no dead helpers and no chain objects.

An ``assert`` vanishes under ``python -O``, so internal invariants raise
typed errors instead.  The scan is a plain AST walk because no linter is a
dependency of the project.  ``__init__.py`` is skipped for unused imports,
since its imports are the public re-exports.  A ``Tower`` is built only by
the map-level entry points, which hand it down, and no space points back at
its tower, so a dropped tower is freed without the cycle collector.  A
helper nothing calls is dead code, and chains are coordinate vectors only.
Pages and homology come from unit-pair reductions, so no module builds the
dense total differential the reduction replaced: the pages from a ladder of
rungs, each homology of a whole complex from one reduction of it.  The map
fixes every grid bound and degree range, so no entry point takes one.
What several checks of one map share is kept on its tower, never in a
process-wide cache: no ``functools`` cache and no module-level memo.  A
caller that shares data passes the data, so no parameter defaults to a
function or a class.  Every (co)homology is read off one reduction of a
whole complex, so no module calls the per-degree public routines.
"""

import argparse
import ast
import builtins
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "icss"
MODULES = sorted(SRC.glob("*.py"))
NON_INIT = [p for p in MODULES if p.name != "__init__.py"]


def used_names(tree) -> set:
    """Every bare name the module reads, including inside string annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return names


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]


@pytest.mark.parametrize("path", NON_INIT, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [
        f"{line}: {name}" for line, name in imported_names(tree) if name not in used
    ]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text())
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert not lines, f"{path.name} has assert statements at lines {lines}"


# the functions that take a map and build the one tower of the call
TOWER_OWNERS = {"icss", "gvzss", "run_all", "cmd_build"}


def tower_misuse(tree) -> list:
    """``Tower(...)`` outside TOWER_OWNERS, and any ``.tower`` assignment
    other than ``self.tower`` on a DoubleComplex."""
    found = []

    def visit(node, func, cls):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        elif isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, ast.Call):
            callee = node.func
            name = getattr(callee, "id", None) or getattr(callee, "attr", None)
            if name == "Tower" and func not in TOWER_OWNERS:
                found.append(f"{node.lineno}: Tower() in {func}")
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            on_self = isinstance(node.value, ast.Name) and node.value.id == "self"
            if node.attr == "tower" and not (on_self and cls == "DoubleComplex"):
                found.append(f"{node.lineno}: .tower assigned in {func}")
        for child in ast.iter_child_nodes(node):
            visit(child, func, cls)

    visit(tree, None, None)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_tower_per_call(path):
    misuse = tower_misuse(ast.parse(path.read_text()))
    assert not misuse, f"{path.name} builds or attaches towers: {misuse}"


def dead_helpers() -> list:
    """Module-level functions that no module outside ``__init__`` reads by
    name, and ``_``-prefixed methods that none reads as an attribute, unless
    ``__init__`` re-exports them.  ``main`` is the script entry point."""
    names, attrs, functions, methods = set(), set(), [], []
    for path in NON_INIT:
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions.append((path.name, node.name))
            elif isinstance(node, ast.ClassDef):
                methods.extend(
                    (path.name, node.name, item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                    and item.name.startswith("_")
                    and not item.name.endswith("__")
                )
    init = ast.parse((SRC / "__init__.py").read_text())
    exempt = {name for _, name in imported_names(init)} | {"main"}
    dead = [f"{m}: {name}" for m, name in functions if name not in names | exempt]
    dead += [f"{m}: {c}.{name}" for m, c, name in methods if name not in attrs | exempt]
    return dead


def test_no_dead_helpers():
    dead = dead_helpers()
    assert not dead, f"defined but never used: {dead}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_chain_object(path):
    """A chain is a coordinate vector: no module defines or imports ``Chain``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "Chain":
            found.append(node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id == "Chain":
                found.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if any("Chain" in (alias.name, alias.asname) for alias in node.names):
                found.append(node.lineno)
    assert not found, f"{path.name} defines or imports Chain at lines {found}"


def test_one_unit_pair_reduction():
    """``reduce_complex`` is defined once, in intlinalg, and nothing defines
    or names an assembler of the dense total differential."""
    defined, assemblers = [], []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "name", None) or getattr(node, "id", None)
            name = name or getattr(node, "attr", None)
            if isinstance(node, ast.FunctionDef) and name == "reduce_complex":
                defined.append(path.name)
            if isinstance(name, str) and "assemble" in name.lower():
                assemblers.append(f"{path.name}:{node.lineno} {name}")
    assert defined == ["intlinalg.py"], defined
    assert not assemblers, assemblers


def calls_named(tree, names) -> list:
    """(line, enclosing function, name) of each call of one of ``names``."""
    found = []

    def visit(node, func):
        if isinstance(node, ast.FunctionDef):
            func = node.name
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in names:
                found.append((node.lineno, func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_one_reduction_per_rung_and_per_complex():
    """In ``spectral`` only ``SpectralSequence.rung`` calls
    ``reduce_complex``, and neither ``multiplicity`` nor ``cli`` takes the
    homology of a complex degree by degree: one whole-complex homology
    gives every degree."""
    reductions = calls_named(ast.parse((SRC / "spectral.py").read_text()), {"reduce_complex"})
    assert [func for _, func, _ in reductions] == ["rung"], reductions
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for name in ("multiplicity.py", "cli.py"):
        looped = [
            (name, call.lineno)
            for loop in ast.walk(ast.parse((SRC / name).read_text()))
            if isinstance(loop, loops)
            for call in ast.walk(loop)
            if isinstance(call, ast.Call)
            and "homology_of_complex"
            in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        ]
        assert not looped, f"homology_of_complex called in a loop: {looped}"


def test_blocks_become_sparse_columns_once():
    """``spectral`` converts no dense block to sparse columns: both grids'
    ranks and vertical blocks, and the W grid's horizontal ones, are
    written as columns off the map's lift table, and the Alt grid's
    horizontal blocks are the tower's alternating complexes, made as
    columns once per space.  The identity checks, the total complex and
    the page-one oracle read the columns."""
    found = calls_named(ast.parse((SRC / "spectral.py").read_text()), {"sparse_columns"})
    assert not found, f"spectral.py converts dense blocks: {found}"


def test_w_blocks_are_built_as_columns():
    """``spectral`` builds no W^k and makes no chain-level boundary or
    transfer: the W grid is written off the lift table.  The only
    ``SimplicialMap`` that ``multiplicity`` makes is the validated
    ``projection_eps``."""
    tree = ast.parse((SRC / "spectral.py").read_text())
    dense = calls_named(
        tree,
        {"boundary_matrix", "rho_matrix", "pushforward_matrix", "boundary_columns"},
    )
    assert not dense, f"spectral.py builds chain-level blocks: {dense}"
    spaces = calls_named(tree, {"W"})
    assert not spaces, f"spectral.py builds W^k: {spaces}"
    imported = {name for _, name in imported_names(tree)}
    assert not imported & {"boundary_columns", "rho_matrix"}, imported
    maps = calls_named(ast.parse((SRC / "multiplicity.py").read_text()), {"SimplicialMap"})
    assert [func for _, func, _ in maps] == ["projection_eps"], maps


# every parameter of the map- and grid-level entry points: the map, its tower
# or its sequence, plus the kind, the filtration or the degree
ENTRY_PARAMETERS = {
    "spectral.py": {
        "build_double": ["tower", "kind"],
        "icss": ["f"],
        "gvzss": ["f"],
        "first_ss": ["tower", "kind"],
        "make_report": ["ss", "kind_name"],
        "icss_report": ["f"],
        "gvzss_report": ["f"],
    },
    "verify.py": {"run_all": ["f"], "check_D2_kernel": ["tower", "n"]},
}


def test_entry_points_take_no_bound():
    """The map decides the grid's shape and the degrees a report covers: no
    entry point takes a bound or a seed, and ``icss``, ``gvzss``,
    ``homology`` and ``verify`` take no option."""
    for name, expected in ENTRY_PARAMETERS.items():
        found = {}
        for node in ast.parse((SRC / name).read_text()).body:
            if isinstance(node, ast.FunctionDef) and node.name in expected:
                a = node.args
                params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                found[node.name] = params + [x.arg for x in (a.vararg, a.kwarg) if x]
        assert found == expected, name
    from icss.cli import build_parser

    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in ("icss", "gvzss", "homology", "verify"):
        options = {o for a in commands.choices[command]._actions for o in a.option_strings}
        assert options == {"-h", "--help"}, (command, options)


# removed in 0.8.0: a slot permutation is a reordered lift tuple, each
# alternating map has one construction on ``AltBasis``, the last-slot
# projection is ``pushforward_matrix(projection_eps(Z, Z.k), n)``, and a
# space is built by ``Tower(f).W(k)``/``.D(k)``
REMOVED_NAMES = {
    "SkElement",
    "sk_matrix",
    "sk_vertex_map",
    "alt_star_matrix",
    "theta_matrix",
    "eps_last_matrix",
    "build_W",
    "build_D",
}


# removed in 0.9.0: lifts are found and ordered by ``LiftTable`` alone (not
# ``ordered_lifts`` and a ``lift_index`` slot on the map), an alternating
# generator is a ``grid_cells`` record (not an ``AltGen``), the W cells'
# listing is ``grid_cells`` (not ``verify._listing``), and the transfer is
# ``rho_columns`` alone
REMOVED_NAMES |= {"ordered_lifts", "lift_index", "_listing", "AltGen", "rho_matrix"}


# removed in 0.12.0: the D row is the lift table's subset drops, checked by
# the routine that checks the W row, and the alternating transfer is
# compared with the table's D columns as whole blocks, not per simplex
REMOVED_NAMES |= {"_std_boundary", "_std_row", "gens_over"}


# removed in 0.15.0: a reduced complex is its sparse columns, and a reader
# forms a dense matrix where a kernel, subgroup or Smith form takes one
REMOVED_NAMES |= {"Differentials"}


def test_removed_names_stay_removed():
    """No module defines, binds, imports or reads a removed name, as a name,
    an attribute or a string such as a ``__slots__`` entry, ``icss``
    exports none, and a spectral sequence has no dense differential ``D``
    (a rung's differential is ``rung(g)[0]``)."""
    import icss

    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            elif isinstance(node, ast.alias):
                name = node.asname or node.name
            else:
                continue
            if name in REMOVED_NAMES:
                found.append((path.name, node.lineno, name))
    assert not found, f"removed names are back: {found}"
    exported = REMOVED_NAMES & set(dir(icss))
    assert not exported, f"icss exports removed names: {exported}"
    assert not hasattr(icss.SpectralSequence, "D")


# routines that no command, report or check reads, kept in tests/reference.py
# as test oracles: module-level names, and (class, method) pairs
MOVED_FUNCTIONS = {
    "alternating_homology_kernel", "rank", "dual_columns", "cochain_homology",
    "alternating_cochain_homology", "dual_alternating_homology",
    "alt_transfer", "alt_veps_matrix",
}
MOVED_METHODS = {
    ("SimplicialComplex", "has_simplex"),
    *(
        ("IntMatrix", name)
        for name in (
            "from_rows", "from_columns", "copy", "transpose", "__add__", "__sub__", "is_zero",
            "scaled", "mul_vec",
        )
    ),
}


def test_oracles_live_in_the_tests():
    """No module of the package defines a routine moved to the test oracles,
    ``icss`` exports none, and ``import icss`` loads no ``icss.cohomology``."""
    import icss

    found = [
        (path.name, node.name)
        for path in MODULES
        for node in ast.parse(path.read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name in MOVED_FUNCTIONS
    ]
    found += [(cls, name) for cls, name in MOVED_METHODS if hasattr(getattr(icss, cls), name)]
    assert not found, f"moved routines are defined in the package: {found}"
    assert not MOVED_FUNCTIONS & set(dir(icss)), MOVED_FUNCTIONS & set(dir(icss))
    assert "icss.cohomology" not in sys.modules and not (SRC / "cohomology.py").exists()


MAPPING_FACTORIES = {"dict", "defaultdict", "OrderedDict", "WeakKeyDictionary", "WeakValueDictionary"}


def process_caches(tree) -> list:
    """``functools.cache``/``lru_cache`` anywhere, an empty mapping bound at
    module level, and a function that stores into a module-level name."""
    found = []
    module_names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            module_names.update(t.id for t in targets if isinstance(t, ast.Name))
            value = node.value
            empty = isinstance(value, ast.Dict) and not value.keys
            if isinstance(value, ast.Call):
                callee = getattr(value.func, "id", None) or getattr(value.func, "attr", None)
                empty = callee in MAPPING_FACTORIES
            if empty:
                found.append(f"{node.lineno}: module-level mapping")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in ("cache", "lru_cache")
            and getattr(node.value, "id", None) == "functools"
        ):
            found.append(f"{node.lineno}: functools.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found.extend(
                f"{node.lineno}: functools.{a.name}"
                for a in node.names
                if a.name in ("cache", "lru_cache")
            )
        elif isinstance(node, ast.Global):
            found.append(f"{node.lineno}: global {', '.join(node.names)}")
        elif isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                if (
                    isinstance(inner, ast.Subscript)
                    and isinstance(inner.ctx, ast.Store)
                    and isinstance(inner.value, ast.Name)
                    and inner.value.id in module_names
                ):
                    found.append(f"{inner.lineno}: {inner.value.id}[...] stored in {node.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_process_wide_cache(path):
    """Caches live on the tower (``Tower.memo``), so they are freed with it
    and a repeated map is computed again, as a new map would be."""
    found = process_caches(ast.parse(path.read_text()))
    assert not found, f"{path.name} keeps a process-wide cache: {found}"


def test_process_cache_scan_finds_each_kind():
    src = """
import functools
from functools import lru_cache
_MEMO = {}
_MORE = dict()

@functools.cache
def f(x):
    _MEMO[x] = x
    return x

def g():
    global _MORE
"""
    found = process_caches(ast.parse(src))
    for what in ("functools.lru_cache", "functools.cache", "module-level mapping",
                 "_MEMO[...] stored in f", "global _MORE"):
        assert any(what in line for line in found), (what, found)


def callable_defaults(tree) -> list:
    """Parameter defaults that name a function or a class: a lambda, a
    module-level def or class, an imported name, a callable builtin, or an
    attribute of one of those."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
    bound.update(name for _, name in imported_names(tree))
    bound.update(name for name in dir(builtins) if callable(getattr(builtins, name)))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        for default in node.args.defaults + [d for d in node.args.kw_defaults if d]:
            base = default
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(default, ast.Lambda) or (
                isinstance(base, ast.Name) and base.id in bound
            ):
                found.append(f"{default.lineno}: {ast.unparse(default)}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_or_class_defaults(path):
    """Shared data is passed as data: no parameter defaults to a getter."""
    found = callable_defaults(ast.parse(path.read_text()))
    assert not found, f"{path.name} has function or class defaults: {found}"


def test_callable_default_scan_finds_each_kind():
    src = """
from x import helper
class Basis: ...
def f(a, b=Basis, *, c=helper, d=lambda: 0, e=sorted, g=helper.attr, h=None, i=3): ...
"""
    found = callable_defaults(ast.parse(src))
    assert [line.split(": ", 1)[1] for line in found] == [
        "Basis", "helper", "lambda: 0", "sorted", "helper.attr"
    ], found


# each takes one degree of one space; inside the package every (co)homology
# is read off one reduction of a whole complex instead
PER_DEGREE_ROUTINES = {"alternating_homology", "homology_of_complex"}


def test_no_per_degree_homology_calls():
    found = [
        (path.name, *call)
        for path in MODULES
        for call in calls_named(ast.parse(path.read_text()), PER_DEGREE_ROUTINES)
    ]
    assert not found, f"per-degree homology called inside the package: {found}"


def test_lifts_and_listing_sign_live_in_multiplicity():
    """Lifts are found in ``LiftTable`` alone and the listing sign is
    computed in ``grid_cells`` alone: outside ``multiplicity`` no module
    reads a space's ``products`` or imports the lift-tuple enumerators
    ``permutations`` and ``product``; inside it, only ``LiftTable`` reads
    the map's vertices and only ``grid_cells`` reads the products or signs
    a sort; elsewhere ``sort_sign`` signs pushforwards in ``complexes``."""
    enumerators = {"permutations", "product"}
    for path in MODULES:
        tree = ast.parse(path.read_text())
        if path.name == "multiplicity.py":
            continue
        products = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "products"
        ]
        assert not products, f"{path.name} reads .products at lines {products}"
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            for alias in node.names
        }
        assert not imported & enumerators, f"{path.name} imports {imported & enumerators}"
        signs = calls_named(tree, {"sort_sign"})
        if path.name != "complexes.py":
            assert not signs, f"{path.name} signs a sort: {signs}"

    tree = ast.parse((SRC / "multiplicity.py").read_text())
    readers = {"vertex_map": set(), "products": set(), "sort_sign": set()}

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            func = node.name if func is None else f"{func}.{node.name}"
        elif isinstance(node, ast.Attribute) and node.attr in readers:
            if node.attr == "vertex_map" or isinstance(node.ctx, ast.Load):
                readers[node.attr].add(func)
        elif isinstance(node, ast.Name) and node.id == "sort_sign":
            readers["sort_sign"].add(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    assert readers == {
        "vertex_map": {"LiftTable.__init__"},
        "products": {"grid_cells.listed"},
        "sort_sign": {"grid_cells", "grid_cells.listed"},
    }, readers
