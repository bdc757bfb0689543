"""Every library name has a caller outside the tests, or is listed here.

The test scans ``src/gwcommute`` for module-level functions and classes, and
for the methods of those classes, and looks for a reference to each in
``src/`` and ``benchmarks/*.py``: a name, an attribute or a string (the
benchmark tracer wraps names by string).  A use inside the definition itself
does not count, and neither does a use inside a def that is itself
test-only.  Dunder methods are not scanned on their own, because operators
and the runtime reach them without naming them; their bodies count as the
class's.  Methods are matched by name alone, so a method that shared its
name with a live one would count as live; no two library defs may share a
name, which keeps the match exact.  The names left over are used by the
tests alone; they must match TEST_ONLY exactly, so a new test-only name, or
a listed name that is deleted or gains a caller, fails here and the list
stays true.  The names that only the benchmark keeps alive, left over
when ``src/`` alone is scanned, must match BENCHMARK_ONLY the same way.
"""
import ast
import copy
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "gwcommute").glob("*.py"))
# the names a library import of test code would use: the tests package, or
# a module next to this file, importable as a top-level name when pytest
# runs (oracles, conftest, the test modules)
TEST_MODULES = {"tests"} | {p.stem for p in ROOT.joinpath("tests").glob("*.py")}
CALLERS = LIBRARY + sorted((ROOT / "benchmarks").glob("*.py"))

# Names only the tests call, directly or through each other.  The tests'
# own oracles live in tests/oracles.py; monomial_expand stays in the
# library because the exact evaluator planned in ROADMAP item 7 (the
# Gaussian cases from their spec, pointwise) is to be its caller.  Delete a
# name here when it is deleted or gains a library caller.
TEST_ONLY = {
    "hermite.monomial_expand",
}

# Names that no library code calls and benchmarks/*.py does: the benchmark
# workloads enumerate alphas with enumerate_up_to, and its tracer wraps the
# rest by string.  Delete a name here when it gains a library caller or the
# benchmark lets it go.
BENCHMARK_ONLY = {
    "commutator.convolution_pairs",
    "multiindex.enumerate_up_to",
    "semigroup.apply_fourier",
    "semigroup.convolve_weighted_kernel",
    "semigroup.spectral_derivative",
}


def identifiers(node: ast.AST) -> set[str]:
    """The names node uses: name nodes, attributes and strings.

    An import alone is not a use, so a dead import keeps nothing alive.
    """
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def def_statements(stmt: ast.AST, prefix: str) -> list[tuple[str, set[str]]]:
    """(name, identifiers) for a library def, each name under prefix.

    A class gives its own entry, which holds everything but its non-dunder
    methods, and one entry per such method, named "Class.method".
    """
    name = f"{prefix}.{stmt.name}"
    if not isinstance(stmt, ast.ClassDef):
        return [(name, identifiers(stmt))]
    methods = [sub for sub in stmt.body
               if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__")]
    shell = copy.copy(stmt)
    shell.body = [sub for sub in stmt.body if sub not in methods]
    return [(name, identifiers(shell))] + [
        (f"{name}.{method.name}", identifiers(method)) for method in methods]


def unreferenced(statements) -> set[str]:
    """Names of the defs that no live statement uses.

    statements holds (name, identifiers) per top-level statement, with name
    None for everything that is not a library def: benchmark code and
    module-level assignments are live from the start.  A name may carry
    "module." and "Class." prefixes.  A def is live once a live statement other than itself
    uses it, so a def that only test-only defs call is test-only too.
    """
    live = [ids for name, ids in statements if name is None]
    pending = {name: ids for name, ids in statements if name is not None}
    while True:
        reached = [name for name in pending
                   if any(name.rsplit(".", 1)[-1] in ids for ids in live)]
        if not reached:
            return set(pending)
        live += [pending.pop(name) for name in reached]


def module_statements(source: str, stem: str, library: bool):
    """(name, identifiers) per top-level statement of one module's source."""
    statements = []
    for stmt in ast.parse(source, filename=stem).body:
        if library and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            statements += def_statements(stmt, stem)
        else:
            statements.append((None, identifiers(stmt)))
    return statements


def uncalled_names(callers=CALLERS) -> set[str]:
    return unreferenced([statement for path in callers for statement in
                         module_statements(path.read_text(), path.stem, path in LIBRARY)])


def shared_names(statements) -> dict[str, list[str]]:
    """{name: defs} for each name that two or more library defs carry, as
    the scan matches them: by the last component of "module.Class.method"."""
    owners = {}
    for name, _ in statements:
        if name is not None:
            owners.setdefault(name.rsplit(".", 1)[-1], []).append(name)
    return {short: names for short, names in owners.items() if len(names) > 1}


def test_scan_sees_the_library():
    assert {p.name for p in LIBRARY} >= {"grid.py", "semigroup.py", "catalog.py"}
    assert any(p.name == "tracer.py" for p in CALLERS)


def test_test_only_names_match_the_allowlist():
    uncalled = uncalled_names()
    assert uncalled - TEST_ONLY == set(), "new test-only names in the library"
    assert TEST_ONLY - uncalled == set(), "listed names that are gone or now have a caller"


def test_benchmark_only_names_match_the_allowlist():
    held = uncalled_names(LIBRARY) - TEST_ONLY
    assert held - BENCHMARK_ONLY == set(), "new names only the benchmark keeps alive"
    assert BENCHMARK_ONLY - held == set(), "listed names that are gone or now have a library caller"


def test_no_two_library_defs_share_a_name():
    # a method named like another def would be kept alive by that def's
    # callers, as HermitePoly.scale was by CommutatorTerm.scale's
    statements = [statement for path in LIBRARY for statement in
                  module_statements(path.read_text(), path.stem, library=True)]
    assert shared_names(statements) == {}


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in source."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_library_imports_nothing_from_the_tests():
    assert "oracles" in TEST_MODULES
    assert imported_modules("import tests.oracles\nfrom oracles import x\n"
                            "from . import grid\nimport numpy as np\n") == {
        "tests", "oracles", "numpy"}
    for path in LIBRARY:
        assert imported_modules(path.read_text()) & TEST_MODULES == set(), path.name


def test_scan_counts_live_uses_only():
    source = (
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "def helper():\n    return 2\n\n"
        "def only_for_tests():\n    return helper()\n\n"
        "class Lonely:\n    def copy(self):\n        return Lonely()\n"
        "    def scale(self):\n        return 5\n\n"
        "from elsewhere import imported_only\n"
        "def imported_only():\n    return 3\n\n"
        "class Poly:\n    def __mul__(self, k):\n        return self.scale(k)\n"
        "    def scale(self, k):\n        return Poly()\n"
        "    def evaluate(self):\n        return only_from_evaluate()\n\n"
        "def only_from_evaluate():\n    return 4\n\n"
        "TABLE = {'used': used, 'poly': Poly}\n"
    )
    # Poly.scale is live through Poly.__mul__, and Lonely.scale by its name.
    statements = module_statements(source, "m", library=True)
    assert unreferenced(statements) == {
        "m.recursive", "m.helper", "m.only_for_tests", "m.Lonely", "m.Lonely.copy",
        "m.imported_only", "m.Poly.evaluate", "m.only_from_evaluate"}
    # which is why the library may not share a name between two defs
    assert shared_names(statements) == {"scale": ["m.Lonely.scale", "m.Poly.scale"]}
