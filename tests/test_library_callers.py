"""Every library name has a caller outside the tests, or is listed here.

The test scans ``src/gwcommute`` for module-level functions and classes and
looks for a reference to each in ``src/`` and ``benchmarks/*.py``: a name,
an attribute or a string (the benchmark tracer wraps names by string).
A use inside the definition itself does not count, and neither does a use
inside a def that is itself test-only.  The names left over are used by the
tests alone; they must match TEST_ONLY exactly, so a new test-only name, or
a listed name that is deleted or gains a caller, fails here and the list
stays true.  The names that only the benchmark keeps alive, left over
when ``src/`` alone is scanned, must match BENCHMARK_ONLY the same way.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = sorted((ROOT / "src" / "gwcommute").glob("*.py"))
CALLERS = LIBRARY + sorted((ROOT / "benchmarks").glob("*.py"))

# Names only the tests call, directly or through each other: the Hermite
# paper checks, the grid sampler and error norm the tests build inputs and
# comparisons with, and the full |xi|^2 grid the multiplier tests compare
# against.  Delete a name here when it is deleted or gains a library caller.
TEST_ONLY = {
    "grid.from_callable",
    "grid.rel_l2_error",
    "hermite.flavor_convert",
    "hermite.gaussian_derivative",
    "hermite.gaussian_kernel_point",
    "hermite.hermite_by_recurrence",
    "hermite.hermite_one",
    "hermite.hermite_recurrence",
    "hermite.monomial_expand",
    "hermite.reconstruct_monomial",
    "multiindex.zero",
    "semigroup.xi_squared",
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
    "semigroup.derivative_multiplier",
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


def unreferenced(statements) -> set[str]:
    """Names of the defs that no live statement uses.

    statements holds (name, identifiers) per top-level statement, with name
    None for everything that is not a library def: benchmark code and
    module-level assignments are live from the start.  A name may carry a
    "module." prefix.  A def is live once a live statement other than itself
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


def uncalled_names(callers=CALLERS) -> set[str]:
    statements = []
    for path in callers:
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            is_def = path in LIBRARY and isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            statements.append((f"{path.stem}.{stmt.name}" if is_def else None,
                               identifiers(stmt)))
    return unreferenced(statements)


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


def test_scan_counts_live_uses_only():
    source = (
        "def used():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n"
        "def helper():\n    return 2\n\n"
        "def only_for_tests():\n    return helper()\n\n"
        "class Lonely:\n    def copy(self):\n        return Lonely()\n\n"
        "from elsewhere import imported_only\n"
        "def imported_only():\n    return 3\n\n"
        "TABLE = {'used': used}\n"
    )
    statements = [(getattr(stmt, "name", None), identifiers(stmt))
                  for stmt in ast.parse(source).body]
    assert unreferenced(statements) == {
        "recursive", "helper", "only_for_tests", "Lonely", "imported_only"}
