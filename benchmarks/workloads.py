"""The three benchmark workloads, each driving gwcommute through its public API.

A workload runs inside one fresh child process in two phases:

    setup(seed, work_dir) -> inputs   timed into setup_s, together with
                                      interpreter start and imports
    body(inputs, checks) -> items     the measured work; every correctness
                                      check goes through ``checks``

The seed offsets the seed of the band-limited catalog entry, the way the
CLI's ``suite.seed`` does; seed 0 is the frozen catalog.  Why each workload
exists is written down in NOTES.md.
"""
from __future__ import annotations

import csv
import dataclasses
import hashlib
import warnings
from contextlib import contextmanager
from itertools import product
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ESTIMATE_CONFIG = HERE / "estimate_suite.cfg"

IDENTITY_GRIDS = ((1, 512), (2, 256))
IDENTITY_HALF_WIDTH = 16.0
IDENTITY_FAMILIES = ("gauss-wide", "mixture", "bandlimited")
IDENTITY_OMEGAS = (1.0 + 0.0j, 0.25 + 0.0j, 1.0 + 0.99j, 2.0 - 1.0j)
IDENTITY_TOL = 1e-6
IDENTITY_PAIRS = 3  # rows per case: three pairwise discrepancies

CGL_SLOPE_TOL = 0.1
CGL_CHECKS = 5  # decay_bounded, and per m = 1, 2: slope and ratio_bounded

ESTIMATE_ROWS = 721
ESTIMATE_PASS_ROWS = 676  # estimate and kernel-norm rows carry a pass column


class Checks:
    """Counts correctness checks; an exception is a failed check, never a skip."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}  # artifact name -> SHA-256

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    @contextmanager
    def group(self, label: str, expected: int):
        """Run a block that should record ``expected`` checks.

        If the block raises, the checks it did not get to count as failed
        (at least one), labelled with the exception.
        """
        start = self.attempted
        try:
            yield
        except Exception as exc:  # the workload boundary: report, keep running
            missing = max(1, expected - (self.attempted - start))
            for _ in range(missing):
                self.record(f"{label}: {type(exc).__name__}: {exc}", False)


def realize(name: str, dim: int, points: int, half_width: float, seed: int):
    """A catalog entry with the band-limited seed offset, as the CLI realizes it."""
    from gwcommute import catalog, grid

    spec = catalog.get_entry(name)
    if spec.kind == "bandlimited" and seed:
        spec = dataclasses.replace(spec, seed=spec.seed + seed)
    phi = spec.realize(dim, points, half_width)
    fraction = grid.boundary_mass_fraction(phi)
    if fraction > 1e-12:
        raise ValueError(f"{name} has boundary mass {fraction:.2e} at seed {seed}")
    return phi


# identity-sweep -------------------------------------------------------------

def identity_setup(seed: int, work_dir: Path):
    """The 216 (test function, alpha, omega) cases."""
    import gwcommute.commutator  # noqa: F401  (imported in setup, used in body)
    from gwcommute.multiindex import enumerate_up_to

    cases = []
    for dim, points in IDENTITY_GRIDS:
        alphas = [a for a in enumerate_up_to(dim, 4) if a.order >= 1]
        fields = [realize(name, dim, points, IDENTITY_HALF_WIDTH, seed)
                  for name in IDENTITY_FAMILIES]
        for alpha, (name, phi), omega in product(
                alphas, zip(IDENTITY_FAMILIES, fields), IDENTITY_OMEGAS):
            cases.append((name, alpha, omega, phi))
    return cases


def identity_body(cases, checks: Checks) -> int:
    from gwcommute.commutator import identity_reports

    done = 0
    for name, alpha, omega, phi in cases:
        label = f"identity {name} alpha={alpha.to_str()} omega={omega}"
        with checks.group(label, IDENTITY_PAIRS):
            reports = identity_reports(alpha, omega, phi, testfn=name,
                                       tol=IDENTITY_TOL)
            for rep in reports:
                checks.record(f"{label} {rep.param('pair')} rel={rep.lhs:.3e}",
                              rep.lhs <= IDENTITY_TOL)
            done += 1
    return done


# cgl-growth -----------------------------------------------------------------

def cgl_setup(seed: int, work_dir: Path):
    """Acceptance-10 parameters; there is no band-limited input, so the
    seed leaves the inputs unchanged."""
    from gwcommute.catalog import GaussianComponent, TestFunctionSpec
    from gwcommute.cgl import CGLConfig

    spec = TestFunctionSpec(id="u0", kind="gaussian",
                            components=(GaussianComponent(sigma=1.0, amplitude=0.01),))
    u0 = spec.realize(1, 2048, 64.0)
    return CGLConfig(nu=1.0, lam=-1.0, p_exponent=4.0, u0=u0, dt=0.01,
                     horizon=100.0)


def cgl_body(cfg, checks: Checks) -> int:
    from gwcommute.cgl import (
        decay_bounded,
        decay_records,
        fit_loglog_slope,
        ratio_bounded,
        simulate,
        weighted_records,
    )

    steps = 0
    with checks.group("cgl-growth", CGL_CHECKS):
        with warnings.catch_warnings():
            # the diffusive tail reaches the box collar long before t = 100;
            # the boundary monitor warning is expected at this horizon
            warnings.simplefilter("ignore", RuntimeWarning)
            run = simulate(cfg)
        steps = round(cfg.horizon / cfg.dt)
        checks.record("decay_bounded", decay_bounded(decay_records(run)))
        for m in (1, 2):
            records = weighted_records(run, m, 1.0)
            slope = fit_loglog_slope(records, 25.0, 100.0)
            checks.record(f"slope m={m} is {slope:.4f}",
                          abs(slope - m / 2.0) <= CGL_SLOPE_TOL)
            checks.record(f"ratio_bounded m={m}", ratio_bounded(records, factor=3.0))
    return steps


# estimate-suite -------------------------------------------------------------

def estimate_setup(seed: int, work_dir: Path):
    """Write the benchmark config with this seed; the CLI parses it in the body."""
    import gwcommute.cli  # noqa: F401  (imported in setup, used in body)

    text = ESTIMATE_CONFIG.read_text()
    if "\nseed = 0\n" not in text:
        raise ValueError(f"{ESTIMATE_CONFIG} lost its 'seed = 0' line")
    config_path = work_dir / "estimate_suite.cfg"
    config_path.write_text(text.replace("\nseed = 0\n", f"\nseed = {seed}\n"))
    out_dir = work_dir / "out"
    return config_path, out_dir


def estimate_body(inputs, checks: Checks) -> int:
    """One ``gw-commute suite`` invocation; one item per CSV data row.

    The SHA-256 of every CSV goes to ``checks.digests``, so that the runner
    can compare invocations byte for byte.
    """
    from gwcommute import cli

    config_path, out_dir = inputs
    rows = 0
    with checks.group("estimate-suite", ESTIMATE_PASS_ROWS + 2):
        code = cli.main(["suite", "--config", str(config_path),
                         "--out-dir", str(out_dir)])
        checks.record(f"suite exit code {code}", code == 0)
        for path in sorted(out_dir.glob("*.csv")):
            data = path.read_bytes()
            checks.digests[path.name] = hashlib.sha256(data).hexdigest()
            lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
            for row in csv.DictReader(lines):
                rows += 1
                if "pass" in row:
                    checks.record(f"{path.name} row {rows} pass={row['pass']}",
                                  row["pass"] == "true")
        checks.record(f"{rows} data rows, expected {ESTIMATE_ROWS}",
                      rows == ESTIMATE_ROWS)
    return rows


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    item: str
    setup: Callable
    body: Callable
    min_reps: int = 1  # estimate-suite needs two invocations to compare bytes


WORKLOADS = {
    w.name: w
    for w in (
        Workload("identity-sweep", "case", identity_setup, identity_body),
        Workload("cgl-growth", "step", cgl_setup, cgl_body),
        Workload("estimate-suite", "row", estimate_setup, estimate_body, min_reps=2),
    )
}

