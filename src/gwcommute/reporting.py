"""Report rows and deterministic CSV emission.

One row type serves every harness: inequality checks set (lhs, rhs,
constant) to the two sides and the explicit constant; identity checks set
lhs to the observed discrepancy and rhs to its tolerance.  Pass/fail is
always lhs <= rhs * (1 + 1e-9).

CSV files are written atomically (temp file + rename), carry a header row,
and end with the footer comment "# gw-commute <version> <config-hash>".
Floats are formatted with repr (shortest round-trip), so identical inputs
give byte-identical files.
"""
from __future__ import annotations

import contextlib
import hashlib
import math
import os
from dataclasses import dataclass, field

from . import __version__

PASS_SLACK = 1e-9


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return repr(value)
    return str(value)


def format_exponent(p: float) -> str:
    """Lebesgue exponents print as integers when integral, else repr."""
    if math.isinf(p):
        return "inf"
    if float(p).is_integer():
        return str(int(p))
    return repr(float(p))


@dataclass(frozen=True)
class EstimateReport:
    """One verification row: an inequality lhs <= rhs or a discrepancy bound."""

    check: str
    lhs: float
    rhs: float
    constant: float = 0.0
    params: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self):
        if not (math.isfinite(self.lhs) and math.isfinite(self.rhs)):
            raise ValueError(f"non-finite report values in {self.check}")

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs * (1.0 + PASS_SLACK)

    def param(self, key: str) -> str:
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(f"report {self.check} has no parameter {key!r}")

    def row(self, columns: list[str]) -> list[str]:
        special = {
            "lhs": format_value(self.lhs),
            "rhs": format_value(self.rhs),
            "constant": format_value(self.constant),
            "margin": format_value(self.margin),
            "pass": format_value(self.passed),
            "rel_l2_err": format_value(self.lhs),
            "norm": format_value(self.lhs),
            "bound": format_value(self.rhs),
            "check": self.check,
        }
        return [special[c] if c in special else self.param(c) for c in columns]


def config_hash(text: str) -> str:
    """12 hex chars identifying the configuration that produced an artifact."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def footer_line(cfg_hash: str) -> str:
    return f"# gw-commute {__version__} {cfg_hash}"


def write_atomic(path, text: str) -> None:
    """Write whole-file text via temp file + rename; no partial artifacts."""
    path = os.fspath(path)
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        # The original error is the one to report, not a failed cleanup.
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def render_csv(columns: list[str], rows: list[list[str]], cfg_hash: str) -> str:
    lines = [",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError("row width does not match header")
        lines.append(",".join(row))
    lines.append(footer_line(cfg_hash))
    return "\n".join(lines) + "\n"


IDENTITY_COLUMNS = ["alpha", "omega_re", "omega_im", "pair", "rel_l2_err", "pass"]
ESTIMATE_COLUMNS = [
    "n", "m", "p", "q", "r",
    "omega_re", "omega_im", "theta",
    "lhs", "rhs", "constant", "margin", "pass",
]
