"""Command-line entry point.

Subcommands: hermite, verify-identity, verify-estimate, constants,
kernel-norms, cgl, suite.  Exit codes: 0 all checks passed, 1 at least one
check failed (failing rows are still written, flagged pass=false), 2 an
input error (ConfigError or OSError).  Any other exception is a bug and ends
in a traceback.
"""
from __future__ import annotations

import argparse
import os
import sys
from importlib import resources
from itertools import product

from . import __version__, catalog, config
from .cgl import (
    BlowupError,
    CGLConfig,
    check_weight_range,
    decay_bounded,
    decay_records,
    fit_loglog_slope,
    ratio_bounded,
    simulate,
    weighted_records,
)
from .commutator import identity_reports, lemma_B2_identity
from .estimates import (
    ExponentTriple,
    constant_A,
    constant_A_tilde,
    kernel_moment_bound_report,
    verify_lipschitz_commutator,
    verify_radial_remark,
    verify_theorem_1_2,
)
from .hermite import format_hermite, hermite_closed_form
from .parallel import ordered_map
from .reporting import (
    ESTIMATE_COLUMNS,
    IDENTITY_COLUMNS,
    config_hash,
    footer_line,
    format_exponent,
    format_value,
    render_csv,
    write_atomic,
)

_EXIT_PASS = 0
_EXIT_FAIL = 1
_EXIT_CONFIG = 2


def _finish(columns, rows, ok: bool, tag: str, out_path) -> int:
    """Write the CSV to out_path, or to stdout without one; map ok to the exit code."""
    text = render_csv(columns, rows, tag)
    if out_path:
        write_atomic(out_path, text)
    else:
        sys.stdout.write(text)
    return _EXIT_PASS if ok else _EXIT_FAIL


def _report_table(columns, reports):
    return columns, [r.row(columns) for r in reports], all(r.passed for r in reports)


def _realize_all(sec, seed: int):
    # too much boundary mass depends on the test function, not on the section
    with config.as_config_error():
        return [
            (name, catalog.realize_checked(name, sec.dim, sec.points, sec.half_width,
                                           seed_offset=seed))
            for name in sec.testfns
        ]


def _fan_out(fn, cases) -> list:
    """fn over independent cases, concatenated in case order (GW_THREADS workers)."""
    return [report for reports in ordered_map(fn, cases) for report in reports]


# Harness runners: (section, suite seed) -> (columns, rows, all passed).  The
# suite and the single-harness subcommands both build their rows here; the
# library functions run sequentially, and the identity and estimate runners
# fan out over their independent cases.

def run_identity(sec: config.IdentitySection, seed: int = 0):
    def one_case(case):
        (name, phi), alpha, omega = case
        return identity_reports(alpha, omega, phi, testfn=name, tol=sec.tolerance)

    cases = product(_realize_all(sec, seed), sec.alphas, sec.omegas)
    return _report_table(IDENTITY_COLUMNS, _fan_out(one_case, cases))


def run_estimate(sec: config.EstimateSection, seed: int = 0):
    triples = [ExponentTriple(p, q) for p, q in sec.pq_pairs]
    phis = _realize_all(sec, seed)

    verifiers = [verify_theorem_1_2] + ([verify_radial_remark] if sec.radial else [])

    def one_case(case):
        # each verifier builds its fields once per omega and reports every
        # triple; rows go out per triple, then per omega, then per verifier
        (name, phi), m = case
        by_omega = [[verify(m, triples, omega, phi, testfn=name) for verify in verifiers]
                    for omega in sec.omegas]
        return [reports[k] for k in range(len(triples))
                for per_verifier in by_omega for reports in per_verifier]

    reports = _fan_out(one_case, product(phis, sec.m_values))
    if sec.lipschitz:
        phi = phis[0][1]
        for label, eta, bound in catalog.lipschitz_entries(sec.dim, sec.points,
                                                           sec.half_width):
            for omega in sec.omegas:
                reports.append(
                    verify_lipschitz_commutator(eta, bound, triples[0], omega, phi,
                                                testfn=label)
                )
    return _report_table(ESTIMATE_COLUMNS, reports)


def run_constants(sec: config.ConstantsSection, seed: int = 0):
    # an m too large for the constants to fit in float64
    with config.as_config_error():
        rows = [
            [
                str(sec.dim), str(m), format_exponent(r), format_value(theta),
                format_value(constant_A(sec.dim, m, r, theta)),
                format_value(constant_A_tilde(sec.dim, m, r, theta)),
            ]
            for m in sec.m_values for r in sec.r_values for theta in sec.thetas
        ]
    return ["n", "m", "r", "theta", "A", "A_tilde"], rows, True


def run_kernel_norms(sec: config.KernelNormsSection, seed: int = 0):
    reports = [kernel_moment_bound_report(beta, theta, r, sec.points, sec.half_width)
               for beta in sec.betas for r in sec.r_values for theta in sec.thetas]
    return _report_table(["beta", "r", "theta", "norm", "bound", "pass"], reports)


def cmd_hermite(args) -> int:
    alpha = config.parse_multiindex(args.alpha)
    print(format_hermite(hermite_closed_form(alpha, args.flavor)))
    return _EXIT_PASS


def _read(args, **given):
    """The subcommand's section, read by config.read_section from its flags and given."""
    flags = {key: getattr(args, key) for key in args.labels}
    return config.read_section(args.section, {**flags, **given}, args.labels)


def _single(sec, **flags) -> None:
    """Each named section list holds the one value its flag takes."""
    for key, flag in flags.items():
        count = len(getattr(sec, key))
        if count != 1:
            raise config.ConfigError(f"{flag} takes one value, got {count}")


def cmd_verify_identity(args) -> int:
    sec = _read(args)
    _single(sec, alphas="--alpha", omegas="--omega", testfns="--testfn")
    columns, rows, ok = run_identity(sec)
    if args.with_shift:
        (alpha,), (omega,), (name,) = sec.alphas, sec.omegas, sec.testfns
        phi = dict(_realize_all(sec, 0))[name]
        shifts = [
            lemma_B2_identity(alpha, j, omega, phi, testfn=name, tol=sec.tolerance)
            for j in range(1, alpha.dim + 1)
        ]
        rows += [r.row(columns) for r in shifts]
        ok = ok and all(r.passed for r in shifts)
    tag = config_hash(f"verify-identity {args.alphas} {args.omegas} "
                      f"{args.testfns} {args.grid} {sec.tolerance}")
    return _finish(columns, rows, ok, tag, args.out)


def cmd_verify_estimate(args) -> int:
    sec = _read(args, pq_pairs=f"{args.p}:{args.q}")
    _single(sec, m_values="--m", pq_pairs="--p/--q", omegas="--omega", testfns="--testfn")
    tag = config_hash(f"verify-estimate {sec.dim} {sec.m_values[0]} {args.p} {args.q} "
                      f"{args.omegas} {args.testfns} {args.grid}")
    return _finish(*run_estimate(sec), tag, args.out)


def cmd_constants(args) -> int:
    sec = _read(args)
    columns, rows, _ = run_constants(sec)
    tag = config_hash(f"constants {sec.dim} {args.m_values} {args.r_values} {args.thetas}")
    if args.out:
        write_atomic(args.out, render_csv(columns, rows, tag))
    else:
        widths = [max(len(r[i]) for r in rows + [columns]) for i in range(len(columns))]
        print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
        for row in rows:
            print("  ".join(v.ljust(w) for v, w in zip(row, widths)))
    return _EXIT_PASS


def cmd_kernel_norms(args) -> int:
    sec = _read(args)
    tag = config_hash(f"kernel-norms {args.betas} {args.r_values} {args.thetas} {args.grid}")
    return _finish(*run_kernel_norms(sec), tag, args.out)


def _build_cgl_config(section: config.CGLSection) -> CGLConfig:
    comp = catalog.GaussianComponent(sigma=section.sigma, amplitude=section.eps)
    spec = catalog.TestFunctionSpec(id="cgl-u0", kind="gaussian", components=(comp,))
    u0 = spec.realize(1, section.points, section.half_width)
    return CGLConfig(
        nu=section.nu,
        lam=section.lam,
        p_exponent=section.p_exponent,
        u0=u0,
        dt=section.dt,
        horizon=section.horizon,
    )


def _write_all(artifacts: dict[str, str]) -> None:
    for path, text in artifacts.items():
        write_atomic(path, text)


def _run_cgl(section: config.CGLSection, prefix: str, tag: str):
    """({path: text} of the three artifacts under prefix, all passed)."""
    # the smallness of u0 and the snapshots in the slope-fit window depend on
    # the data; the weight's range is checked before the run, not after it
    with config.as_config_error():
        cfg = _build_cgl_config(section)
        check_weight_range(cfg.u0, section.m)
    try:
        run = simulate(cfg)
    except BlowupError as exc:  # the data was not small enough for this lambda
        raise config.ConfigError(str(exc)) from exc
    decay = decay_records(run)
    weighted = weighted_records(run, section.m, section.q)
    with config.as_config_error():
        slope = fit_loglog_slope(weighted, cfg.horizon / 4.0, cfg.horizon)
    decay_rows = [
        [format_value(rec.t), format_exponent(rec.r), format_value(rec.value)]
        for rec in decay
    ]
    weighted_rows = [
        [format_value(rec.t), format_value(rec.w), format_value(rec.ratio)]
        for rec in weighted
    ]
    artifacts = {
        f"{prefix}_decay.csv": render_csv(["t", "r", "record"], decay_rows, tag),
        f"{prefix}_weighted.csv": render_csv(["t", "W", "ratio"], weighted_rows, tag),
        f"{prefix}.plt": _gnuplot_script(os.path.basename(prefix), section.m, tag),
    }
    ok = (
        decay_bounded(decay)
        and ratio_bounded(weighted)
        and slope <= section.m / 2.0 + 0.1
    )
    print(f"cgl: slope={slope:.4f} (target <= {section.m / 2 + 0.1:.2f}), "
          f"boundary_max={run.boundary_max:.3e}, pass={str(ok).lower()}")
    return artifacts, ok


def _gnuplot_script(prefix: str, m: int, tag: str) -> str:
    return "\n".join([
        footer_line(tag),
        'set datafile separator ","',
        "set key left bottom",
        "set logscale xy",
        'set xlabel "1+t"',
        f'set ylabel "weighted norms (m={m})"',
        f'plot "{prefix}_weighted.csv" skip 1 using (1+$1):2 with lines title "W(t)", \\',
        f'     "{prefix}_weighted.csv" skip 1 using (1+$1):3 with lines title "W/(1+t^{{m/2}})"',
        "",
    ])


def cmd_cgl(args) -> int:
    section = _read(args)
    tag = config_hash(
        f"cgl {args.nu} {getattr(args, 'lambda')} {section.p_exponent} {section.eps} "
        f"{section.sigma} {section.horizon} {section.dt} {section.m} {args.q} {args.grid}"
    )
    artifacts, ok = _run_cgl(section, args.out, tag)
    _write_all(artifacts)
    return _EXIT_PASS if ok else _EXIT_FAIL


HARNESSES = {
    "identity": (run_identity, "identity.csv"),
    "estimate": (run_estimate, "estimate.csv"),
    "constants": (run_constants, "constants.csv"),
    "kernel-norms": (run_kernel_norms, "kernel_norms.csv"),
}


def cmd_suite(args) -> int:
    if args.config:
        with open(args.config) as fh, config.as_config_error():  # a file that is not text
            text = fh.read()
    else:
        text = resources.files("gwcommute").joinpath("data/default_suite.cfg").read_text()
    cfg = config.parse_suite_config(text)
    tag = config_hash(cfg.raw_text)
    if not cfg.sections:
        return _EXIT_PASS
    os.makedirs(args.out_dir, exist_ok=True)
    # written only once every harness has run: an input error in a later
    # harness leaves no artifact of an earlier one
    artifacts, ok = {}, True
    for name, section in cfg.sections.items():
        if name == "cgl":
            files, good = _run_cgl(section, f"{args.out_dir}/cgl", tag)
        else:
            runner, artifact = HARNESSES[name]
            columns, rows, good = runner(section, cfg.seed)
            files = {f"{args.out_dir}/{artifact}": render_csv(columns, rows, tag)}
        artifacts.update(files)
        print(f"suite harness {name}: {'pass' if good else 'FAIL'}")
        ok = ok and good
    _write_all(artifacts)
    return _EXIT_PASS if ok else _EXIT_FAIL


def _keyed(parser, section: str, func):
    """add(flag, key, **kwargs): a flag of parser that sets a [section] key.

    The flag's dest is the key and its default the one in config.DEFAULTS; a
    bad value's error names the flag.
    """
    labels = {}
    parser.set_defaults(func=func, section=section, labels=labels)

    def add(flag: str, key: str, **kwargs) -> None:
        labels[key] = flag
        kwargs.setdefault("metavar", flag.lstrip("-").replace("-", "_").upper())
        parser.add_argument(flag, dest=key, default=config.DEFAULTS[section][key], **kwargs)

    return add


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gw-commute",
        description="Verification harnesses for monomial-weight commutators "
        "with the Gauss-Weierstrass semigroup.",
    )
    parser.add_argument("--version", action="version", version=f"gw-commute {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_her = sub.add_parser("hermite", help="print a Hermite polynomial exactly")
    p_her.add_argument("--alpha", required=True, help="multi-index, dot-separated")
    p_her.add_argument("--flavor", choices=("h", "H"), default="h")
    p_her.set_defaults(func=cmd_hermite)

    p_id = sub.add_parser("verify-identity",
                          help="cross-check the three commutator evaluators")
    key = _keyed(p_id, "identity", cmd_verify_identity)
    key("--alpha", "alphas", required=True)
    key("--omega", "omegas", required=True, metavar="RE,IM")
    key("--testfn", "testfns", required=True)
    key("--grid", "grid", metavar="N,L")
    key("--tolerance", "tolerance")
    p_id.add_argument("--with-shift", action="store_true",
                      help="also check the index-shift identity per axis")
    p_id.add_argument("--out", default=None)

    p_est = sub.add_parser("verify-estimate",
                           help="check the weighted commutator estimate")
    key = _keyed(p_est, "estimate", cmd_verify_estimate)
    key("--dim", "dim")
    key("--m", "m_values", required=True)
    p_est.add_argument("--p", required=True)
    p_est.add_argument("--q", required=True)
    key("--omega", "omegas", required=True, metavar="RE,IM")
    key("--testfn", "testfns", required=True)
    key("--grid", "grid", metavar="N,L")
    key("--radial", "radial", action="store_const", const="true",
        help="also check the radial-weight variant")
    p_est.add_argument("--out", default=None)

    p_con = sub.add_parser("constants", help="tabulate A and A~")
    key = _keyed(p_con, "constants", cmd_constants)
    key("--n", "dim")
    key("--m-list", "m_values")
    key("--r-list", "r_values")
    key("--theta-list", "thetas")
    p_con.add_argument("--out", default=None)

    p_ker = sub.add_parser("kernel-norms",
                           help="weighted kernel norms against the moment bound")
    key = _keyed(p_ker, "kernel-norms", cmd_kernel_norms)
    key("--beta-list", "betas")
    key("--r-list", "r_values")
    key("--theta-list", "thetas")
    key("--grid", "grid", metavar="N,L")
    p_ker.add_argument("--out", default=None)

    p_cgl = sub.add_parser("cgl", help="Ginzburg-Landau decay/growth experiment")
    key = _keyed(p_cgl, "cgl", cmd_cgl)
    key("--nu", "nu", metavar="RE,IM")
    key("--lambda", "lambda", metavar="RE,IM")
    for name in ("p", "eps", "sigma", "T", "dt", "m", "q"):
        key(f"--{name}", name)
    key("--grid", "grid", metavar="N,L")
    p_cgl.add_argument("--out", required=True, metavar="PREFIX")

    p_suite = sub.add_parser("suite", help="run the harnesses from a config file")
    p_suite.add_argument("--config", default=None,
                         help="INI config; bundled default when omitted")
    p_suite.add_argument("--out-dir", default=".")
    p_suite.set_defaults(func=cmd_suite)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (config.ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
