"""Command-line front end.

Subcommands: analyze | critical-rate | classify | sweep | verify | prototype.
All floats are printed with 17 significant digits so repeated runs are
byte-identical.  Exit codes: 0 success, 2 field-analysis fault, 3 infeasible
arclength budget, 4 verification failure, 1 anything else.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from functools import cache

from .classify import classify as classify_profile
from .control import InfeasibleBudgetError, critical_rate
from .field import FieldAnalysisError, ParseError
from .forcing import parse_forcing_spec
from .harness import (VerificationFailure, build_field, prototype_failures,
                      prototype_table, run_sweep, run_verification)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FIELD_FAULT = 2
EXIT_INFEASIBLE_BUDGET = 3
EXIT_VERIFICATION_FAILURE = 4


# --------------------------------------------------------------------------
# deterministic JSON rendering (17 significant digits, quoted infinities)
# --------------------------------------------------------------------------

def _json_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        if math.isnan(value):
            return '"nan"'
        return f"{value:.17g}"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if value is None:
        return "null"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in value) + "]"
    if isinstance(value, dict):
        parts = [f'{_json_value(str(k))}: {_json_value(v)}'
                 for k, v in value.items()]
        return "{" + ", ".join(parts) + "}"
    raise TypeError(f"cannot render {type(value).__name__} as JSON")


def render_json(obj: dict) -> str:
    return _json_value(obj) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return ";".join(_csv_cell(v) for v in value)
    return str(value)


def _emit_rows(rows: list[dict], args, table: bool = False) -> None:
    """Print the rows to ``--out`` or stdout.  A record is one row, printed
    as a JSON object, or as a header plus one CSV row on ``--csv``; a table
    prints as CSV, or as ``{"rows": [...]}`` on ``--json``.  The CSV header
    is the rows' keys."""
    as_json = args.json if table else not args.csv
    if as_json:
        text = render_json({"rows": rows} if table else rows[0])
    else:
        lines = [rows[0].keys()] + [row.values() for row in rows]
        text = "".join(",".join(map(_csv_cell, line)) + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_analyze(args) -> int:
    _, geometry = build_field(args.field, args.attractor, args.interval)
    payload = {
        "field": args.field,
        "a": geometry.attractor,
        "alpha": geometry.alpha,
        "beta": geometry.beta,
        "R": geometry.radius,
        "mu_minus": geometry.mu_minus,
        "mu_plus": geometry.mu_plus,
        "mu": geometry.mu,
    }
    _emit_rows([payload], args)
    return EXIT_OK


def cmd_critical_rate(args) -> int:
    field, geometry = build_field(args.field, args.attractor, args.interval)
    rate = critical_rate(geometry, field, args.arclength)
    payload = {
        "field": args.field,
        "arclength": rate.arclength,
        "m_c": rate.m_c,
        "side": rate.side,
        "bracket_lo": rate.bracket[0],
        "bracket_hi": rate.bracket[1],
    }
    _emit_rows([payload], args)
    return EXIT_OK


def cmd_classify(args) -> int:
    field, geometry = build_field(args.field, args.attractor, args.interval)
    profile = parse_forcing_spec(args.forcing)
    outcome = classify_profile(field, geometry, profile)
    _emit_rows([outcome.to_json_dict()], args)
    return EXIT_OK


def cmd_sweep(args) -> int:
    rows = run_sweep(args.field, args.attractor, args.l_min, args.l_max,
                     args.steps)
    _emit_rows([{"L": r.arclength, "m_c": r.m_c, "side": r.side,
                 "j_residual": r.j_residual} for r in rows], args, table=True)
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_verification(args.field, args.attractor, args.arclength,
                              n_samples=args.samples, seed=args.seed,
                              margin=args.margin)
    payload = {
        "field": report.field_text,
        "attractor": report.attractor,
        "arclength": report.arclength,
        "m_c": report.m_c,
        "side": report.side,
        "margin": report.margin,
        "speed_cap": report.speed_cap,
        "n_samples": report.n_samples,
        "n_tracks": report.n_tracks,
        "n_tips": report.n_tips,
        "violating_seeds": report.violating_seeds,
        "tightness_upper_tips": report.tightness_upper_tips,
        "tightness_lower_tracks": report.tightness_lower_tracks,
        "threshold_estimate": report.threshold_estimate,
        "wall_time_s": report.wall_time,
        "passed": report.passed,
    }
    _emit_rows([payload], args)
    if not report.passed:
        problems = []
        if report.n_tips or report.violating_seeds:
            n_off = len(report.violating_seeds)
            problems.append(
                f"{n_off} of {report.n_samples} samples under the speed cap "
                f"did not track ({report.n_tips} tipping, "
                f"{n_off - report.n_tips} critical; violating seeds: "
                f"{report.violating_seeds})")
        if not report.tightness_upper_tips:
            problems.append("the ramp at 1.001 m_c did not tip")
        if not report.tightness_lower_tracks:
            problems.append("the ramp at 0.999 m_c did not track")
        raise VerificationFailure(
            "; ".join(problems) + "; this indicates an implementation bug, "
            "not a counterexample")
    return EXIT_OK


def cmd_prototype(args) -> int:
    rows = prototype_table()
    _emit_rows([asdict(r) for r in rows], args, table=True)
    problems = prototype_failures(rows)
    if problems:
        raise VerificationFailure("; ".join(problems))
    return EXIT_OK


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

class _FloatTokens:
    """Matches the tokens ``float`` reads, such as ``-4.2e-05``, ``-1e2``
    or ``-inf``."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a token starting with ``-`` as a value
    whenever ``float`` reads it; argparse's own pattern for negative
    numbers takes ``-4.2e-05`` for an option.  Subparsers are built from
    the parent's class, so every subcommand reads numbers alike."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _FloatTokens


def _add_field_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--field", required=True,
                        help="field expression in x, e.g. 'x^2-1'")
    parser.add_argument("--attractor", type=float, required=True,
                        help="designated attracting equilibrium")
    parser.add_argument("--interval", type=float, nargs=2, metavar=("LO", "HI"),
                        help="equilibrium search interval "
                             "(default attractor +/- 100)")


def _add_format_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--json", action="store_true",
                       help="force JSON output")
    group.add_argument("--csv", action="store_true",
                       help="force CSV output")
    parser.add_argument("--out",
                        help="write output to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="tipcrit",
        description="Critical forcing speeds and tipping classification "
                    "for scalar systems x' = f(x + forcing(t)).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="basin geometry report (JSON)")
    _add_field_options(p)
    _add_format_options(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("critical-rate",
                       help="critical speed for an arclength budget (JSON)")
    _add_field_options(p)
    _add_format_options(p)
    p.add_argument("--arclength", type=float, required=True)
    p.set_defaults(func=cmd_critical_rate)

    p = sub.add_parser("classify",
                       help="classify a forcing as tracks/critical/tips (JSON)")
    _add_field_options(p)
    _add_format_options(p)
    p.add_argument("--forcing", required=True,
                   help="forcing spec: pl:LAM:SLOPE | tanh:LAM:R | "
                        "knots:t0,v0;t1,v1;... | random:L:CAP:N:SEED")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep",
                       help="critical rate over an arclength grid (CSV)")
    _add_field_options(p)
    _add_format_options(p)
    p.add_argument("--l-min", type=float, required=True)
    p.add_argument("--l-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify",
                       help="Monte-Carlo necessity and tightness check (JSON)")
    _add_field_options(p)
    _add_format_options(p)
    p.add_argument("--arclength", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--margin", type=float, default=0.95,
                   help="speed cap as a fraction of m_c (default 0.95)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("prototype",
                       help="prototype critical-value comparison table (CSV)")
    _add_format_options(p)
    p.set_defaults(func=cmd_prototype)

    return parser


# parse_args returns a fresh namespace, so one parser serves every call
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, FieldAnalysisError) as exc:
        print(f"tipcrit: field analysis fault: {exc}", file=sys.stderr)
        return EXIT_FIELD_FAULT
    except InfeasibleBudgetError as exc:
        print(f"tipcrit: infeasible arclength budget: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE_BUDGET
    except VerificationFailure as exc:
        print(f"tipcrit: verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE
    except Exception as exc:  # noqa: BLE001 - uniform CLI error reporting
        print(f"tipcrit: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
