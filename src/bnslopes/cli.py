"""Command-line surface: slope tables, single pushforward queries, and
the verification suites.

Output is byte-deterministic for a fixed invocation: rows are sorted
canonically, rationals always render as exact "p/q" strings, and the
JSON emitters sort their keys.  Exit codes: 0 success, 1 verification
failure, 2 usage, parameter or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .divisors import (
    FamilyParams,
    SlopeReport,
    SlopeUndefinedError,
    slope_report,
)
from .families import SUITES, suite_reports
from .schubert import BalanceError, CodimensionError, InvalidIndexError
from .tautpush import GrdParams, ParameterError, TautCombo, push, push_combo

USAGE_ERROR = 2
VERIFY_ERROR = 1

ROW_FIELDS = ["family", "r", "s", "extra", "g", "d", "N", "slope", "bound", "below_bound"]


def _span(text: str) -> Tuple[int, int]:
    """Parse "3" or "1:4" into an inclusive integer range."""
    lo, _, hi = text.partition(":")
    a = int(lo)
    b = int(hi) if hi else a
    if b < a:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return a, b


def _combo(text: str) -> TautCombo:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"combo needs four comma-separated rationals (p_a,p_b,p_c,p_lambda); got {text!r}"
        )
    try:
        return TautCombo(*(Fraction(p) for p in parts))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"combo entries must be exact rationals p/q with q != 0; got {text!r}"
        ) from None


def _triples(text: str) -> List[Tuple[int, int, int]]:
    out = []
    for chunk in text.split(";"):
        parts = [int(x) for x in chunk.split(",")]
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"triple needs g,r,d; got {chunk!r}")
        out.append(tuple(parts))
    return out


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="bnslopes",
        description="Exact divisor-class pushforwards and slopes on moduli of curves.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sl = sub.add_parser("slope", help="slope table for a divisor family over a parameter grid")
    sl.add_argument("--family", required=True, choices=["gp", "hypersurface", "syzygy"])
    sl.add_argument("--r", type=_span, help="r value or inclusive range lo:hi")
    sl.add_argument("--s", type=_span, help="s value or inclusive range lo:hi")
    sl.add_argument("--i", type=_span, help="syzygy index value or range")
    sl.add_argument("--k", type=_span, help="hypersurface degree value or range")
    sl.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty")
    sl.add_argument("--output", help="write to this path instead of stdout")

    pu = sub.add_parser("push", help="pushforward of a tautological class or combination")
    pu.add_argument("--g", type=int, required=True)
    pu.add_argument("--r", type=int, required=True)
    pu.add_argument("--d", type=int, required=True)
    which = pu.add_mutually_exclusive_group(required=True)
    which.add_argument("--class", dest="cls", choices=["a", "b", "c"])
    which.add_argument("--combo", type=_combo, help="p_a,p_b,p_c,p_lambda as exact rationals")
    pu.add_argument(
        "--normalize",
        choices=["N"],
        help="divide all coefficients by the covering degree N",
    )
    pu.add_argument("--output", help="write to this path instead of stdout")

    ve = sub.add_parser("verify", help="run verification suites")
    ve.add_argument("--suite", default="all", choices=list(SUITES) + ["all"])
    ve.add_argument("--max-g", type=int, default=12, help="genus cap for identity sweeps")
    ve.add_argument("--r-max", type=int, default=3, help="r cap for the Schubert oracle")
    ve.add_argument("--d-max", type=int, default=15, help="d cap for the Schubert oracle")
    ve.add_argument("--triples", type=_triples, help='reconstruction triples "g,r,d;g,r,d;..."')
    ve.add_argument("--format", choices=["pretty", "json"], default="pretty")
    ve.add_argument("--output", help="write to this path instead of stdout")

    return p


def _grid(args) -> List[FamilyParams]:
    def need(name, value):
        if value is None:
            raise ParameterError(f"--{name} is required for family {args.family}")
        return value

    points: List[FamilyParams] = []
    if args.family == "gp":
        r_lo, r_hi = need("r", args.r)
        s_lo, s_hi = need("s", args.s)
        for r in range(r_lo, r_hi + 1):
            for s in range(s_lo, s_hi + 1):
                points.append(FamilyParams.gp(r, s))
    elif args.family == "hypersurface":
        r_lo, r_hi = need("r", args.r)
        s_lo, s_hi = need("s", args.s)
        k_lo, k_hi = need("k", args.k)
        for r in range(r_lo, r_hi + 1):
            for s in range(s_lo, s_hi + 1):
                for k in range(k_lo, k_hi + 1):
                    points.append(FamilyParams.hypersurface(r, s, k))
    else:
        i_lo, i_hi = need("i", args.i)
        s_lo, s_hi = need("s", args.s)
        for i in range(i_lo, i_hi + 1):
            for s in range(s_lo, s_hi + 1):
                points.append(FamilyParams.syzygy(i, s))
    return points


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _slope_rows_text(reports: Sequence[SlopeReport], fmt: str) -> str:
    rows = [rep.row() for rep in reports]
    if fmt == "json":
        return json.dumps(rows, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for row in rows:
            writer.writerow([str(row[f]).lower() if f == "below_bound" else row[f] for f in ROW_FIELDS])
        return buf.getvalue()
    # pretty: exact slope plus a clearly approximate 6-digit decimal column
    lines = []
    header = f"{'family':<14}{'r':>4}{'s':>4}{'extra':>6}{'g':>5}{'d':>5}  {'slope':<16}{'~slope':<12}{'bound':<10}{'below'}"
    lines.append(header)
    lines.append("-" * len(header))
    for rep in reports:
        approx = f"{float(rep.slope):.6g}"
        lines.append(
            f"{rep.family:<14}{rep.r:>4}{rep.s:>4}"
            f"{'' if rep.extra is None else rep.extra:>6}{rep.g:>5}{rep.d:>5}  "
            f"{rep.slope!s:<16}≈{approx:<11}{rep.bound!s:<10}"
            f"{str(rep.below_bound).lower()}"
        )
    return "\n".join(lines) + "\n"


def cmd_slope(args) -> int:
    points = _grid(args)
    if not points:
        raise ParameterError("empty parameter grid")
    reports = [slope_report(p) for p in points]
    reports.sort(key=lambda rep: rep.sort_key())
    _emit(_slope_rows_text(reports, args.format), args.output)
    return 0


def cmd_push(args) -> int:
    params = GrdParams(args.g, args.r, args.d)
    if args.cls:
        dc = push(args.cls, params)
    else:
        dc = push_combo(args.combo, params)
    if args.normalize == "N":
        dc = dc * Fraction(1, params.N)
    _emit(json.dumps(dc.to_json_dict(), sort_keys=True, indent=2) + "\n", args.output)
    return 0


def cmd_verify(args) -> int:
    reports = suite_reports(
        args.suite,
        max_g=args.max_g,
        r_max=args.r_max,
        d_max=args.d_max,
        triples=args.triples,
    )
    if args.format == "json":
        text = json.dumps([r.as_json_dict() for r in reports], sort_keys=True, indent=2) + "\n"
    else:
        lines = [str(r) for r in reports]
        failures = sum(not r.passed for r in reports)
        lines.append(f"{len(reports)} checks, {failures} failures")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0 if all(r.passed for r in reports) else VERIFY_ERROR


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # N has about g digits, and CPython (3.10.7 on) refuses to print an
    # int of more than 4300 digits by default; lift that cap for this
    # call only.  0 means no cap, also where the interpreter has none.
    max_digits = getattr(sys, "get_int_max_str_digits", int)()
    if max_digits:
        sys.set_int_max_str_digits(0)
    try:
        if args.command == "slope":
            return cmd_slope(args)
        if args.command == "push":
            return cmd_push(args)
        return cmd_verify(args)
    except (
        ParameterError,
        SlopeUndefinedError,
        InvalidIndexError,
        CodimensionError,
        BalanceError,
        OSError,
    ) as exc:
        print(f"bnslopes: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        if max_digits:
            sys.set_int_max_str_digits(max_digits)


if __name__ == "__main__":
    sys.exit(main())
