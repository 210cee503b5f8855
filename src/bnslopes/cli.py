"""Command-line surface: slope tables, single pushforward queries, and
the verification suites.

Output is byte-deterministic for a fixed invocation: rows are sorted
canonically, rationals always render as exact "p/q" strings, the slope
and verify JSON emitters sort their keys, and ``push`` writes the bytes
of ``json.dumps(sort_keys=True, indent=2)`` directly.  Exit codes:
0 success, 1 verification failure, 2 usage, parameter or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import functools
import io
import itertools
import json
import math
import sys
from typing import Iterable, List, Optional, Sequence, Tuple

from .divisors import FAMILIES, FamilyParams, SlopeReport, SlopeUndefinedError, slope_report
from .families import DEFAULT_D_MAX, DEFAULT_MAX_G, DEFAULT_R_MAX, DEFAULT_RECONSTRUCT_TRIPLES, SUITES, suite_reports
from .schubert import BalanceError, CodimensionError, InvalidIndexError
from .tautpush import CLASSES, GrdParams, ParameterError, TautCombo, per_N_numerators

USAGE_ERROR = 2
VERIFY_ERROR = 1

# Every grid axis of some family, in table order: the slope parser's axis flags.
AXES = tuple(dict.fromkeys(axis for family in FAMILIES.values() for axis in family.axes))

# Slope grids are built in full before any slope is computed, so their size is capped.
MAX_GRID_POINTS = 10**6


def _span(text: str) -> Tuple[int, int]:
    """Parse "3" or "1:4" into an inclusive integer range."""
    lo, sep, hi = text.partition(":")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer or a range lo:hi; got {text!r}") from None
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
        return TautCombo.of(*parts)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"combo entries must be exact rationals p/q with q != 0; got {text!r}"
        ) from None


def _triples(text: str) -> List[Tuple[int, int, int]]:
    out = []
    for chunk in text.split(";"):
        try:
            g, r, d = map(int, chunk.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a triple of integers g,r,d; got {chunk!r}") from None
        out.append((g, r, d))
    return out


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and kept for the process; parsing leaves no state in it."""
    p = argparse.ArgumentParser(
        prog="bnslopes",
        description="Exact divisor-class pushforwards and slopes on moduli of curves.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sl = sub.add_parser("slope", help="slope table for a divisor family over a parameter grid")
    sl.add_argument("--family", required=True, choices=list(FAMILIES))
    for axis in AXES:
        takers = ", ".join(name for name, family in FAMILIES.items() if axis in family.axes)
        sl.add_argument(f"--{axis}", type=_span, help=f"{axis} value or inclusive range lo:hi; taken by {takers}")
    sl.add_argument("--format", choices=["pretty", "json", "csv"], default="pretty")
    sl.add_argument("--output", help="write to this path instead of stdout")
    sl.set_defaults(run=cmd_slope)

    pu = sub.add_parser("push", help="pushforward of a tautological class or combination")
    pu.add_argument("--g", type=int, required=True)
    pu.add_argument("--r", type=int, required=True)
    pu.add_argument("--d", type=int, required=True)
    which = pu.add_mutually_exclusive_group(required=True)
    which.add_argument("--class", dest="cls", choices=CLASSES)
    which.add_argument("--combo", type=_combo, help="p_a,p_b,p_c,p_lambda as exact rationals")
    pu.add_argument(
        "--normalize",
        choices=["N"],
        help="divide all coefficients by the covering degree N",
    )
    pu.add_argument("--output", help="write to this path instead of stdout")
    pu.set_defaults(run=cmd_push)

    ve = sub.add_parser("verify", help="run verification suites")
    ve.add_argument("--suite", default="all", choices=list(SUITES) + ["all"])
    ve.add_argument("--max-g", type=int, default=DEFAULT_MAX_G, help="genus cap for identity sweeps")
    ve.add_argument("--r-max", type=int, default=DEFAULT_R_MAX, help="r cap for the Schubert oracle (default %(default)s)")
    ve.add_argument("--d-max", type=int, default=DEFAULT_D_MAX, help="d cap for the Schubert oracle (default %(default)s)")
    ve.add_argument("--triples", type=_triples, default=DEFAULT_RECONSTRUCT_TRIPLES, help='reconstruction triples "g,r,d;g,r,d;..."')
    ve.add_argument("--format", choices=["pretty", "json"], default="pretty")
    ve.add_argument("--output", help="write to this path instead of stdout")
    ve.set_defaults(run=cmd_verify)

    return p


def _grid(args) -> List[FamilyParams]:
    family = FAMILIES[args.family]
    for name in AXES:
        given = getattr(args, name) is not None
        if given != (name in family.axes):
            need = "is not an axis of" if given else "is required for"
            raise ParameterError(f"--{name} {need} family {args.family}")
    spans = [getattr(args, name) for name in family.axes]
    size = math.prod(hi - lo + 1 for lo, hi in spans)
    if size > MAX_GRID_POINTS:
        raise ParameterError(f"parameter grid has {size} points, more than {MAX_GRID_POINTS}")
    ranges = [range(lo, hi + 1) for lo, hi in spans]
    return [family.make(*point) for point in itertools.product(*ranges)]


def _emit(output: Optional[str], *parts: str) -> None:
    """Write the concatenation of ``parts``, each as it is, with no joined copy."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(parts)
    else:
        sys.stdout.writelines(parts)


def _slope_rows_text(reports: Sequence[SlopeReport], fmt: str) -> str:
    if fmt == "pretty":
        # exact slope plus a clearly approximate 6-digit decimal column; no N
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
    rows = [rep.row() for rep in reports]
    if fmt == "json":
        return json.dumps(rows, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow([str(v).lower() if k == "below_bound" else v for k, v in row.items()])
    return buf.getvalue()


def cmd_slope(args) -> int:
    reports = [slope_report(p) for p in sorted(_grid(args))]
    _emit(args.output, _slope_rows_text(reports, args.format))
    return 0


def _times(N: int, L: int, ints: Iterable[int]) -> List[str]:
    """str(Fraction(N·x, L)) for each x, exactly, without building a Fraction.

    With b = gcd(x, L), x/L = (x/b)/(L/b) in lowest terms, and for
    a = gcd(N, L/b), N·x/L = (N/a)·(x/b) / (L/(a·b)) in lowest terms.
    N/a is converted to decimal once per distinct L/b and each numerator
    is one multiplication by x/b: int-to-str is quadratic in the number
    of digits on CPython 3.11, a decimal product and its str are not.
    The context cannot round: with Inexact and Rounded trapped, a step
    that is not exact raises instead of printing a wrong digit.

    The strings come back as one list because the caller needs all of
    them, split into lambda, psi and the delta rows it joins; a list
    filled in the loop costs no generator resume per coordinate.
    """
    ctx = decimal.Context(
        prec=decimal.MAX_PREC,
        Emax=decimal.MAX_EMAX,
        traps=[decimal.Inexact, decimal.Rounded],
    )
    quotients = {}
    out = []
    for x in ints:
        b = math.gcd(x, L)
        den = L // b
        if den not in quotients:
            a = math.gcd(N, den)
            quotients[den] = ctx.create_decimal(N // a), den // a
        big, rest = quotients[den]
        num = str(ctx.multiply(big, x // b))
        out.append(num if rest == 1 else f"{num}/{rest}")
    return out


def cmd_push(args) -> int:
    params = GrdParams(args.g, args.r, args.d)
    combo = args.combo or TautCombo.unit(args.cls)
    L, ints = per_N_numerators(combo, params)
    lam, psi, *delta = _times(1 if args.normalize == "N" else params.N, L, ints)
    # the bytes of json.dumps(sort_keys=True, indent=2): every value is a
    # digit string with an optional "-" and "/", so none needs escaping;
    # the joined rows, the bulk of the text, are written without a copy
    rows = '",\n    "'.join(delta)
    tail = f'"\n  ],\n  "lambda": "{lam}",\n  "psi": "{psi}"\n}}\n'
    _emit(args.output, '{\n  "delta": [\n    "', rows, tail)
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
    _emit(args.output, text)
    return 0 if all(r.passed for r in reports) else VERIFY_ERROR


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    # N has about g digits, and CPython (3.10.7 on) refuses to convert an
    # int of more than 4300 digits to or from a string by default; lift
    # that cap for this call only, parsing included, so a combo entry may
    # be that long too.  0 means no cap, also where the interpreter has none.
    max_digits = getattr(sys, "get_int_max_str_digits", int)()
    if max_digits:
        sys.set_int_max_str_digits(0)
    try:
        args = parser.parse_args(argv)
        return args.run(args)
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
