"""Benchmark workloads: the items one pass runs, and the oracle for each.

An item is one argv for ``bnslopes.cli.main``.  A pass has a fixed size
mix: each workload's range is sorted by size and cut into consecutive
slots (or, for the Schubert oracle, into listed cost bands), and the
seed picks one candidate per slot and the order of the pass.  So two
seeds, and the pass variants of one seed, run different items of the
same sizes.

Every check returns ``None`` when the output is right and a one-line
reason otherwise.  The oracles never call the code path they check:
slopes are compared with the closed forms, or, where the paper has none
(hypersurface rows and syzygy rows at the i = 2 pole), with an N-free
evaluation of only the lambda and delta_0 coefficients; N is recounted
by the hook-length formula; push classes are checked by linearity and by
normalization; verify output by its pass flags and check counts.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

WORKLOADS = ("slope-table", "push-classes", "schubert-oracle", "reconstruct-sweep")

Check = Callable[[int, str, Dict[str, str]], Optional[str]]


@dataclass(frozen=True)
class Item:
    key: str
    argv: Tuple[str, ...]
    check: Check


# Passes cycle through this many independent draws, so the latency
# percentiles and the pass-time median of a run average over several
# draws per slot instead of hanging on one.
PASS_VARIANTS = 8


def generate(workload: str, seed: int) -> List[List[Item]]:
    """The passes of a run, each a list of items in the order it runs them."""
    rng = random.Random(f"{workload}:{seed}")
    passes = []
    for _ in range(PASS_VARIANTS):
        items = _GENERATORS[workload](rng)
        rng.shuffle(items)
        passes.append(items)
    return passes


def _stratified(rng: random.Random, candidates: Sequence, slots: int) -> List:
    """One draw from each of ``slots`` consecutive near-equal groups of
    ``candidates``, which are sorted by size."""
    n = len(candidates)
    return [rng.choice(candidates[i * n // slots : (i + 1) * n // slots]) for i in range(slots)]


def rho_zero_triples(min_g: int, max_g: int) -> List[Tuple[int, int, int]]:
    """(g, r, d) with r >= 1 and rho = 0: g = (r+1)m, d = g + r - m."""
    out = []
    for r in range(1, max_g):
        for m in range(1, max_g // (r + 1) + 1):
            g = (r + 1) * m
            if g >= min_g:
                out.append((g, r, g + r - m))
    return sorted(out)


def castelnuovo_count(g: int, r: int, d: int) -> int:
    """N as the number of standard tableaux on the (r+1) x (g-d+r)
    rectangle, by the hook-length formula."""
    m = g - d + r
    hooks = 1
    for i in range(r + 1):
        for j in range(m):
            hooks *= (r - i) + (m - j)
    return factorial(g) // hooks


def nfree_slope(combo, g: int, r: int, d: int) -> Fraction:
    """Slope -lambda/delta_0 of the pushforward of a tautological combo,
    from the lambda and delta_0 coefficients of a, b, c divided by N."""
    xi = 3 * (g - 1) + Fraction((r - 1) * (g + r + 1) * (3 * g - 2 * d + r - 3), g - d + 2 * r + 1)
    pre_a = Fraction(d, 6 * (g - 1) * (g - 2))
    pre_b = Fraction(d, 2 * (g - 1))
    pre_c = Fraction(1, 2 * (g - 1) * (g - 2))
    rr = r * (r + 2)
    lam = (
        combo.p_a * pre_a * 6 * (g * d - 2 * g * g + 8 * d - 8 * g + 4)
        + combo.p_b * pre_b * 12
        + combo.p_c * pre_c * (-(g + 3) * xi + 5 * rr)
        + combo.p_lam
    )
    delta0 = (
        combo.p_a * pre_a * (2 * g * g - g * d + 3 * g - 4 * d - 2)
        - combo.p_b * pre_b
        + combo.p_c * pre_c * ((g + 1) * xi - 3 * rr) / 6
    )
    return -lam / delta0


# ---------------------------------------------------------------------------
# slope-table


def _slope_rows(out: str, fmt: str) -> List[Dict[str, str]]:
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    return [
        {k: str(v).lower() if isinstance(v, bool) else str(v) for k, v in row.items()}
        for row in json.loads(out)
    ]


def _slope_item(family: str, r: int, s: int, extra: Optional[int], fmt: str) -> Item:
    if family == "gp":
        params = ["--r", str(r), "--s", str(s)]
    elif family == "syzygy":
        params = ["--i", str(extra), "--s", str(s)]
    else:
        params = ["--r", str(r), "--s", str(s), "--k", str(extra)]
    argv = ("slope", "--family", family, *params, "--format", fmt)

    def check(rc: int, out: str, outputs: Dict[str, str]) -> Optional[str]:
        from bnslopes import divisors

        if rc != 0:
            return f"exit code {rc}"
        rows = _slope_rows(out, fmt)
        if len(rows) != 1:
            return f"{len(rows)} rows, expected 1"
        row = rows[0]
        g, d = (r + 1) * (s + 1), r * (s + 2)
        want = {
            "family": family,
            "r": str(r),
            "s": str(s),
            "extra": "" if extra is None else str(extra),
            "g": str(g),
            "d": str(d),
            "N": str(castelnuovo_count(g, r, d)),
            "bound": str(6 + Fraction(12, g + 1)),
        }
        for field, value in want.items():
            if row.get(field) != value:
                return f"{field} = {row.get(field)!r}, expected {value!r}"
        got = Fraction(row["slope"])
        if family == "gp":
            ok = got == divisors.gp_slope_closed(r, s)
        elif family == "syzygy" and extra != 2:
            ok = abs(got) == abs(divisors.syzygy_slope_closed(extra, s))
        else:
            fp = divisors.FamilyParams(family, r, s, extra)
            ok = got == nfree_slope(divisors.family_combo(fp), g, r, d)
        if not ok:
            return f"slope {got} disagrees with the oracle"
        if row["below_bound"] != str(got < Fraction(row["bound"])).lower():
            return "below_bound disagrees with slope < bound"
        return None

    return Item(" ".join(argv), argv, check)


def hypersurface_instances(max_g: int) -> List[Tuple[int, int, int]]:
    """(r, s, k), k >= 2, with the rank balance C(r+k, k) = kd - g + 1 and
    g <= max_g.  The balance is linear in s:
    s((k-1)r - 1) = C(r+k, k) - 2kr + r, degenerate only at r = 1, k = 2,
    where every s balances."""
    out = [(1, s, 2) for s in range(1, max_g // 2)]
    for r in range(2, max_g):
        for k in range(2, max_g):
            num, den = comb(r + k, k) - 2 * k * r + r, (k - 1) * r - 1
            if (r + 1) * (num // den + 1) > max_g:
                break
            if num > 0 and num % den == 0:
                out.append((r, num // den, k))
    return out


def _slope_table(rng: random.Random) -> List[Item]:
    fmt = lambda: rng.choice(("csv", "json"))
    gp = sorted(((r + 1) * (s + 1), r, s) for r in range(1, 31) for s in range(1, 31))
    syz = sorted(
        (((i + 2) * s + 2 * i + 3) * (s + 1), i, s) for i in range(0, 5) for s in range(0, 21)
    )
    items = [_slope_item("gp", r, s, None, fmt()) for _, r, s in _stratified(rng, gp, 60)]
    for _, i, s in _stratified(rng, syz, 35):
        items.append(_slope_item("syzygy", (i + 2) * s + 2 * (i + 1), s, i, fmt()))
    # The r = 1 line has hundreds of cheap instances; draw the quadric
    # line r = 2s+2 and the few k >= 3 instances apart so each shows up.
    hyp = sorted(hypersurface_instances(961), key=lambda t: ((t[0] + 1) * (t[1] + 1), t))
    for group, slots in (
        ([t for t in hyp if t[0] == 1], 3),
        ([t for t in hyp if t[0] > 1 and t[2] == 2], 3),
        ([t for t in hyp if t[2] > 2], 2),
    ):
        items += [_slope_item("hypersurface", r, s, k, fmt()) for r, s, k in _stratified(rng, group, slots)]
    return items


# ---------------------------------------------------------------------------
# push-classes


def _push_json(out: str) -> List[Fraction]:
    obj = json.loads(out)
    return [Fraction(obj["lambda"]), Fraction(obj["psi"])] + [Fraction(x) for x in obj["delta"]]


def _push_group(g: int, r: int, d: int) -> List[Item]:
    """The classes a, b, c and the Gieseker-Petri combo at one triple,
    the combo once more normalized by N."""
    half = Fraction(r + 1, 2)
    coeffs = (-half, half, Fraction(d + 1 - g), Fraction(-r))
    base = ("push", "--g", str(g), "--r", str(r), "--d", str(d))
    combo = "--combo=" + ",".join(str(x) for x in coeffs)
    keys = {name: f"push {g},{r},{d} {name}" for name in ("a", "b", "c", "combo", "combo/N")}

    def check_class(rc, out, outputs):
        if rc != 0:
            return f"exit code {rc}"
        if len(_push_json(out)) != g + 2:
            return f"expected {g} delta coefficients"
        return None

    def check_combo(rc, out, outputs):
        if rc != 0:
            return f"exit code {rc}"
        got = _push_json(out)
        parts = [_push_json(outputs[keys[c]]) for c in "abc"]
        lam = coeffs[3] * castelnuovo_count(g, r, d)  # p_lambda pushes to N·p_lambda·lambda
        for i, x in enumerate(got):
            want = sum(p * v[i] for p, v in zip(coeffs, parts)) + (lam if i == 0 else 0)
            if x != want:
                return f"coordinate {i} is not the combination of the a, b, c outputs"
        if got[1] != 0:
            return f"psi = {got[1]} on a family combo"
        return None

    def check_normalized(rc, out, outputs):
        if rc != 0:
            return f"exit code {rc}"
        N = castelnuovo_count(g, r, d)
        full = _push_json(outputs[keys["combo"]])
        for i, (x, y) in enumerate(zip(_push_json(out), full)):
            if x * N != y:
                return f"coordinate {i} times N differs from the unnormalized class"
        return None

    return [
        Item(keys["a"], base + ("--class", "a"), check_class),
        Item(keys["b"], base + ("--class", "b"), check_class),
        Item(keys["c"], base + ("--class", "c"), check_class),
        Item(keys["combo"], base + (combo,), check_combo),
        Item(keys["combo/N"], base + (combo, "--normalize", "N"), check_normalized),
    ]


def _push_classes(rng: random.Random) -> List[Item]:
    # rho = 0 triples with m = g-d+r >= 2 are exactly the Gieseker-Petri
    # instances (r, s = m-1); r, s <= 30 keeps g <= 961.
    triples = sorted(
        ((r + 1) * (s + 1), r, r * (s + 2)) for r in range(1, 31) for s in range(1, 31)
        if (r + 1) * (s + 1) >= 21
    )
    items: List[Item] = []
    for g, r, d in _stratified(rng, triples, 32):
        items += _push_group(g, r, d)
    return items


# ---------------------------------------------------------------------------
# verify suites


def _verify_item(argv: Tuple[str, ...], expected: int, fmt: str) -> Item:
    argv = argv + ("--format", fmt)

    def check(rc: int, out: str, outputs: Dict[str, str]) -> Optional[str]:
        if rc != 0:
            return f"exit code {rc}"
        if fmt == "json":
            flags = [rep["pass"] for rep in json.loads(out)]
        else:
            lines = out.splitlines()
            if lines[-1] != f"{len(lines) - 1} checks, 0 failures":
                return f"summary line {lines[-1]!r}"
            flags = [line.startswith("[pass]") for line in lines[:-1]]
        if len(flags) != expected:
            return f"{len(flags)} checks, expected {expected}"
        if not all(flags):
            return f"{flags.count(False)} checks failed"
        return None

    return Item(" ".join(argv), argv, check)


# (count drawn, candidate (r_max, d_max) caps).  Each band holds caps
# whose suite takes a similar time, within about 1.3x of each other in
# reference-speed seconds (0.49-0.58 s for the last band); caps above
# that (r_max = 4 with d_max >= 14, r_max = 3 with d_max >= 15) are left
# out so a pass still has enough items.  The upper bands are narrow
# because the draws there set item_p90_ms.
_ORACLE_BANDS = [
    (3, [(1, d) for d in range(1, 8)] + [(2, d) for d in range(2, 7)] + [(3, 3), (3, 4), (3, 5), (4, 4), (4, 5)]),
    (2, [(1, 8), (1, 9), (2, 7), (2, 8), (3, 6), (3, 7), (4, 6), (4, 7)]),
    (2, [(1, 10), (1, 11), (2, 9), (3, 8), (4, 8)]),
    (2, [(1, 12), (2, 10), (3, 9), (4, 9)]),
    (1, [(1, 13), (2, 11), (3, 10)]),
    (1, [(1, 14), (4, 10)]),
    (1, [(1, 15), (2, 12), (3, 11)]),
    (2, [(2, 13), (3, 12), (4, 11)]),
    (1, [(2, 14), (4, 12)]),
    (1, [(2, 15), (3, 13)]),
    (1, [(2, 16), (3, 14), (4, 13)]),
]

# (suite, count drawn, candidate --max-g caps).
_IDENTITY_BANDS = [
    ("castelnuovo", 1, range(4, 9)),
    ("castelnuovo", 1, range(14, 19)),
    ("weierstrass", 1, range(6, 10)),
    ("weierstrass", 1, range(12, 17)),
    ("pieri", 2, range(2, 25)),
]


def _identity_checks(suite: str, max_g: int) -> int:
    triples = rho_zero_triples(2, max_g)
    if suite == "castelnuovo":
        return len(triples)
    if suite == "pieri":
        return sum(r >= 2 for _, r, _ in triples)
    return sum((g >= 3) + (g >= 3 and r >= 2) + 1 for g, r, _ in triples)


def _schubert_oracle(rng: random.Random) -> List[Item]:
    fmt = lambda: rng.choice(("json", "pretty"))
    items = []
    for count, caps in _ORACLE_BANDS:
        for r_max, d_max in rng.sample(caps, count):
            argv = ("verify", "--suite", "schubert-oracle", "--r-max", str(r_max), "--d-max", str(d_max))
            specs = sum(d_max - r + 1 for r in range(1, r_max + 1) if d_max >= r)
            items.append(_verify_item(argv, specs, fmt()))
    for suite, count, caps in _IDENTITY_BANDS:
        for max_g in rng.sample(list(caps), count):
            argv = ("verify", "--suite", suite, "--max-g", str(max_g))
            items.append(_verify_item(argv, _identity_checks(suite, max_g), fmt()))
    return items


def _reconstruct_sweep(rng: random.Random) -> List[Item]:
    fmt = lambda: rng.choice(("json", "pretty"))
    small = rho_zero_triples(5, 60)
    # One large triple per pass, all of one genus (cost ~ g^3) so that
    # the draw barely moves the pass time; m >= 5 leaves out the large-r
    # triples whose cost is the superfactorial in N.
    large = [t for t in rho_zero_triples(120, 120) if t[0] - t[2] + t[1] >= 5]
    triples = _stratified(rng, small, 20) + [rng.choice(large)]
    # 3 reconstructions, 3 bridge quotients and the epsilon sweep.
    return [
        _verify_item(("verify", "--suite", "reconstruct", "--triples", f"{g},{r},{d}"), 7, fmt())
        for g, r, d in triples
    ]


_GENERATORS = {
    "slope-table": _slope_table,
    "push-classes": _push_classes,
    "schubert-oracle": _schubert_oracle,
    "reconstruct-sweep": _reconstruct_sweep,
}
