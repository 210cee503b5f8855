"""Verification layer: special test families, Schubert-side identities,
and reconstruction of the pushforward formulas from first principles.

Three one-parameter families of pointed stable curves probe a divisor
class on the pointed moduli space:

* the *tails* family: a genus-0 g-pointed curve with g fixed elliptic
  tails attached.  lambda, psi and delta_0 pull back to zero; delta_i
  (2 <= i <= g-2) pulls back to the boundary class eps_i of the base,
  while delta_1 and delta_{g-1} pull back to explicit combinations of
  the eps_i.  The eps_i are independent (their intersection matrix with
  a standard set of test curves, :func:`epsilon_matrix`, is
  nonsingular).

* the *bridge* family: a moving one-pointed genus-2 curve joined to a
  fixed Brill-Noether-general curve of genus g-2.  The target has
  Picard rank 3: pullbacks are compared modulo the classical genus-2
  relation 10 lambda = delta_0 + 2 delta_1.

* the *pencil* families: a marked point moving along one component of a
  fixed two-component curve of genera h and g-h; only degrees survive.

On each family the pushforwards of the tautological classes a, b, c are
known in closed form (zero over the tails family; explicit rank-3
classes over the bridge; explicit degrees over the pencils), each N
times an N-free value, and stated per N as one value per class.  The
pullback tables (:func:`bridge_matrix`, :func:`tails_matrix`,
:func:`pencil_matrix`) are lists of sparse rows, {column: value} with
only the nonzero entries, each row holding at most three.  Together
with the known values they determine the pushforwards uniquely, and
:func:`reconstruct` re-derives them by solving the exact linear system
per N; it is the strongest regression alarm in the package.  The rows
are the same for a, b and c, so each always carries all three
right-hand sides, under the keys g+3..g+5, and one elimination solves
them.  Every table entry is an ``int`` (each tails row is scaled by
(g-1)(g-2)), and every known value is int numerators over one positive
denominator, as :func:`tautpush.per_N_numerators` gives the closed form.
One sparse eliminator, :func:`_forward_eliminate`, takes these int rows
for every system and determinant; a solution comes back in that shape,
N times it as a ``DivisorClass``, and a determinant as ``Fraction``.

The bridge computation rests on Schubert-calculus identities at the
Weierstrass fiber which are re-checked here numerically
(:func:`identity_weierstrass_a`, :func:`identity_weierstrass_c`,
:func:`identity_pieri` and the aspect counts).  Their integrals of zeta
powers, and Castelnuovo's N as that of zeta^g, come from the int closed
form as the schubert-oracle suite reads it and, on Grassmannians of
tractable size, from one read of the Pieri table, one table per triple;
both read 0 at a pattern past the box, and one report routine makes a
broken identity a failed check.  The schubert-oracle suite checks the
closed form on every dimension-balanced integral against one such table
per r, of the largest Grassmannian, read on every smaller one where the
closed form is nonzero, and a count of the table's entries proves the
rest.  Each verify suite is one entry of a table from its name to a
generator of reports; :func:`suite_reports` runs one, or all of them in
table order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, gcd, lcm, prod
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .divisors import (
    FamilyParams,
    SlopeReport,
    gp_slope_closed,
    slope_report,
    syzygy_combo,
    syzygy_slope_closed,
)
from .record import Record
from .schubert import (
    ChowClass,
    GrassmannianSpec,
    _balanced_tuples,
    _closed_form,
    _table_count,
    _zeta_layers,
    pieri_ek,
    schubert_class,
    zeta,
)
from .tautpush import (
    CLASSES,
    DivisorClass,
    GrdParams,
    ParameterError,
    TautCombo,
    _times,
    per_N_numerators,
    rho_zero_triples,
)

__all__ = [
    "CheckReport",
    "ReconstructionError",
    "bridge_matrix",
    "bridge_pushforward",
    "epsilon_matrix",
    "identity_castelnuovo",
    "identity_pieri",
    "identity_weierstrass_a",
    "identity_weierstrass_c",
    "matrix_determinant",
    "pencil_degree",
    "pencil_matrix",
    "pullbacks",
    "reconstruct",
    "relation_multiple",
    "suite_reports",
    "tails_matrix",
]

# Genus-2 relation 10*lambda - delta_0 - 2*delta_1 = 0 on the bridge
# target, in (lambda, psi, delta_0, delta_1) coordinates.
_RELATION = (10, 0, -1, -2)


class ReconstructionError(RuntimeError):
    """The reconstruction linear system was inconsistent or
    underdetermined, so it had no unique solution."""


def relation_multiple(got: Sequence[int | Fraction], want: Sequence[int | Fraction]) -> Optional[Fraction]:
    """The scalar mu with got - want = mu * (10 lambda - delta_0 - 2 delta_1)
    for two classes on the genus-2 bridge base, as coordinate vectors over
    one denominator, or None when their difference is not proportional to
    the relation; int vectors are compared as ints."""
    diff = [x - y for x, y in zip(got, want)]
    if all(10 * x == diff[0] * r for x, r in zip(diff, _RELATION)):
        return Fraction(diff[0], 10)
    return None


Row = Dict[int, int]
Table = List[Row]
PerN = Tuple[int, List[int]]  # a per-N class or a solution: a denominator, int numerators
# The Pieri table of schubert._zeta_layers: one map per layer.
Layers = List[Dict[Tuple[int, ...], int]]

# Every pullback table is a list of sparse rows {column: value} that
# store only nonzero entries.  Columns follow DivisorClass.nums: lambda
# is column 0, psi column 1, and delta_i column 2 + i, so a table row
# applied to a class's numerators gives one pulled-back coordinate over
# the class's scale.


def bridge_matrix(g: int) -> Table:
    """Pullback to the bridge family, rows (lambda, psi, delta_0, delta_1):
    lambda -> lambda, delta_0 -> delta_0, delta_{g-2} -> -psi,
    delta_{g-1} -> delta_1, everything else (psi, delta_1..delta_{g-3})
    to zero."""
    return [{0: 1}, {g: -1}, {2: 1}, {g + 1: 1}]


def tails_matrix(g: int) -> Table:
    """Pullback to the tails family, one row per eps_i (i = 2..g-2):
    lambda, psi, delta_0 -> 0; delta_i -> eps_i; and

        delta_1     -> -sum (g-i)(g-i-1) / ((g-1)(g-2)) eps_i,
        delta_{g-1} -> -sum (g-i)(i-1) / (g-2) eps_i,

    each row times (g-1)(g-2), so its entries are ints: a scaled row has
    the same solutions, and :func:`pullbacks` divides the scale out."""
    if g < 5:
        raise ParameterError(f"tails family needs g >= 5; got g={g}")
    scale = (g - 1) * (g - 2)
    return [
        {3: -(g - i) * (g - i - 1), 2 + i: scale, g + 1: -(g - i) * (i - 1) * (g - 1)}
        for i in range(2, g - 1)
    ]


def pencil_matrix(g: int) -> Table:
    """Degrees on the pencil families, one row per h = 1..g-1:
    deg lambda = 0, deg psi = 2h-1, deg delta_h = -1, deg delta_{g-h} = +1,
    all other boundary degrees zero (for h = g/2 the two contributions
    land on the same class and cancel)."""
    rows = []
    for h in range(1, g):
        row = {1: 2 * h - 1}
        if 2 * h != g:
            row[2 + h] = -1
            row[2 + g - h] = 1
        rows.append(row)
    return rows


def _apply(m: Table, vec: Sequence[int]) -> List[int]:
    return [sum(x * vec[j] for j, x in row.items()) for row in m]


def pullbacks(dc: DivisorClass) -> Tuple[DivisorClass, Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Apply the three pullback tables of genus g = dc.g to a class.
    Returns (bridge, tails, degrees): the genus-2 class on the bridge
    base, the coefficients of eps_2..eps_{g-2} on the tails base, and
    the pencil degrees for h = 1..g-1."""
    g, scale, nums = dc.g, dc.scale, dc.nums
    bridge = DivisorClass.of(scale, 1, _apply(bridge_matrix(g), nums))
    tails = tuple(scale * Fraction(x, (g - 1) * (g - 2)) for x in _apply(tails_matrix(g), nums))
    degrees = tuple(scale * x for x in _apply(pencil_matrix(g), nums))
    return bridge, tails, degrees


def bridge_pushforward(params: GrdParams) -> Tuple[PerN, PerN, PerN]:
    """1/N times the pushforwards of a, b and c over the bridge family, as
    genus-2 classes on the bridge base.  With T = 2d(d-2g+2)/(3(g-1)),
    U = d/(g-1) and V = -xi/(3(g-1)):

        a -> T (3 psi - lambda - delta_1) + U (lambda + delta_1 - 4 psi)
        b -> U (lambda + delta_1 - 4 psi)
        c -> V (3 psi - lambda - delta_1)

    Each is (D, int numerators of lambda, psi, delta_0, delta_1) with one
    D = 3(g-1)q, xi = p/q in lowest terms: T, U, V are 2d(d-2g+2)q, 3dq, -p
    over D."""
    g, d = params.g, params.d
    p, q = params._xi_pair()
    D = 3 * (g - 1) * q
    T, U, V = 2 * d * (d - 2 * g + 2) * q, 3 * d * q, -p
    xy = ((T, U), (0, U), (V, 0))  # the coefficients of the two brackets
    return tuple((D, [y - x, 3 * x - 4 * y, 0, y - x]) for x, y in xy)


def pencil_degree(params: GrdParams, h: int) -> Tuple[int, int, int]:
    """1/N times the degrees of the pushforwards of a, b and c over the
    pencil family of type h:  a -> -d^2;  b -> -(2(g-h)-1) d;
    c -> -(rh + r(r+1)/2)."""
    g, r, d = params.g, params.r, params.d
    if not 1 <= h <= g - 1:
        raise ParameterError(f"pencil type needs 1 <= h <= g-1; got h={h}")
    return -d * d, -(2 * (g - h) - 1) * d, -(r * h + r * (r + 1) // 2)


# ---------------------------------------------------------------------------
# Check reports


class CheckReport(Record):
    """One verification result; serializes to
    {check, params, lhs, rhs, pass, detail}."""

    __slots__ = _fields = ("check", "params", "lhs", "rhs", "passed", "detail")

    def as_json_dict(self) -> Dict[str, object]:
        return {
            "check": self.check,
            "params": self.params,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "pass": self.passed,
            "detail": self.detail,
        }

    def __str__(self) -> str:
        status = "pass" if self.passed else "FAIL"
        ps = ",".join(f"{k}={v}" for k, v in self.params.items())
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"[{status}] {self.check}({ps}): {self.lhs} vs {self.rhs}{tail}"


def _report(check: str, params: Dict[str, object], lhs, rhs, passed: bool, detail: str = "") -> CheckReport:
    return CheckReport(check, params, str(lhs), str(rhs), passed, detail)


# Bound the time the identity suites spend on brute-force cross-checks,
# with the size C(d+1, r+1) of the full index set of G(r, P^d) as a
# proxy for it: the Pieri table holds only the indices reached from the
# zero index, far fewer (1 213 of about 4.5e9 for G(17, P^34)).  The
# closed form is itself oracle-checked exhaustively on small specs, so
# nothing is lost on big ones.
_BRUTE_LIMIT = 2_000_000


def _brute_table(params: GrdParams) -> Optional[Layers]:
    """The Pieri table of G(r, P^d), or None when its index set,
    C(d+1, r+1) indices, exceeds _BRUTE_LIMIT."""
    if comb(params.d + 1, params.r + 1) <= _BRUTE_LIMIT:
        return _zeta_layers(GrassmannianSpec(params.r, params.d))
    return None


def _pattern_report(
    check: str, params: GrdParams, b: Tuple[int, ...], k: int, layers: Optional[Layers],
    scale: int, shift: int, rhs: int | Fraction, label: str,
) -> CheckReport:
    """The identity scale * I + shift == rhs for the integral I of zeta^k
    against sigma_b on G(r, P^d), by the int closed form, which passes
    only if the read of ``layers``, the table of G(r, P^d) if given, is I;
    the detail names I as ``label`` and the read as brute.  Each pattern
    here is ascending, of length r + 1, with |b| = r(g - k) (k = g for
    zeros, g - 3 for a's, g - 2 for c's), so r*k + |b| = rg, which
    rho = 0, g = (r+1)(g-d+r), makes (r+1)(d-r) = dim G(r, P^d): balanced,
    so a pattern past the box reads 0 from both."""
    spec = GrassmannianSpec(params.r, params.d)
    closed = Fraction(*_closed_form(spec, b, k))
    br = None if layers is None else _table_count(layers, spec.box, b, k)
    lhs = scale * closed + shift
    detail = f"{label}={closed}" + ("" if br is None else f" brute={br}")
    key = {"g": params.g, "r": params.r, "d": params.d}
    return _report(check, key, lhs, rhs, lhs == rhs and br in (None, closed), detail)


def identity_castelnuovo(g: int, r: int, d: int, *, brute: bool = True) -> CheckReport:
    """The Castelnuovo count equals the integral of zeta^g, via the
    closed form and (when tractable) the Pieri table."""
    params = GrdParams(g, r, d)
    b = (0,) * (r + 1)
    layers = _brute_table(params) if brute else None
    return _pattern_report("castelnuovo", params, b, g, layers, 1, 0, params.N, "closed")


def _weierstrass_a_index(r: int) -> Tuple[int, ...]:
    """The pattern (1, 2, 3, ..., 3) of the Weierstrass identity for a."""
    return (1, 2) + (3,) * (r - 1)


def identity_weierstrass_a(g: int, r: int, d: int) -> CheckReport:
    """Weierstrass-fiber identity for a:

        -2(g-2) * integral(sigma_{(1,2,3,...,3)} zeta^{g-3})
            = -2d(2g-2-d) N / (3(g-1)).
    """
    params = GrdParams(g, r, d)
    if g < 3:
        raise ParameterError(f"Weierstrass identity for a needs g >= 3; got g={g}")
    return _weierstrass_a_report(params, params.N, _brute_table(params))


def _weierstrass_a_report(params: GrdParams, N: int, layers: Optional[Layers]) -> CheckReport:
    g, r, d = params.g, params.r, params.d
    rhs = Fraction(-2 * d * (2 * g - 2 - d) * N, 3 * (g - 1))
    b = _weierstrass_a_index(r)
    return _pattern_report("weierstrass_a", params, b, g - 3, layers, -2 * (g - 2), 0, rhs, "integral")


def identity_weierstrass_c(g: int, r: int, d: int) -> CheckReport:
    """Weierstrass-fiber identity for c:

        -( integral(sigma_{(0,1,2,...,2,3)} zeta^{g-2}) + N )
            = -xi N / (3(g-1)).

    Its pattern needs r >= 2, which gives g = (r+1)m >= 3.
    """
    params = GrdParams(g, r, d)
    if r < 2:
        raise ParameterError(f"Weierstrass identity for c needs r >= 2; got r={r}")
    return _weierstrass_c_report(params, params.N, _brute_table(params))


def _weierstrass_c_report(params: GrdParams, N: int, layers: Optional[Layers]) -> CheckReport:
    g, r = params.g, params.r
    b = (0, 1) + (2,) * (r - 2) + (3,)
    rhs = Fraction(-N, 3 * (g - 1)) * params.xi
    return _pattern_report("weierstrass_c", params, b, g - 2, layers, -1, -N, rhs, "integral")


def identity_pieri(g: int, r: int, d: int) -> CheckReport:
    """Pieri bookkeeping used at the Weierstrass fiber:

    (i)  zeta * (single box) = sigma_{(1,...,1)} + sigma_{(0,1,...,1,2)};
    (ii) the full shift of sigma_{(0,1,2,...,2)} is sigma_{(1,2,3,...,3)}
         (the zero class when the target overflows the box).
    The triple is checked for rho = 0 and r >= 2, so the box
    d - r = r(g - d + r) >= 2 holds both terms of (i).
    """
    params = GrdParams(g, r, d)
    if r < 2:
        raise ParameterError(f"Pieri identity check needs r >= 2; got r={r}")
    spec = GrassmannianSpec(r, d)

    got1 = pieri_ek(zeta(spec), 1)
    expected1 = ChowClass(spec, r + 1, {(1,) * (r + 1): 1, (0,) + (1,) * (r - 1) + (2,): 1})
    ok1 = got1 == expected1

    start = schubert_class(spec, (0, 1) + (2,) * (r - 1))
    shifted = pieri_ek(start, r + 1)
    target = _weierstrass_a_index(r)
    terms2 = {target: 1} if target[-1] <= spec.box else {}
    expected2 = ChowClass(spec, start.codim + r + 1, terms2)
    ok2 = shifted == expected2

    return _report(
        "pieri",
        {"g": params.g, "r": params.r, "d": params.d},
        f"h·ζ = {got1}; shift = {shifted}",
        f"{expected1}; {expected2}",
        ok1 and ok2,
    )


def _aspect_report(params: GrdParams, N: int) -> CheckReport:
    """Aspect counts: the aspects compatible with a maximally ramified
    series at the Weierstrass point form two families, of
    (2g-2-d) N / (2(g-1)) and d N / (2(g-1)) aspects with multiplicity.
    Their sum must be N, and each count must equal the matching Schubert
    integral of zeta^{g-2} against the dual ramification index.
    Integrality of the counts is only recorded, never asserted.

    The compatible aspect on the opposite component has vanishing
    c_i = d - a_{r-i} and ramification b_i = c_i - i, which works out to
    the fixed patterns (0,2,...,2) and (1,1,2,...,2) independent of d,
    balanced at k = g - 2 as |b| = 2r.
    """
    g, r, d = params.g, params.r, params.d
    spec = GrassmannianSpec(r, d)
    n1 = Fraction((2 * g - 2 - d) * N, 2 * (g - 1))
    n2 = Fraction(d * N, 2 * (g - 1))
    s1 = Fraction(*_closed_form(spec, (0,) + (2,) * r, g - 2))
    s2 = Fraction(*_closed_form(spec, (1, 1) + (2,) * (r - 1), g - 2))
    ok = n1 + n2 == N and s1 == n1 and s2 == n2
    integral_counts = n1.denominator == 1 and n2.denominator == 1
    return _report(
        "aspects",
        {"g": g, "r": r, "d": d},
        f"({n1},{n2})",
        f"sum={N}",
        ok,
        f"integral_counts={integral_counts} schubert=({s1},{s2})",
    )


# ---------------------------------------------------------------------------
# Epsilon intersection matrix and exact linear algebra


def epsilon_matrix(g: int) -> Tuple[Table, bool]:
    """Intersection matrix of the tails-family boundary classes eps_i
    (columns 0..g-4 for i = 2..g-2) with the standard test curves (rows,
    j = 1..g-3), as sparse rows {column: value} of at most three nonzero
    ``int``s, plus the verdict that its determinant is the closed form
    below:

        row 1:            (g-1, 0, ..., 0)
        rows 2 <= j <= g-4: -1 at column j-1, 1 at column j,
                            g-1-j in the last column
        row g-3:          (0, ..., 0, -1, 2)

    Its determinant is (g-1)^2 (g-4) / 2: clearing the -1 below each
    diagonal entry from the top down (row 2 by row 1 over g-1, each
    later row by the reduced row above it) leaves an upper triangular
    matrix with diagonal (g-1, 1, ..., 1, (g-1)(g-4)/2).  So the matrix
    is nonsingular for every g >= 5.  The verdict compares the computed
    determinant with the closed form, so a true verdict certifies
    nonsingularity with one elimination.
    """
    if g < 5:
        raise ParameterError(f"epsilon matrix needs g >= 5; got g={g}")
    n = g - 3
    rows = [{0: g - 1}]
    rows += [{j - 2: -1, j - 1: 1, n - 1: g - 1 - j} for j in range(2, n)]  # rows 2..g-4
    rows.append({n - 2: -1, n - 1: 2})
    return rows, matrix_determinant(rows) == (g - 1) ** 2 * (g - 4) // 2


def _forward_eliminate(rows: Iterable[Row], ncols: int) -> Tuple[Dict[int, Row], List[Row], Tuple[int, int]]:
    """Reduce sparse rows of nonzero ``int`` entries to row echelon form
    over the columns 0..ncols-1; entries under keys from ``ncols`` up
    (right-hand sides) ride along.

    Each row is copied once, so the caller's rows stay as they were, and
    rows are taken in order.  While an earlier row pivots on the row's
    leading (smallest) column, with pivot entry p against the row's entry
    q, the row becomes a*row - b*prow for a = p/gcd(p, q),
    b = q/gcd(p, q), which touches only the pivot row's stored entries
    and drops every entry that cancels, and is then divided by its
    content (the gcd of its entries).  It ends as the pivot of its new
    leading column or with no entry before ``ncols``.  No dense row or
    column is ever scanned.  A negative column key raises ValueError.

    Returns the pivot rows keyed by their pivot column, in the order they
    were found (a pivot row holds no entry left of its pivot column), the
    rows left without a pivot, and the scale (num, den) by which the steps
    multiplied the determinant of the rows.  A reduction multiplies it by
    a, as it scales the row by a and subtracts a multiple of another row;
    dividing out a content c divides it by c.  So num is the product of
    every a, den of every content.
    """
    pivots: Dict[int, Row] = {}
    rest: List[Row] = []
    num = den = 1
    for given in rows:
        row = dict(given)
        while (lead := min(row, default=ncols)) < ncols:
            prow = pivots.get(lead)
            if prow is None:
                if lead < 0:  # a negative key always leads its row
                    raise ValueError(f"row has a negative column key {lead}")
                pivots[lead] = row
                break
            p, q = prow[lead], row.pop(lead)
            c = gcd(p, q)
            a, b = p // c, q // c
            if a != 1:
                num *= a
                for j in row:
                    row[j] *= a
            for j, x in prow.items():
                if j != lead:
                    y = row.get(j, 0) - b * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
            c = gcd(*row.values())
            if c > 1:
                den *= c
                for j in row:
                    row[j] //= c
        else:
            rest.append(row)
    return pivots, rest, (num, den)


def matrix_determinant(rows: Sequence[Row]) -> Fraction:
    """Exact determinant of the square matrix whose n = len(rows) rows
    are given as sparse rows {column: value} of nonzero ``int`` entries
    over the columns 0..n-1, from one elimination (see
    :func:`_forward_eliminate`); no dense row is built or scanned.  It is 0 unless every row becomes the pivot of some
    column.  The eliminated rows then have determinant sign times
    the product of the pivots, the sign being that of the permutation
    taking pivot-discovery order to column order; by the elimination's
    scale (num, den) this is num/den times the input's determinant.
    """
    n = len(rows)
    pivots, _, (num, den) = _forward_eliminate(rows, n)
    if len(pivots) < n:
        return Fraction(0)
    sign = 1
    order = list(pivots)
    for k in range(n):
        while order[k] != k:  # sort by transpositions, each flips the sign
            j = order[k]
            order[k], order[j] = order[j], order[k]
            sign = -sign
    return Fraction(sign * den * prod(row[col] for col, row in pivots.items()), num)


def _solve_unique(rows: Iterable[Row], ncols: int, k: int) -> List[PerN | ReconstructionError]:
    """Solve an (over-determined) exact linear system for k right-hand
    sides, stored in sparse rows under the keys ncols..ncols+k-1, with
    one elimination and one pass of integer back-substitution.  Returns,
    per right-hand side, its unique solution as (D, numerators), D the
    least common denominator of the unknowns, or the ReconstructionError
    saying why there is none: inconsistent when some row reduces to a
    nonzero entry in that right-hand side's column and no unknown's (the
    other right-hand sides keep their solutions), or underdetermined when
    the rank is below ``ncols``."""
    pivots, rest, _ = _forward_eliminate(rows, ncols)
    under = f"linear system is underdetermined (rank {len(pivots)} < {ncols} unknowns)"
    out: List = [  # a right-hand side to solve: its key, then each unknown's reduced num and den
        ReconstructionError("linear system is inconsistent") if any(rhs in row for row in rest)
        else ReconstructionError(under) if len(pivots) < ncols else (rhs, [0] * ncols, [1] * ncols)
        for rhs in range(ncols, ncols + k)
    ]
    solving = [sol for sol in out if type(sol) is tuple]
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        for rhs, nums, dens in solving:
            num, den = row.get(rhs, 0), 1
            for j, x in row.items():
                if col < j < ncols:  # subtract x times the known unknown nums[j] / dens[j]
                    num, den = num * dens[j] - x * nums[j] * den, den * dens[j]
            den *= row[col]
            c = gcd(num, den)  # a negative den is fine: D below is a positive lcm
            nums[col], dens[col] = num // c, den // c
    for i, sol in enumerate(out):
        if type(sol) is tuple:
            D = lcm(*sol[2])
            out[i] = D, [x * (D // y) for x, y in zip(sol[1], sol[2])]
    return out


def reconstruct(g: int, r: int, d: int, which: str) -> DivisorClass:
    """Re-derive the pushforward of a, b or c from the special-family
    data alone, bypassing the closed-form coefficients: N times the
    class's solution (D, numerators) of the system described in
    :func:`_reconstruct`.  Raises ReconstructionError when the system has
    no unique solution."""
    TautCombo.unit(which)  # an unknown class is named before any elimination
    params = _reconstruct_params(g, r, d)
    got = _reconstruct(params, bridge_pushforward(params))[CLASSES.index(which)]
    if isinstance(got, ReconstructionError):
        raise got
    return DivisorClass.of(params.N, *got)


def _reconstruct_params(g: int, r: int, d: int) -> GrdParams:
    """The triple (g, r, d) checked by :class:`GrdParams` and for g >= 5,
    which the tails family needs."""
    params = GrdParams(g, r, d)
    if g < 5:
        raise ParameterError(f"reconstruction needs g >= 5; got g={g}")
    return params


def _reconstruct(params: GrdParams, bridge: Sequence[PerN]) -> List[PerN | ReconstructionError]:
    """Solve for 1/N times the pushforwards of a, b and c at ``params``
    from the special-family data, with one elimination and no N: the
    right-hand sides are stated per N, and as every row is linear, the
    solution is theirs for the pushforwards divided by N.  ``bridge`` is
    :func:`bridge_pushforward` of ``params``.

    The unknowns are the class coordinates lambda, delta_0..delta_{g-1},
    psi, in that column order, and one more scalar mu in column g+2.
    Every row of a pullback table is a sparse row over
    (lambda, psi, delta_*); moving its entries to those columns, adding a
    mu entry and the right-hand sides of a, b and c under the keys g+3,
    g+4 and g+5 makes it a row of the system:

    * for each pencil type h: the pencil degree of the class;
    * for each tails class eps_i: the pullback of the class vanishes,
      one equation per eps_i coefficient;
    * the bridge pullback plus mu times the relation
      10 lambda - delta_0 - 2 delta_1 equals the known genus-2 class, whose
      int numerators over D are the right-hand sides: the bridge row and
      its mu entry are multiplied by D.

    The rows are eliminated (see :func:`_forward_eliminate`) in that
    order, and stay short, never holding more than four unknowns: pencil
    row h pivots on delta_min(h, g-h), pencil g-h then cancels to a
    psi-only row, and each tails row moves from delta to delta along the
    pencil pivots until it finds a free column.  psi comes after the
    deltas because it sits in every pencil row: as a leading column it
    would make every pencil row reduce by the first one and pick up its
    delta entries, while as the last class column it only rides along.
    ``params`` comes from :func:`_reconstruct_params`.  Returns, for a, b
    and c in turn, its :func:`_solve_unique` solution in the class order
    (lambda, psi, delta_*) or its ReconstructionError.
    """
    g, D = params.g, bridge[0][0]  # the three bridge classes share D
    bridge_rows = ({j: D * x for j, x in row.items()} for row in bridge_matrix(g))
    bridge_targets = zip(*(nums for _, nums in bridge))
    system = (
        [(row, 0, pencil_degree(params, h)) for h, row in enumerate(pencil_matrix(g), start=1)]
        + [(row, 0, ()) for row in tails_matrix(g)]
        + list(zip(bridge_rows, (D * x for x in _RELATION), bridge_targets))
    )
    # table column j -> system column: lambda stays, psi goes last, delta_i to 1 + i
    column = [0, g + 1, *range(1, g + 1)]
    rows = [
        {column[j]: x for j, x in row.items()} | {key: y for key, y in enumerate((mu, *targets), g + 2) if y}
        for row, mu, targets in system
    ]
    return [  # class coordinate j is system column column[j]
        sol if isinstance(sol, ReconstructionError) else (sol[0], [sol[1][c] for c in column])
        for sol in _solve_unique(rows, g + 3, len(CLASSES))
    ]


# ---------------------------------------------------------------------------
# Verification suites


def _oracle_spec_report(r: int, d: int, layers: Layers, reach: int) -> CheckReport:
    """Exhaustive comparison of the closed form with Pieri counts over
    every dimension-balanced (b, k) on G(r, P^d), in lexicographic order
    of b, each count a :func:`_table_count` read of ``layers``, the Pieri
    table of some G(r, P^D) with D >= d.  The closed form is compared on
    ints, as ``num == brute * den``.  Its den is positive, so that holds
    exactly when den divides num with quotient brute: a closed form that
    is not an integer, or is another integer, is a failed check.

    The table is read only where the closed form is nonzero, and a count
    proves every other pair.  With box = d - r, let P be the balanced
    pairs where num != 0, and R those whose dual index
    b* = (box - b_r, ..., box - b_0) is an entry of layer k; ``reach`` is
    |R|, counted by :func:`_reach_counts`.  The fast pass reads the table
    at each pair of P and requires ``num == entry * den``; with num != 0
    that needs an entry, so P is a subset of R.  If also |P| = |R|, then
    P = R: every other pair reads 0, as b* is absent from layer k, and
    has num = 0, so it compares 0 with 0.  The verdict is then the
    pair-by-pair one, for any table and any closed form.  When a
    comparison fails or the counts differ, the ordered scan compares
    every pair, and its report names the first (b, k) that fails.  An
    overcount of R (an entry that no balanced pair reaches) only costs
    that scan.
    """
    spec = GrassmannianSpec(r, d)
    box, pairs, reads, failed = spec.box, 0, 0, False
    for b, k in _balanced_tuples(spec):
        num, den = _closed_form(spec, b, k)
        pairs += 1
        if num:
            reads += 1
            if num != _table_count(layers, box, b, k) * den:
                failed = True
                break
    if failed or reads != reach:
        for b, k in _balanced_tuples(spec):
            brute = _table_count(layers, box, b, k)
            num, den = _closed_form(spec, b, k)
            if num != brute * den:
                return _report(
                    "schubert_oracle",
                    {"r": r, "d": d},
                    f"closed({b},k={k})={Fraction(num, den)}",
                    f"brute={brute}",
                    False,
                )
    return _report("schubert_oracle", {"r": r, "d": d}, pairs, pairs, True, f"{pairs} pairs")


def _reach_counts(layers: Layers, r: int, top: int) -> List[int]:
    """|R| of :func:`_oracle_spec_report` for each box B <= ``top``, from
    one pass over the table.  A balanced pair's b* has sum r*k, so each
    entry c of layer k with that sum counts, in the bucket c[-1]; item B
    accumulates the buckets up to B, the entries that the box B holds."""
    buckets = [0] * (top + 1)
    for k, layer in enumerate(layers):
        for c in layer:
            if c[-1] <= top and sum(c) == r * k:
                buckets[c[-1]] += 1
    return list(accumulate(buckets))


def _reconstruct_report(
    params: GrdParams, N: int, which: str, got: PerN | ReconstructionError, expected: PerN
) -> CheckReport:
    """The solved class (D, xs) against the closed form's per-N numerators
    (L, ys), as x * L == y * D per coordinate, each printed N times by ``_times``."""
    key = {"g": params.g, "r": params.r, "d": params.d, "class": which}
    if isinstance(got, ReconstructionError):
        return _report("reconstruct", key, "-", "-", False, str(got))
    (D, xs), (L, ys) = got, expected
    k = next((k for k, (x, y) in enumerate(zip(xs, ys)) if x * L != y * D), None)
    detail = "matches closed form"
    if k is not None:
        name = ("λ", "ψ")[k] if k < 2 else f"δ{k - 2}"
        (x,), (y,) = (_times(N, den, [v[k]]) for den, v in (got, expected))
        detail = f"first mismatch at {name}: reconstructed {x}, closed form {y}"
    text = "λ={}, δ0={}, ψ={}".format
    lhs, rhs = (text(*_times(N, den, (v[0], v[2], v[1]))) for den, v in (got, expected))
    return _report("reconstruct", key, lhs, rhs, k is None, detail)


def _epsilon_report() -> CheckReport:
    """Every epsilon matrix for 5 <= g <= 30 has its closed-form, nonzero
    determinant; a failure names the first g where it differs."""
    bad = next((g for g in range(5, 31) if not epsilon_matrix(g)[1]), None)
    return _report(
        "epsilon_nonsingular",
        {"g_min": 5, "g_max": 30},
        "nonsingular" if bad is None else f"determinant ≠ (g-1)²(g-4)/2 at g={bad}",
        "nonsingular",
        bad is None,
    )


def _bridge_quotient_report(params: GrdParams, N: int, which: str, per_N: PerN, want: PerN) -> CheckReport:
    """The bridge pullback of 1/N times the pushforward, its per-N
    numerators (L, ints) through the bridge table, differs from the known
    per-N genus-2 class ``want`` = (D, numerators) by an exact multiple of
    the relation.  The two are compared on ints, cross-multiplied to the
    denominator L*D, and each value is printed N times by ``_times``."""
    (L, ints), (D, nums) = per_N, want
    got = _apply(bridge_matrix(params.g), ints)
    mu = relation_multiple([x * D for x in got], [y * L for y in nums])
    text = "{}·λ + {}·ψ + {}·δ0 + {}·δ1".format
    return _report(
        "bridge_quotient",
        {"g": params.g, "r": params.r, "d": params.d, "class": which},
        text(*_times(N, L, got)),
        text(*_times(N, D, nums)),
        mu is not None,
        f"multiple={_times(N, mu.denominator * L * D, [mu.numerator])[0]}" if mu is not None else "not proportional to relation",
    )


def _structure_report(rep: SlopeReport, first: int, quadric: bool, twin: bool) -> CheckReport:
    """psi vanishes for every family pushforward; a quadric-type instance
    is in addition symmetric in delta_i <-> delta_{g-i}, and a twin (the
    hypersurface with r = 2s+2 and k = 2) has the combo of syzygy i = 0.
    ``first`` is the instance's first grid axis, as the report names it.

    psi and the symmetry are read from the numerators of 1/N times the
    pushforward, so N is computed only to print a nonzero psi.  For i >= 1 each delta_i is
    alpha + beta i + gamma i^2 (see :func:`per_N_numerators`), so
    delta_i - delta_{g-i} = (2i - g)(beta + gamma g): the class is
    symmetric exactly when beta + gamma g = 0, which is delta_1 =
    delta_{g-1} as 2 - g != 0 for g >= 3 (at g = 2 both are delta_1).
    """
    L, ints = per_N_numerators(rep.combo, rep.grd)
    _, psi, _, *delta = ints
    symmetric = delta[0] == delta[-1]
    ok = psi == 0 and (not quadric or symmetric)
    if twin:
        ok = ok and rep.combo == syzygy_combo(0, rep.s)
    return _report(
        "structure",
        {"family": rep.family, "first": first, "s": rep.s},
        f"psi={_times(rep.N, L, [psi])[0] if psi else 0}, symmetric={symmetric}",
        f"psi=0, symmetric required={quadric}",
        ok,
        "hyper(k=2) == syzygy(0)" if twin else "",
    )


def _oracle_suite(*, r_max: int, d_max: int, **_) -> Iterator[CheckReport]:
    """One Pieri table per r, of G(r, P^d_max), read by every d, and one
    pass over it that counts the entries each box can reach; one table
    is held at a time."""
    for r in range(1, min(r_max, d_max) + 1):
        layers = _zeta_layers(GrassmannianSpec(r, d_max))
        reach = _reach_counts(layers, r, d_max - r)
        for d in range(r, d_max + 1):
            yield _oracle_spec_report(r, d, layers, reach[d - r])
        del layers


def _castelnuovo_suite(*, max_g: int, **_) -> Iterator[CheckReport]:
    return (identity_castelnuovo(g, r, d) for g, r, d in rho_zero_triples(max_g))


def _weierstrass_suite(*, max_g: int, **_) -> Iterator[CheckReport]:
    """One GrdParams, one N and at most one Pieri table per triple, shared
    by the triple's reports."""
    for g, r, d in rho_zero_triples(max_g):
        params = GrdParams(g, r, d)
        N = params.N
        if g >= 3:
            layers = _brute_table(params)
            yield _weierstrass_a_report(params, N, layers)
            if r >= 2:
                yield _weierstrass_c_report(params, N, layers)
        yield _aspect_report(params, N)


def _pieri_suite(*, max_g: int, **_) -> Iterator[CheckReport]:
    return (identity_pieri(g, r, d) for g, r, d in rho_zero_triples(max_g) if r >= 2)


def _reconstruct_suite(*, triples: Sequence[GrdParams], **_) -> Iterator[CheckReport]:
    """Solves and compares 1/N times each class; the closed form's per-N
    numerators, the bridge classes and N are computed once per triple,
    and every value printed is N times the one compared."""
    for params in triples:
        pushes = (per_N_numerators(TautCombo.unit(which), params) for which in CLASSES)
        per_N = [(L, list(ints)) for L, ints in pushes]
        bridge = bridge_pushforward(params)
        solved = _reconstruct(params, bridge)
        N = params.N
        for which, got, expected in zip(CLASSES, solved, per_N):
            yield _reconstruct_report(params, N, which, got, expected)
        for which, push, want in zip(CLASSES, per_N, bridge):
            yield _bridge_quotient_report(params, N, which, push, want)
    yield _epsilon_report()


def _symmetry_suite(**_) -> Iterator[CheckReport]:
    gp = [slope_report(FamilyParams.gp(r, s)) for r in range(1, 5) for s in range(1, 5)]
    syz = [slope_report(FamilyParams.syzygy(i, s)) for i in (0, 1, 3) for s in (1, 2, 3)]
    hyper = [
        slope_report(FamilyParams.hypersurface(r, s, 2))
        for s in range(1, 5)
        for r in (2 * s + 2, 1)
    ]
    for rep in gp:
        closed, mirror = gp_slope_closed(rep.r, rep.s), gp_slope_closed(rep.s, rep.r)
        ok = rep.slope == closed == mirror
        key = {"r": rep.r, "s": rep.s}
        yield _report("gp_slope", key, rep.slope, closed, ok, f"mirror={mirror}")
    for rep in syz:
        closed = syzygy_slope_closed(rep.extra, rep.s)
        ok = abs(rep.slope) == abs(closed)
        key = {"i": rep.extra, "s": rep.s}
        yield _report("syzygy_slope", key, rep.slope, closed, ok)
    yield from (_structure_report(rep, rep.r, False, False) for rep in gp)
    yield from (_structure_report(rep, rep.extra, rep.extra == 0, False) for rep in syz)
    yield from (_structure_report(rep, rep.r, rep.r > 1, rep.r > 1) for rep in hyper)


# Each suite takes suite_reports' checked caps as keyword arguments and
# names those it reads.  Calling a suite checks nothing and computes
# nothing; its reports are computed as it is iterated.
_SUITES = {
    "schubert-oracle": _oracle_suite,
    "castelnuovo": _castelnuovo_suite,
    "weierstrass": _weierstrass_suite,
    "pieri": _pieri_suite,
    "reconstruct": _reconstruct_suite,
    "symmetry": _symmetry_suite,
}
SUITES = tuple(_SUITES)
DEFAULT_RECONSTRUCT_TRIPLES = ((6, 2, 6), (8, 3, 9), (10, 4, 12), (21, 6, 24))
# Verify caps shared with the CLI: the genus of the identity sweeps,
# and r and d of the Schubert oracle.
DEFAULT_MAX_G, DEFAULT_R_MAX, DEFAULT_D_MAX = 12, 5, 18


def suite_reports(
    suite: str,
    *,
    max_g: int = DEFAULT_MAX_G,
    r_max: int = DEFAULT_R_MAX,
    d_max: int = DEFAULT_D_MAX,
    triples: Sequence[Tuple[int, int, int]] = DEFAULT_RECONSTRUCT_TRIPLES,
) -> List[CheckReport]:
    """Run one named verification suite, or 'all' in table order, and return its reports.

    Every cap, each triple included, is checked here before any suite runs."""
    if suite != "all" and suite not in _SUITES:
        raise ParameterError(f"unknown verification suite {suite!r}")
    caps = {"max_g": max_g, "r_max": r_max, "d_max": d_max}
    for name, cap in caps.items():
        if cap < 0:
            raise ParameterError(f"cap {name} must be >= 0; got {cap}")
    caps["triples"] = [_reconstruct_params(g, r, d) for g, r, d in triples]
    return [rep for name in SUITES if suite in ("all", name) for rep in _SUITES[name](**caps)]
