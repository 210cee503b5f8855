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
classes over the bridge; explicit degrees over the pencils).  Together
with the pullback tables these data determine the pushforwards
uniquely, and :func:`reconstruct` re-derives them by solving the exact
linear system; it is the strongest regression alarm in the package.

The bridge computation rests on Schubert-calculus identities at the
Weierstrass fiber which are re-checked here numerically
(:func:`identity_weierstrass_a`, :func:`identity_weierstrass_c`,
:func:`identity_pieri`, :func:`aspect_counts`), each against both the
closed form for integrals of zeta powers and the brute-force Pieri
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .divisors import (
    FamilyParams,
    gp_slope_closed,
    hypersurface_combo,
    slope_report,
    syzygy_combo,
    syzygy_slope_closed,
)
from .numeric import binomial
from .schubert import (
    GrassmannianSpec,
    balanced_pairs,
    brute_zeta_integral,
    make_index,
    pieri_ek,
    schubert_class,
    zero_class,
    zeta,
    zeta_power_integral,
)
from .tautpush import (
    DivisorClass,
    GrdParams,
    ParameterError,
    push,
    rho_zero_triples,
)

__all__ = [
    "CheckReport",
    "M21Class",
    "ReconstructionError",
    "aspect_counts",
    "aspect_report",
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
    "suite_reports",
    "tails_matrix",
]

# Genus-2 relation 10*lambda - delta_0 - 2*delta_1 = 0 on the bridge
# target, in (lambda, psi, delta_0, delta_1) coordinates.
_RELATION = (Fraction(10), Fraction(0), Fraction(-1), Fraction(-2))


class ReconstructionError(RuntimeError):
    """The reconstruction linear system was singular or inconsistent."""


@dataclass(frozen=True)
class M21Class:
    """Divisor class on the bridge-family base (pointed genus-2 moduli),
    coordinates (lambda, psi, delta_0, delta_1).

    The Picard rank is 3, so classes are compared modulo the relation
    10 lambda - delta_0 - 2 delta_1 = 0."""

    lam: Fraction
    psi: Fraction
    delta0: Fraction
    delta1: Fraction

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.lam, self.psi, self.delta0, self.delta1)

    def __sub__(self, other: "M21Class") -> "M21Class":
        return M21Class(*(x - y for x, y in zip(self.as_tuple(), other.as_tuple())))

    def relation_multiple(self, other: "M21Class") -> Optional[Fraction]:
        """The scalar mu with self - other = mu * (10, 0, -1, -2), or
        None when the difference is not proportional to the relation."""
        diff = (self - other).as_tuple()
        mu = diff[0] / _RELATION[0]
        if all(x == mu * r for x, r in zip(diff, _RELATION)):
            return mu
        return None

    def eq_mod_relation(self, other: "M21Class") -> bool:
        return self.relation_multiple(other) is not None

    def __str__(self) -> str:
        return (
            f"{self.lam}·λ + {self.psi}·ψ + {self.delta0}·δ0 + {self.delta1}·δ1"
        )


Matrix = List[List[Fraction]]

# Column order of every pullback matrix: (lambda, psi, delta_0, ..., delta_{g-1}),
# so delta_i sits in column 2 + i.


def _zero_matrix(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def bridge_matrix(g: int) -> Matrix:
    """Pullback to the bridge family, rows (lambda, psi, delta_0, delta_1):
    lambda -> lambda, delta_0 -> delta_0, delta_{g-2} -> -psi,
    delta_{g-1} -> delta_1, everything else (psi, delta_1..delta_{g-3})
    to zero."""
    m = _zero_matrix(4, g + 2)
    m[0][0] = Fraction(1)
    m[1][2 + g - 2] = Fraction(-1)
    m[2][2] = Fraction(1)
    m[3][2 + g - 1] = Fraction(1)
    return m


def tails_matrix(g: int) -> Matrix:
    """Pullback to the tails family, one row per eps_i (i = 2..g-2):
    lambda, psi, delta_0 -> 0; delta_i -> eps_i; and

        delta_1     -> -sum (g-i)(g-i-1) / ((g-1)(g-2)) eps_i,
        delta_{g-1} -> -sum (g-i)(i-1) / (g-2) eps_i.
    """
    if g < 5:
        raise ParameterError(f"tails family needs g >= 5; got g={g}")
    m = _zero_matrix(g - 3, g + 2)
    for i in range(2, g - 1):
        row = m[i - 2]
        row[2 + i] = Fraction(1)
        row[2 + 1] = Fraction(-(g - i) * (g - i - 1), (g - 1) * (g - 2))
        row[2 + g - 1] = Fraction(-(g - i) * (i - 1), g - 2)
    return m


def pencil_matrix(g: int) -> Matrix:
    """Degrees on the pencil families, one row per h = 1..g-1:
    deg lambda = 0, deg psi = 2h-1, deg delta_h = -1, deg delta_{g-h} = +1,
    all other boundary degrees zero (for h = g/2 the two contributions
    land on the same class and cancel)."""
    m = _zero_matrix(g - 1, g + 2)
    for h in range(1, g):
        row = m[h - 1]
        row[1] = Fraction(2 * h - 1)
        row[2 + h] += Fraction(-1)
        row[2 + g - h] += Fraction(1)
    return m


def _apply(m: Matrix, vec: Sequence[Fraction]) -> List[Fraction]:
    return [sum((a * x for a, x in zip(row, vec) if a), Fraction(0)) for row in m]


def pullbacks(
    g: int, dc: DivisorClass
) -> Tuple[M21Class, Tuple[Fraction, ...], Tuple[Fraction, ...]]:
    """Apply the three pullback tables to a divisor class.  Returns
    (bridge, tails, degrees): the class on the genus-2 base, the
    coefficients of eps_2..eps_{g-2} on the tails base, and the pencil
    degrees for h = 1..g-1."""
    if dc.g != g:
        raise ParameterError(f"class has genus {dc.g}, expected {g}")
    vec = dc.coefficients()
    bridge = M21Class(*_apply(bridge_matrix(g), vec))
    tails = tuple(_apply(tails_matrix(g), vec))
    degrees = tuple(_apply(pencil_matrix(g), vec))
    return bridge, tails, degrees


def bridge_pushforward(which: str, params: GrdParams) -> M21Class:
    """Pushforward of a, b or c over the bridge family, as a class on
    the genus-2 base.  With T = 2dN(d-2g+2)/(3(g-1)), U = dN/(g-1) and
    V = -N xi/(3(g-1)):

        a -> T (3 psi - lambda - delta_1) + U (lambda + delta_1 - 4 psi)
        b -> U (lambda + delta_1 - 4 psi)
        c -> V (3 psi - lambda - delta_1)
    """
    g, d, N = params.g, params.d, params.N
    U = Fraction(d * N, g - 1)
    if which == "b":
        return M21Class(U, -4 * U, Fraction(0), U)
    if which == "a":
        T = Fraction(2 * d * N * (d - 2 * g + 2), 3 * (g - 1))
        return M21Class(U - T, 3 * T - 4 * U, Fraction(0), U - T)
    if which == "c":
        V = Fraction(-params.N, 3 * (g - 1)) * params.xi
        return M21Class(-V, 3 * V, Fraction(0), -V)
    raise ParameterError(f"unknown tautological class {which!r}")


def pencil_degree(which: str, params: GrdParams, h: int) -> Fraction:
    """Degree of the pushforward of a, b or c over the pencil family of
    type h:  a -> -d^2 N;  b -> -(2(g-h)-1) d N;  c -> -(rh + r(r+1)/2) N."""
    g, r, d, N = params.g, params.r, params.d, params.N
    if not 1 <= h <= g - 1:
        raise ParameterError(f"pencil type needs 1 <= h <= g-1; got h={h}")
    if which == "a":
        return Fraction(-d * d * N)
    if which == "b":
        return Fraction(-(2 * (g - h) - 1) * d * N)
    if which == "c":
        return -(r * h + Fraction(r * (r + 1), 2)) * N
    raise ParameterError(f"unknown tautological class {which!r}")


# ---------------------------------------------------------------------------
# Check reports


@dataclass(frozen=True)
class CheckReport:
    """One verification result; serializes to
    {check, params, lhs, rhs, pass, detail}."""

    check: str
    params: Dict[str, object]
    lhs: str
    rhs: str
    passed: bool
    detail: str = ""

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


def _box_partitions(r: int, d: int) -> int:
    """Number of valid indices on G(r, P^d); used to gate the brute oracle."""
    return binomial(d + 1, r + 1)


# Keep brute-force cross-checks to Grassmannians whose full index set is
# of manageable size; the closed form is itself oracle-checked
# exhaustively on small specs, so nothing is lost on big ones.
_BRUTE_LIMIT = 2_000_000


def identity_castelnuovo(g: int, r: int, d: int, *, brute: bool = True) -> CheckReport:
    """The Castelnuovo count equals the integral of zeta^g, via the
    closed form and (when tractable) the brute-force Pieri oracle."""
    params = GrdParams(g, r, d)
    N = Fraction(params.N)
    spec = GrassmannianSpec(r, d)
    idx = make_index(spec, (0,) * (r + 1))
    closed = zeta_power_integral(spec, idx, g)
    values = {"closed": closed}
    if brute and _box_partitions(r, d) <= _BRUTE_LIMIT:
        values["brute"] = brute_zeta_integral(spec, idx, g)
    ok = all(v == N for v in values.values())
    detail = " ".join(f"{k}={v}" for k, v in values.items())
    return _report("castelnuovo", {"g": g, "r": r, "d": d}, closed, N, ok, detail)


def _pattern_integral(
    spec: GrassmannianSpec, b: Tuple[int, ...], k: int, *, brute: bool
) -> Tuple[Fraction, Optional[Fraction]]:
    """Integral of zeta^k against sigma_b, where an out-of-box pattern
    means the cycle vanishes and the integral is zero."""
    if b[-1] > spec.box:
        return Fraction(0), Fraction(0)
    idx = make_index(spec, b)
    closed = zeta_power_integral(spec, idx, k)
    br = None
    if brute and _box_partitions(spec.r, spec.d) <= _BRUTE_LIMIT:
        br = brute_zeta_integral(spec, idx, k)
    return closed, br


def identity_weierstrass_a(g: int, r: int, d: int) -> CheckReport:
    """Weierstrass-fiber identity for a:

        -2(g-2) * integral(sigma_{(1,2,3,...,3)} zeta^{g-3})
            = -2d(2g-2-d) N / (3(g-1)).
    """
    params = GrdParams(g, r, d)
    if g < 3:
        raise ParameterError(f"Weierstrass identity for a needs g >= 3; got g={g}")
    spec = GrassmannianSpec(r, d)
    b = (1, 2) + (3,) * (r - 1) if r >= 2 else (1, 2)
    closed, br = _pattern_integral(spec, b, g - 3, brute=True)
    lhs = -2 * (g - 2) * closed
    rhs = Fraction(-2 * d * (2 * g - 2 - d) * params.N, 3 * (g - 1))
    ok = lhs == rhs and (br is None or br == closed)
    detail = f"integral={closed}" + ("" if br is None else f" brute={br}")
    return _report("weierstrass_a", {"g": g, "r": r, "d": d}, lhs, rhs, ok, detail)


def identity_weierstrass_c(g: int, r: int, d: int) -> CheckReport:
    """Weierstrass-fiber identity for c:

        -( integral(sigma_{(0,1,2,...,2,3)} zeta^{g-2}) + N )
            = -xi N / (3(g-1)).
    """
    params = GrdParams(g, r, d)
    if g < 3 or r < 2:
        raise ParameterError(
            f"Weierstrass identity for c needs g >= 3 and r >= 2; got g={g}, r={r}"
        )
    spec = GrassmannianSpec(r, d)
    b = (0, 1) + (2,) * (r - 2) + (3,)
    closed, br = _pattern_integral(spec, b, g - 2, brute=True)
    lhs = -(closed + params.N)
    rhs = Fraction(-params.N, 3 * (g - 1)) * params.xi
    ok = lhs == rhs and (br is None or br == closed)
    detail = f"integral={closed}" + ("" if br is None else f" brute={br}")
    return _report("weierstrass_c", {"g": g, "r": r, "d": d}, lhs, rhs, ok, detail)


def identity_pieri(g: int, r: int, d: int) -> CheckReport:
    """Pieri bookkeeping used at the Weierstrass fiber:

    (i)  zeta * (single box) = sigma_{(1,...,1)} + sigma_{(0,1,...,1,2)};
    (ii) the full shift of sigma_{(0,1,2,...,2)} is sigma_{(1,2,3,...,3)}
         (the zero class when the target overflows the box).
    """
    if r < 2:
        raise ParameterError(f"Pieri identity check needs r >= 2; got r={r}")
    spec = GrassmannianSpec(r, d)

    got1 = pieri_ek(zeta(spec), 1)
    expected1 = schubert_class(spec, (1,) * (r + 1))
    if spec.box >= 2:
        expected1 = expected1 + schubert_class(spec, (0,) + (1,) * (r - 1) + (2,))
    ok1 = got1 == expected1

    start = schubert_class(spec, (0, 1) + (2,) * (r - 1))
    shifted = pieri_ek(start, r + 1)
    target = (1, 2) + (3,) * (r - 1)
    if target[-1] <= spec.box:
        expected2 = schubert_class(spec, target)
    else:
        expected2 = zero_class(spec, start.codim + r + 1)
    ok2 = shifted == expected2

    return _report(
        "pieri",
        {"g": g, "r": r, "d": d},
        f"h·ζ = {got1}; shift = {shifted}",
        f"{expected1}; {expected2}",
        ok1 and ok2,
    )


def aspect_counts(g: int, r: int, d: int) -> Tuple[Fraction, Fraction]:
    """The two families of aspects compatible with a maximally ramified
    series at the Weierstrass point, counted with multiplicity:

        ((2g-2-d) N / (2(g-1)),  d N / (2(g-1))),

    summing to N."""
    params = GrdParams(g, r, d)
    N = params.N
    return (
        Fraction((2 * g - 2 - d) * N, 2 * (g - 1)),
        Fraction(d * N, 2 * (g - 1)),
    )


def _aspect_ramification(r: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Ramification indices dual to the two printed vanishing sequences.

    The compatible aspect on the opposite component has vanishing
    c_i = d - a_{r-i} and ramification b_i = c_i - i, which works out to
    the fixed patterns (0,2,...,2) and (1,1,2,...,2) independent of d.
    """
    b1 = (0,) + (2,) * r
    b2 = (1, 1) + (2,) * (r - 1) if r >= 2 else (1, 1)
    return b1, b2


def aspect_report(g: int, r: int, d: int) -> CheckReport:
    """Aspect counts: their sum must be N, and each count must equal the
    matching Schubert integral of zeta^{g-2} against the dual
    ramification index.  Integrality of the individual counts is only
    recorded, never asserted (the counts carry multiplicities)."""
    params = GrdParams(g, r, d)
    n1, n2 = aspect_counts(g, r, d)
    N = params.N
    spec = GrassmannianSpec(r, d)
    b1, b2 = _aspect_ramification(r)
    s1, _ = _pattern_integral(spec, b1, g - 2, brute=False)
    s2, _ = _pattern_integral(spec, b2, g - 2, brute=False)
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


def epsilon_matrix(g: int) -> Tuple[Tuple[Tuple[int, ...], ...], bool]:
    """Intersection matrix of the tails-family boundary classes eps_i
    (columns, i = 2..g-2) with the standard test curves (rows,
    j = 1..g-3), plus its nonsingularity verdict:

        row 1:            (g-1, 0, ..., 0)
        rows 2 <= j <= g-4: -1 at column j-1, 1 at column j,
                            g-1-j in the last column
        row g-3:          (0, ..., 0, -1, 2)
    """
    if g < 5:
        raise ParameterError(f"epsilon matrix needs g >= 5; got g={g}")
    n = g - 3
    m = [[0] * n for _ in range(n)]
    m[0][0] = g - 1
    for j in range(2, n):  # rows j = 2..g-4, 1-based
        m[j - 1][j - 2] = -1
        m[j - 1][j - 1] = 1
        m[j - 1][n - 1] = g - 1 - j
    if n >= 2:
        m[n - 1][n - 2] = -1
        m[n - 1][n - 1] = 2
    frozen = tuple(tuple(row) for row in m)
    return frozen, matrix_determinant(frozen) != 0


def _forward_eliminate(a: Matrix, ncols: int) -> Tuple[List[int], Fraction]:
    """Reduce the rows of ``a`` in place to row echelon form over their
    first ``ncols`` columns; entries past ``ncols`` (a right-hand side)
    are carried along.

    For each column the pivot is the first remaining row with a nonzero
    entry, and only the nonzero entries of the pivot row are subtracted
    from the rows below it that are nonzero in that column, so the
    sparse test-family systems stay cheap.  Returns the pivot columns and
    the signed product of the pivots, or 0 when some column has no pivot:
    the determinant when ``a`` is square.
    """
    nrows = len(a)
    pivots: List[int] = []
    det = Fraction(1)
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((i for i in range(rank, nrows) if a[i][col] != 0), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            det = -det
        prow = a[rank]
        det *= prow[col]
        inv = 1 / prow[col]
        tail = [(j, x) for j, x in enumerate(prow[col + 1 :], col + 1) if x != 0]
        for row in a[rank + 1 :]:
            if row[col] != 0:
                f = row[col] * inv
                row[col] = Fraction(0)
                for j, x in tail:
                    row[j] -= f * x
        pivots.append(col)
    return pivots, det


def matrix_determinant(m: Sequence[Sequence[int | Fraction]]) -> Fraction:
    """Exact determinant of a square matrix."""
    a = [[Fraction(x) for x in row] for row in m]
    return _forward_eliminate(a, len(a))[1]


def _solve_unique(rows: Matrix, rhs: List[Fraction]) -> List[Fraction]:
    """Solve an (over-determined) exact linear system requiring a unique
    solution; raises ReconstructionError when singular or inconsistent."""
    ncols = len(rows[0])
    m = [row[:] + [b] for row, b in zip(rows, rhs)]
    pivots, _ = _forward_eliminate(m, ncols)
    rank = len(pivots)
    if any(row[ncols] != 0 for row in m[rank:]):
        raise ReconstructionError("linear system is inconsistent")
    if rank < ncols:
        raise ReconstructionError(
            f"linear system is underdetermined (rank {rank} < {ncols} unknowns)"
        )
    # Full column rank: row i pivots on column i.
    sol = [Fraction(0)] * ncols
    for i in reversed(range(ncols)):
        row = m[i]
        known = sum((row[j] * sol[j] for j in range(i + 1, ncols) if row[j]), Fraction(0))
        sol[i] = (row[ncols] - known) / row[i]
    return sol


def reconstruct(g: int, r: int, d: int, which: str) -> DivisorClass:
    """Re-derive the pushforward of a, b or c from the special-family
    data alone, bypassing the closed-form coefficients.

    The unknowns are the class coordinates lambda, delta_0..delta_{g-1},
    psi, and one more scalar mu.  Every row of a pullback table acts on
    (lambda, psi, delta_*); moving its psi entry to the end and appending
    a mu coefficient makes it a row of the system:

    * for each pencil type h: the pencil degree of the class;
    * for each tails class eps_i: the pullback of the class vanishes,
      one equation per eps_i coefficient;
    * the bridge pullback plus mu times the relation
      10 lambda - delta_0 - 2 delta_1 equals the known genus-2 class.

    psi comes after the deltas because it sits in every pencil row:
    pivoting on it early would copy the first pencil row's delta entries
    into every other pencil row, while as the last class column it only
    rides along.  The solution must be unique; it is returned as a
    DivisorClass.
    """
    if which not in ("a", "b", "c"):
        raise ParameterError(f"unknown tautological class {which!r}")
    params = GrdParams(g, r, d)
    if g < 5:
        raise ParameterError(f"reconstruction needs g >= 5; got g={g}")

    zero = Fraction(0)
    bridge_target = bridge_pushforward(which, params).as_tuple()
    pencils = enumerate(pencil_matrix(g), start=1)
    system = (
        [(row, zero, pencil_degree(which, params, h)) for h, row in pencils]
        + [(row, zero, zero) for row in tails_matrix(g)]
        + list(zip(bridge_matrix(g), _RELATION, bridge_target))
    )
    rows = [[row[0], *row[2:], row[1], mu] for row, mu, _ in system]
    rhs = [target for _, _, target in system]

    sol = _solve_unique(rows, rhs)
    return DivisorClass(sol[0], sol[g + 1], tuple(sol[1 : g + 1]))


# ---------------------------------------------------------------------------
# Verification suites


def _oracle_spec_report(r: int, d: int) -> CheckReport:
    """Exhaustive closed-form vs brute-force comparison over every
    dimension-balanced (b, k) on G(r, P^d)."""
    spec = GrassmannianSpec(r, d)
    checked = 0
    for idx, k in balanced_pairs(spec):
        closed = zeta_power_integral(spec, idx, k)
        brute = brute_zeta_integral(spec, idx, k)
        if closed != brute:
            return _report(
                "schubert_oracle",
                {"r": r, "d": d},
                f"closed({idx.b},k={k})={closed}",
                f"brute={brute}",
                False,
            )
        checked += 1
    return _report(
        "schubert_oracle", {"r": r, "d": d}, checked, checked, True, f"{checked} pairs"
    )


def _reconstruct_report(params: GrdParams, which: str, expected: DivisorClass) -> CheckReport:
    g, r, d = params.g, params.r, params.d
    try:
        got = reconstruct(g, r, d, which)
    except ReconstructionError as exc:
        return _report("reconstruct", {"g": g, "r": r, "d": d, "class": which}, "-", "-", False, str(exc))
    ok = got == expected
    detail = "matches closed form"
    names = ["λ", "ψ"] + [f"δ{i}" for i in range(g)]
    for name, x, y in zip(names, got.coefficients(), expected.coefficients()):
        if x != y:
            detail = f"first mismatch at {name}: reconstructed {x}, closed form {y}"
            break
    return _report(
        "reconstruct",
        {"g": g, "r": r, "d": d, "class": which},
        f"λ={got.lam}, δ0={got.delta0}, ψ={got.psi}",
        f"λ={expected.lam}, δ0={expected.delta0}, ψ={expected.psi}",
        ok,
        detail,
    )


def _epsilon_report(g_lo: int, g_hi: int) -> CheckReport:
    bad = [g for g in range(g_lo, g_hi + 1) if not epsilon_matrix(g)[1]]
    return _report(
        "epsilon_nonsingular",
        {"g_min": g_lo, "g_max": g_hi},
        "singular at " + ",".join(map(str, bad)) if bad else "nonsingular",
        "nonsingular",
        not bad,
    )


def _bridge_quotient_report(params: GrdParams, which: str, dc: DivisorClass) -> CheckReport:
    """The bridge pullback of the pushforward differs from the known
    genus-2 class by an exact multiple of the relation."""
    got, _, _ = pullbacks(params.g, dc)
    want = bridge_pushforward(which, params)
    mu = got.relation_multiple(want)
    return _report(
        "bridge_quotient",
        {"g": params.g, "r": params.r, "d": params.d, "class": which},
        str(got),
        str(want),
        mu is not None,
        f"multiple={mu}" if mu is not None else "not proportional to relation",
    )


def _gp_symmetry_report(r: int, s: int) -> CheckReport:
    rep = slope_report(FamilyParams.gp(r, s))
    closed = gp_slope_closed(r, s)
    mirrored = gp_slope_closed(s, r)
    ok = rep.slope == closed == mirrored
    return _report(
        "gp_slope",
        {"r": r, "s": s},
        rep.slope,
        closed,
        ok,
        f"mirror={mirrored}",
    )


def _syzygy_slope_report(i: int, s: int) -> CheckReport:
    rep = slope_report(FamilyParams.syzygy(i, s))
    closed = syzygy_slope_closed(i, s)
    ok = abs(rep.slope) == abs(closed)
    return _report("syzygy_slope", {"i": i, "s": s}, rep.slope, closed, ok)


def _structure_report(family: str, first: int, s: int) -> CheckReport:
    """psi vanishes for every family pushforward; the quadric-type
    instances (syzygy i = 0 and the matching hypersurface) are in
    addition symmetric in delta_i <-> delta_{g-i}."""
    if family == "gp":
        fp = FamilyParams.gp(first, s)
        want_sym = False
    elif family == "syzygy":
        fp = FamilyParams.syzygy(first, s)
        want_sym = first == 0
    else:
        fp = FamilyParams.hypersurface(first, s, 2)
        want_sym = first == 2 * s + 2
    rep = slope_report(fp)
    pf = rep.pushforward
    ok = pf.psi == 0 and (not want_sym or pf.is_delta_symmetric())
    combos_ok = True
    if family == "hypersurface" and first == 2 * s + 2:
        combos_ok = hypersurface_combo(first, s, 2) == syzygy_combo(0, s)
        ok = ok and combos_ok
    return _report(
        "structure",
        {"family": family, "first": first, "s": s},
        f"psi={pf.psi}, symmetric={pf.is_delta_symmetric()}",
        f"psi=0, symmetric required={want_sym}",
        ok,
        "hyper(k=2) == syzygy(0)" if family == "hypersurface" and first == 2 * s + 2 else "",
    )


DEFAULT_RECONSTRUCT_TRIPLES = ((6, 2, 6), (8, 3, 9), (10, 4, 12), (21, 6, 24))

SUITES = ("schubert-oracle", "castelnuovo", "weierstrass", "pieri", "reconstruct", "symmetry")


def suite_reports(
    suite: str,
    *,
    max_g: int = 12,
    r_max: int = 3,
    d_max: int = 15,
    triples: Optional[Sequence[Tuple[int, int, int]]] = None,
) -> List[CheckReport]:
    """Run one named verification suite (or 'all') and return its
    reports in deterministic order."""
    if suite != "all" and suite not in SUITES:
        raise ParameterError(f"unknown verification suite {suite!r}")
    out: List[CheckReport] = []
    for name in SUITES if suite == "all" else (suite,):
        if name == "castelnuovo":
            for g, r, d in rho_zero_triples(max_g):
                out.append(identity_castelnuovo(g, r, d))
        elif name == "weierstrass":
            for g, r, d in rho_zero_triples(max_g):
                if g >= 3:
                    out.append(identity_weierstrass_a(g, r, d))
                if g >= 3 and r >= 2:
                    out.append(identity_weierstrass_c(g, r, d))
                out.append(aspect_report(g, r, d))
        elif name == "pieri":
            for g, r, d in rho_zero_triples(max_g):
                if r >= 2:
                    out.append(identity_pieri(g, r, d))
        elif name == "schubert-oracle":
            for r in range(1, r_max + 1):
                for d in range(r, d_max + 1):
                    out.append(_oracle_spec_report(r, d))
        elif name == "reconstruct":
            for g, r, d in triples or DEFAULT_RECONSTRUCT_TRIPLES:
                params = GrdParams(g, r, d)
                pushed = {which: push(which, params) for which in "abc"}
                for which, dc in pushed.items():
                    out.append(_reconstruct_report(params, which, dc))
                for which, dc in pushed.items():
                    out.append(_bridge_quotient_report(params, which, dc))
            out.append(_epsilon_report(5, 30))
        else:  # symmetry
            for r in range(1, 5):
                for s in range(1, 5):
                    out.append(_gp_symmetry_report(r, s))
            for i in (0, 1, 3):
                for s in (1, 2, 3):
                    out.append(_syzygy_slope_report(i, s))
            for r in range(1, 5):
                for s in range(1, 5):
                    out.append(_structure_report("gp", r, s))
            for i in (0, 1, 3):
                for s in (1, 2, 3):
                    out.append(_structure_report("syzygy", i, s))
            for s in range(1, 5):
                out.append(_structure_report("hypersurface", 2 * s + 2, s))
                out.append(_structure_report("hypersurface", 1, s))
    return out
