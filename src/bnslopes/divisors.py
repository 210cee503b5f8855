"""Divisor families on the space of linear series and their slopes.

With r, s >= 1 the parameterization g = (r+1)(s+1), d = r(s+2) runs
through Brill-Noether triples with rho = 0.  Three degeneracy-locus
families are assembled here as tautological combinations (p_a, p_b,
p_c, p_lam), pushed forward, and reduced to slopes:

* Gieseker-Petri: the locus where multiplication of sections of the
  series with sections of its Serre dual fails to be an isomorphism;
  class (r+1)/2 (-a + b) + (d+1-g) c - r lambda.

* Hypersurface: series whose image lies on a degree-k hypersurface;
  class (k^2/2) a - (k/2) b - C(r+k, k-1) c + lambda, defined when the
  two section spaces match up: C(r+k, k) = kd - g + 1.

* Syzygy: series failing the i-th Green property, with r tied to s by
  r = (i+2)s + 2(i+1); the four coefficients are binomial expressions
  in (r, i) recorded in :func:`syzygy_combo`.

The slope of a pushforward a·lambda - b0·delta_0 - ... on the
irreducible-nodal locus is a/b0; only the lambda and delta_0
coefficients enter, which is justified by the vanishing of the psi
coefficient for every family here.  Since N scales every coefficient
and cancels in a/b0, :func:`slope_report` forms the slope from the
integer numerators of the N-free lambda and delta_0 alone (O(1)
operations per instance, not O(g) operations on g-digit numbers); the
full pushforward of a :class:`SlopeReport` is computed on each read.

:data:`FAMILIES`, the one list of families that ``slope --family`` reads,
maps each name to its grid axes, its constructor and its combo.

Closed-form slope polynomials exist as oracles for the Gieseker-Petri
family (:func:`gp_slope_closed`) and the syzygy family
(:func:`syzygy_slope_closed`).  No closed form is tabulated for
hypersurface slopes with k >= 3: there the pipeline value stands alone.
(For k = 2 the hypersurface condition with r = 2s+2 is the 0-th syzygy
condition, so that oracle applies.)
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Dict, Tuple

from .numeric import binomial
from .record import Record
from .tautpush import (
    DivisorClass,
    GrdParams,
    ParameterError,
    TautCombo,
    per_N_numerators,
    push_combo,
)

__all__ = [
    "FAMILIES",
    "Family",
    "FamilyParams",
    "SlopeReport",
    "SlopeUndefinedError",
    "family_combo",
    "gp_combo",
    "gp_slope_closed",
    "hypersurface_combo",
    "slope",
    "slope_bound",
    "slope_report",
    "syzygy_combo",
    "syzygy_slope_closed",
]

def _family_grd(r: int, s: int) -> Tuple[int, int]:
    """g = (r+1)(s+1), d = r(s+2); rho vanishes automatically."""
    g = (r + 1) * (s + 1)
    d = r * (s + 2)
    return g, d


def _gp_check(r: int, s: int) -> None:
    if r < 1 or s < 1:
        raise ParameterError(f"Gieseker-Petri family needs r, s >= 1; got r={r}, s={s}")


def gp_combo(r: int, s: int) -> TautCombo:
    """Gieseker-Petri class (r+1)/2 (-a+b) + (d+1-g) c - r lambda."""
    _gp_check(r, s)
    g, d = _family_grd(r, s)
    half = Fraction(r + 1, 2)
    return TautCombo.of(-half, half, d + 1 - g, -r)


def _hypersurface_check(r: int, s: int, k: int) -> None:
    if r < 1 or s < 1 or k < 1:
        raise ParameterError(
            f"hypersurface family needs r, s, k >= 1; got r={r}, s={s}, k={k}"
        )
    g, d = _family_grd(r, s)
    lhs = binomial(r + k, k)
    rhs = k * d - g + 1
    if lhs != rhs:
        raise ParameterError(
            f"hypersurface rank balance fails at (r={r}, s={s}, k={k}): "
            f"C(r+k,k) = {lhs} but kd - g + 1 = {rhs}"
        )


def hypersurface_combo(r: int, s: int, k: int) -> TautCombo:
    """Degree-k hypersurface class (k^2/2) a - (k/2) b - C(r+k,k-1) c + lambda.

    Defined only when the source and target of the restriction map have
    equal rank: C(r+k, k) = kd - g + 1.
    """
    _hypersurface_check(r, s, k)
    return TautCombo.of(Fraction(k * k, 2), Fraction(-k, 2), -binomial(r + k, k - 1), 1)


def _syzygy_check(i: int, s: int) -> None:
    if i < 0 or s < 0:
        raise ParameterError(f"syzygy family needs i, s >= 0; got i={i}, s={s}")


def syzygy_combo(i: int, s: int) -> TautCombo:
    """Class of the locus failing the i-th Green property, at
    r = (i+2)s + 2(i+1).

    All four coefficients are binomial expressions; the zero convention
    C(n, k<0) = 0 makes them total in i (at i = 0 only the leading terms
    survive and the combo collapses to (2, -1, -(r+2), 1))."""
    _syzygy_check(i, s)
    r = (i + 2) * s + 2 * (i + 1)
    g, d = _family_grd(r, s)
    p_a = (
        2 * binomial(r, i)
        - 2 * binomial(r - 1, i - 1)
        + Fraction(binomial(r - 2, i - 2), 2)
        - Fraction(binomial(r - 2, i - 1), 2)
    )
    p_b = -binomial(r, i) + Fraction(binomial(r - 1, i - 1), 2)
    p_c = (
        -(r + 2) * binomial(r, i)
        + (2 * d + 1 - g) * binomial(r - 1, i - 1)
        - d * binomial(r - 2, i - 2)
    )
    return TautCombo.of(p_a, p_b, p_c, binomial(r, i))


class SlopeUndefinedError(ValueError):
    """Raised when a class has no slope on the irreducible-nodal locus;
    carries the offending lambda and delta_0 coefficients."""

    def __init__(self, lam: Fraction, delta0: Fraction):
        self.lam = lam
        self.delta0 = delta0
        super().__init__(
            f"slope undefined: need nonzero lambda and delta_0 coefficients of "
            f"opposite sign, got lambda = {lam}, delta_0 = {delta0}"
        )


def _slope(lam: int | Fraction, delta0: int | Fraction, L: int = 1, grd: GrdParams | None = None) -> Fraction:
    """-lam/delta0 for coefficients that are nonzero and of opposite sign.
    They may be the numerators over L > 0 of N-free coefficients at
    ``grd``; an error reports N·lam/L and N·delta0/L, reading N then."""
    if lam == 0 or delta0 == 0 or (lam > 0) == (delta0 > 0):
        N = 1 if grd is None else grd.N
        raise SlopeUndefinedError(Fraction(lam * N, L), Fraction(delta0 * N, L))
    return Fraction(-lam, delta0)


def slope(dc: DivisorClass) -> Fraction:
    """Slope -lambda/delta_0 of a class whose lambda and delta_0
    coefficients are nonzero and of opposite sign."""
    return _slope(dc.lam, dc.delta[0])


def slope_bound(g: int) -> Fraction:
    """The classical slope bound 6 + 12/(g+1)."""
    return 6 + Fraction(12, g + 1)


def gp_slope_closed(r: int, s: int) -> Fraction:
    """Closed form for the Gieseker-Petri slope, in the symmetric
    variables x = (r+1)+(s+1), y = (r+1)(s+1):

        6 (2x + 7y^2 + 7xy + xy^2 + 12y + y^3) / (y (4+y) (y+1+x))
    """
    _gp_check(r, s)
    x = (r + 1) + (s + 1)
    y = (r + 1) * (s + 1)
    num = 6 * (2 * x + 7 * y * y + 7 * x * y + x * y * y + 12 * y + y**3)
    den = y * (4 + y) * (y + 1 + x)
    return Fraction(num, den)


def _syzygy_f(i: int, t: int) -> int:
    return (
        (24 * i**2 + i**4 + 16 + 32 * i + 8 * i**3) * t**7
        + (4 * i**3 + i**4 - 16 * i - 16) * t**6
        + (-13 * i**2 - 7 * i**3 + 12 - i**4) * t**5
        + (-(i**2) - 14 * i - i**4 - 24 - 2 * i**3) * t**4
        + (2 * i**2 + 2 * i**3 - 6 * i - 4) * t**3
        + (17 * i**2 + i**3 + 50 * i + 41) * t**2
        + (7 * i**2 + 9 + 18 * i) * t
        + 2
        + 2 * i
    )


def _syzygy_g(i: int, t: int) -> int:
    return (
        (12 * i + i**3 + 8 + 6 * i**2) * t**6
        + (-4 * i + i**3 - 8 + 2 * i**2) * t**5
        + (-2 - 11 * i - i**3 - 7 * i**2) * t**4
        + (-(i**3) + 5 * i) * t**3
        + (5 * i + 1 + 4 * i**2) * t**2
        + (7 * i + 11 + i**2) * t
        + 2
        + 4 * i
    )


def syzygy_slope_closed(i: int, s: int) -> Fraction:
    """Closed-form syzygy slope 6 f(i,t) / (t (i+2) g(i,t)), t = s+1,
    carrying the customary sign (negative for i < 2).

    The coefficient polynomials f and g are as classically tabulated.
    Statements of this formula sometimes carry i-2 instead of i+2 in the
    denominator; that variant agrees with the divisor-class pipeline
    only at i = 0, and there only up to sign, so the pipeline-consistent
    constant i+2 is used for the magnitude while the sign keeps the
    (i-2)-flavored convention: negative below i = 2, positive above.
    The formula is not provided at the i = 2 pole.
    """
    if i == 2:
        raise ParameterError("syzygy slope closed form has a pole at i = 2")
    _syzygy_check(i, s)
    t = s + 1
    value = Fraction(6 * _syzygy_f(i, t), t * (i + 2) * _syzygy_g(i, t))
    return -value if i < 2 else value


class FamilyParams(Record):
    """A single divisor-family instance: which family, its (r, s), and
    the extra index (k for hypersurface, i for syzygy).  Instances order
    by (family, r, s, extra), the row order of slope tables."""

    __slots__ = _fields = ("family", "r", "s", "extra")

    def __lt__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) < self._key(other)

    @classmethod
    def gp(cls, r: int, s: int) -> "FamilyParams":
        _gp_check(r, s)
        return cls("gp", r, s, None)

    @classmethod
    def hypersurface(cls, r: int, s: int, k: int) -> "FamilyParams":
        _hypersurface_check(r, s, k)
        return cls("hypersurface", r, s, k)

    @classmethod
    def syzygy(cls, i: int, s: int) -> "FamilyParams":
        _syzygy_check(i, s)
        return cls("syzygy", (i + 2) * s + 2 * (i + 1), s, i)

    @property
    def g(self) -> int:
        return (self.r + 1) * (self.s + 1)

    @property
    def d(self) -> int:
        return self.r * (self.s + 2)


class Family(Record):
    """A divisor family: ``axes``, its grid axes in constructor order (a
    tuple of str); ``make``, its constructor, called with one int per
    axis and returning a :class:`FamilyParams`; and ``combo``, a callable
    from an instance's :class:`FamilyParams` to its :class:`TautCombo`."""

    __slots__ = _fields = ("axes", "make", "combo")


# The one list of families: ``slope --family`` takes its names and axes from it.
FAMILIES = {
    "gp": Family(("r", "s"), FamilyParams.gp, lambda p: gp_combo(p.r, p.s)),
    "hypersurface": Family(("r", "s", "k"), FamilyParams.hypersurface, lambda p: hypersurface_combo(p.r, p.s, p.extra)),
    "syzygy": Family(("i", "s"), FamilyParams.syzygy, lambda p: syzygy_combo(p.extra, p.s)),
}


def family_combo(params: FamilyParams) -> TautCombo:
    if params.family not in FAMILIES:
        raise ParameterError(f"unknown family {params.family!r}")
    return FAMILIES[params.family].combo(params)


class SlopeReport(Record):
    """Slope of one family instance, with the slope bound 6 + 12/(g+1),
    the strict below-bound verdict and, computed on each read, the
    pushforward.  r, g, d and N are read from ``grd``."""

    __slots__ = _fields = ("family", "s", "extra", "slope", "bound", "below_bound", "combo", "grd")
    r, g, d, N = (property(attrgetter("grd." + name)) for name in ("r", "g", "d", "N"))

    @property
    def pushforward(self) -> DivisorClass:
        return push_combo(self.combo, self.grd)

    def row(self) -> Dict[str, object]:
        """The flat schema shared by the JSON and CSV emitters:
        family, r, s, extra, g, d, N, slope, bound, below_bound."""
        return {
            "family": self.family,
            "r": self.r,
            "s": self.s,
            "extra": "" if self.extra is None else self.extra,
            "g": self.g,
            "d": self.d,
            "N": str(self.N),
            "slope": str(self.slope),
            "bound": str(self.bound),
            "below_bound": self.below_bound,
        }


def slope_report(params: FamilyParams) -> SlopeReport:
    """Run the pipeline for one family instance: combo, slope, bound
    comparison.  The slope is -lambda/delta_0 of two integer numerators,
    those of the N-free lambda and delta_0 coefficients over one common
    denominator L; N and L cancel in it.  This is O(1) work, and N is
    computed only for the text of an undefined slope; the report's N
    and full pushforward are computed on each read."""
    combo = family_combo(params)
    grd = GrdParams(params.g, params.r, params.d)
    L, ints = per_N_numerators(combo, grd)
    lam, _, delta0 = next(ints), next(ints), next(ints)
    sl = _slope(lam, delta0, L, grd)
    bound = slope_bound(params.g)
    return SlopeReport(params.family, params.s, params.extra, sl, bound, sl < bound, combo, grd)
