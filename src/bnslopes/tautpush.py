"""Pushforwards of tautological divisor classes from the moduli space of
linear series to the pointed moduli space of stable curves.

For a triple (g, r, d) with Brill-Noether number rho = 0, the space of
g^r_d's maps generically finitely (with Castelnuovo degree N) to the
moduli of one-pointed genus-g curves, whose rational Picard group has
basis lambda, delta_0, delta_1, ..., delta_{g-1}, psi.  Here delta_0 is
the irreducible-nodal class and delta_i (i >= 1) carries the marked
point on the genus-i component.

The three tautological classes upstairs are

    a = pushforward of c_1(L)^2 over the universal curve,
    b = pushforward of c_1(L).c_1(omega),
    c = c_1 of the bundle of sections V,

and :func:`push_a`, :func:`push_b`, :func:`push_c` return their images
downstairs as exact :class:`DivisorClass` vectors.  The formulas are
kept in their prefactored display shape (a stated prefactor times an
integer-coefficient bracket) and divided symbolically, so each line can
be audited term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Tuple

from .numeric import factorial, superfactorial

__all__ = [
    "DivisorClass",
    "GrdParams",
    "ParameterError",
    "TautCombo",
    "castelnuovo_N",
    "push",
    "push_a",
    "push_b",
    "push_c",
    "push_combo",
    "rho",
    "rho_zero_triples",
    "xi",
]


class ParameterError(ValueError):
    """A (g, r, d) or family parameter violated a precondition."""


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number rho = g - (r+1)(g-d+r)."""
    return g - (r + 1) * (g - d + r)


def castelnuovo_N(g: int, r: int, d: int) -> int:
    """Number of g^r_d's on a general genus-g curve when rho = 0:

        N = 1! 2! ... r! g! / ((g-d+r)! (g-d+r+1)! ... (g-d+2r)!)
    """
    if rho(g, r, d) != 0:
        raise ParameterError(
            f"Castelnuovo count needs rho = 0; rho({g},{r},{d}) = {rho(g, r, d)}"
        )
    if g - d + r < 0:
        raise ParameterError(f"need g-d+r >= 0; got {g - d + r}")
    num = superfactorial(r) * factorial(g)
    den = 1
    for j in range(r + 1):
        den *= factorial(g - d + r + j)
    n, rem = divmod(num, den)
    assert rem == 0
    return n


def xi(g: int, r: int, d: int) -> Fraction:
    """The rational quantity

        xi = 3(g-1) + (r-1)(g+r+1)(3g-2d+r-3) / (g-d+2r+1)

    entering the pushforward of c.  (The same quantity appears both in
    the statement of the pushforward formulas and in the genus-2 test
    family computations; they are one and the same.)
    """
    den = g - d + 2 * r + 1
    if den == 0:
        raise ParameterError(f"xi has vanishing denominator g-d+2r+1 at ({g},{r},{d})")
    return 3 * (g - 1) + Fraction((r - 1) * (g + r + 1) * (3 * g - 2 * d + r - 3), den)


@dataclass(frozen=True)
class GrdParams:
    """A Brill-Noether triple (g, r, d) with rho = 0 and its derived
    quantities; N is computed on first use and kept."""

    g: int
    r: int
    d: int

    def __post_init__(self) -> None:
        if self.g < 1 or self.r < 0 or self.d < 0:
            raise ParameterError(f"need g >= 1 and r, d >= 0; got {self}")
        if self.rho != 0:
            raise ParameterError(f"rho({self.g},{self.r},{self.d}) = {self.rho} != 0")

    @property
    def rho(self) -> int:
        return rho(self.g, self.r, self.d)

    @cached_property
    def N(self) -> int:
        return castelnuovo_N(self.g, self.r, self.d)

    @property
    def xi(self) -> Fraction:
        return xi(self.g, self.r, self.d)

    def __str__(self) -> str:
        return f"(g,r,d)=({self.g},{self.r},{self.d})"


@dataclass(frozen=True)
class DivisorClass:
    """Exact divisor class in the basis lambda, psi, delta_0..delta_{g-1}.

    ``delta`` always has length g, zeros included, so classes can be fed
    to the pullback tables and the reconstruction solver coordinatewise.
    """

    lam: Fraction
    psi: Fraction
    delta: Tuple[Fraction, ...]

    @property
    def g(self) -> int:
        return len(self.delta)

    @property
    def delta0(self) -> Fraction:
        return self.delta[0]

    def _check(self, other: "DivisorClass") -> None:
        if self.g != other.g:
            raise ParameterError(f"cannot mix genus {self.g} and genus {other.g} classes")

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        self._check(other)
        return DivisorClass(
            self.lam + other.lam,
            self.psi + other.psi,
            tuple(x + y for x, y in zip(self.delta, other.delta)),
        )

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + (-1) * other

    def __mul__(self, scalar) -> "DivisorClass":
        q = Fraction(scalar)
        return DivisorClass(q * self.lam, q * self.psi, tuple(q * x for x in self.delta))

    __rmul__ = __mul__

    def __neg__(self) -> "DivisorClass":
        return (-1) * self

    def coefficients(self) -> Tuple[Fraction, ...]:
        """Coordinates in the fixed order (lambda, psi, delta_0..delta_{g-1})."""
        return (self.lam, self.psi) + self.delta

    def is_delta_symmetric(self) -> bool:
        """Whether delta_i = delta_{g-i} for all 1 <= i <= g-1."""
        g = self.g
        return all(self.delta[i] == self.delta[g - i] for i in range(1, g))

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "lambda": str(self.lam),
            "psi": str(self.psi),
            "delta": [str(x) for x in self.delta],
        }

    @classmethod
    def from_json_dict(cls, obj: Dict[str, object]) -> "DivisorClass":
        return cls(
            Fraction(obj["lambda"]),
            Fraction(obj["psi"]),
            tuple(Fraction(x) for x in obj["delta"]),
        )

    def __str__(self) -> str:
        parts = [f"{self.lam}·λ"]
        if self.psi:
            parts.append(f"{self.psi}·ψ")
        for i, x in enumerate(self.delta):
            if x:
                parts.append(f"{x}·δ{i}")
        return " + ".join(parts)


def push_a(params: GrdParams) -> DivisorClass:
    """Pushforward of a, as the stated prefactor times its bracket:

        (d N / (6(g-1)(g-2))) * [ 6(gd - 2g^2 + 8d - 8g + 4) lambda
                                  + (2g^2 - gd + 3g - 4d - 2) delta_0
                                  + 6 sum_i (g-i)(gd + 2ig - 2id - 2d) delta_i
                                  - 6d(g-2) psi ]
    """
    g, d = params.g, params.d
    if g < 3:
        raise ParameterError(f"pushforward of a needs g >= 3 ((g-1)(g-2) vanishes at g={g})")
    pre = Fraction(d * params.N, 6 * (g - 1) * (g - 2))
    lam = 6 * (g * d - 2 * g * g + 8 * d - 8 * g + 4)
    deltas = [2 * g * g - g * d + 3 * g - 4 * d - 2]
    deltas += [
        6 * (g - i) * (g * d + 2 * i * g - 2 * i * d - 2 * d) for i in range(1, g)
    ]
    psi = -6 * d * (g - 2)
    return DivisorClass(pre * lam, pre * psi, tuple(pre * x for x in deltas))


def push_b(params: GrdParams) -> DivisorClass:
    """Pushforward of b:

        (d N / (2(g-1))) * [ 12 lambda - delta_0
                             + 4 sum_i (g-i)(g-i-1) delta_i - 2(g-1) psi ]
    """
    g, d = params.g, params.d
    if g < 2:
        raise ParameterError(f"pushforward of b needs g >= 2 ((g-1) vanishes at g={g})")
    pre = Fraction(d * params.N, 2 * (g - 1))
    deltas = [-1] + [4 * (g - i) * (g - i - 1) for i in range(1, g)]
    return DivisorClass(pre * 12, pre * (-2 * (g - 1)), tuple(pre * x for x in deltas))


def push_c(params: GrdParams) -> DivisorClass:
    """Pushforward of c:

        (N / (2(g-1)(g-2))) * [ (-(g+3) xi + 5r(r+2)) lambda
                                - d(r+1)(g-2) psi
                                + (1/6)((g+1) xi - 3r(r+2)) delta_0
                                + sum_i (g-i)(i xi + (g-i-2) r(r+2)) delta_i ]
    """
    g, r, d = params.g, params.r, params.d
    if g < 3:
        raise ParameterError(f"pushforward of c needs g >= 3 ((g-1)(g-2) vanishes at g={g})")
    x = params.xi
    rr = r * (r + 2)
    pre = Fraction(params.N, 2 * (g - 1) * (g - 2))
    lam = -(g + 3) * x + 5 * rr
    deltas: List[Fraction] = [Fraction(1, 6) * ((g + 1) * x - 3 * rr)]
    deltas += [(g - i) * (i * x + (g - i - 2) * rr) for i in range(1, g)]
    psi = Fraction(-d * (r + 1) * (g - 2))
    return DivisorClass(pre * lam, pre * psi, tuple(pre * q for q in deltas))


_PUSHES = {"a": push_a, "b": push_b, "c": push_c}


def push(which: str, params: GrdParams) -> DivisorClass:
    """Dispatch to push_a / push_b / push_c by name."""
    try:
        fn = _PUSHES[which]
    except KeyError:
        raise ParameterError(f"unknown tautological class {which!r}; expected a, b or c")
    return fn(params)


@dataclass(frozen=True)
class TautCombo:
    """Coefficients (p_a, p_b, p_c, p_lam) of p_a·a + p_b·b + p_c·c +
    p_lam·(pulled-back lambda) upstairs."""

    p_a: Fraction
    p_b: Fraction
    p_c: Fraction
    p_lam: Fraction

    @classmethod
    def of(cls, p_a, p_b, p_c, p_lam) -> "TautCombo":
        return cls(Fraction(p_a), Fraction(p_b), Fraction(p_c), Fraction(p_lam))

    def as_tuple(self) -> Tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.p_a, self.p_b, self.p_c, self.p_lam)

    def __str__(self) -> str:
        return f"({self.p_a})a + ({self.p_b})b + ({self.p_c})c + ({self.p_lam})λ"


def push_combo(combo: TautCombo, params: GrdParams) -> DivisorClass:
    """Pushforward of a tautological combination, by linearity.

    The pulled-back lambda term pushes to N·lambda because the covering
    map has generic degree N.  Classes with zero coefficient are never
    evaluated, so e.g. a pure b-combination works at g = 2 where the
    a and c formulas are out of domain.
    """
    lam = combo.p_lam * params.N if combo.p_lam else 0
    out = DivisorClass(Fraction(lam), Fraction(0), (Fraction(0),) * params.g)
    if combo.p_a:
        out = out + combo.p_a * push_a(params)
    if combo.p_b:
        out = out + combo.p_b * push_b(params)
    if combo.p_c:
        out = out + combo.p_c * push_c(params)
    return out


def rho_zero_triples(max_g: int) -> List[Tuple[int, int, int]]:
    """All rho = 0 triples with r >= 1 and g <= max_g.

    They are parameterized by r >= 1 and m = g-d+r >= 1 through
    g = (r+1)m, d = g + r - m.  (r = 0 forces d = 0 and is degenerate.)
    """
    out = []
    for r in range(1, max_g):
        for m in range(1, max_g // (r + 1) + 1):
            g = (r + 1) * m
            d = g + r - m
            assert rho(g, r, d) == 0
            out.append((g, r, d))
    out.sort()
    return out
