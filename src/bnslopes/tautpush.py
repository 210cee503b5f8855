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

Every prefactor is N times a number that does not depend on N, so every
pushforward is N times an N-free class.  :func:`per_N_numerators`
gives that class as one common denominator L and an iterator of integer
numerators, lambda and delta_0 first, without computing N; the CLI
prints from them directly.  Six values of each weighted bracket are
read, lambda, psi and delta_0..delta_3: every delta_i (i >= 1) is a
polynomial of degree <= 2 in i, so delta_4..delta_{g-1} follow from
delta_1..delta_3 by second differences, exactly, and only this tail is
lazy, as running sums.  A slope -lambda/delta_0 therefore costs O(1)
operations instead of O(g) operations on g-digit numbers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from math import comb, lcm
from typing import Iterable, Iterator, List, Tuple

from .record import Record

__all__ = [
    "CLASSES",
    "DivisorClass",
    "GrdParams",
    "ParameterError",
    "TautCombo",
    "castelnuovo_N",
    "per_N_numerators",
    "push",
    "push_a",
    "push_b",
    "push_c",
    "push_combo",
    "rho",
    "rho_zero_triples",
]

CLASSES = ("a", "b", "c")  # the tautological classes, in TautCombo's coefficient order


class ParameterError(ValueError):
    """A (g, r, d) or family parameter violated a precondition."""


def rho(g: int, r: int, d: int) -> int:
    """Brill-Noether number rho = g - (r+1)(g-d+r)."""
    return g - (r + 1) * (g - d + r)


def castelnuovo_N(g: int, r: int, d: int) -> int:
    """Number of g^r_d's on a general genus-g curve when rho = 0:

        N = 1! 2! ... r! g! / ((g-d+r)! (g-d+r+1)! ... (g-d+2r)!).

    With m = g-d+r this is the number of standard tableaux of the
    (r+1) x m rectangle (Eisenbud-Harris, Invent. Math. 90 (1987)).  By
    the hook length formula a j x c rectangle has

        T(j, c) = (jc)! / prod_{i=0..j-1} ((i+c)! / i!)

    of them, so one more row multiplies the count by

        T(j+1, c) / T(j, c) = C((j+1)c, c) / C(c+j, c).

    A rectangle and its transpose have the same count, since transposing
    a standard tableau gives one.  So with rows <= cols the two sides
    sorted, N = T(rows, cols) is reached from T(1, cols) = 1 by rows-1
    such steps, fewer than the other orientation takes.  Every step is
    exact: T(j+1, cols) is itself a count of tableaux, hence an integer,
    so C(cols+j, cols) divides T(j, cols) C((j+1)cols, cols).  No g! is
    formed, and each divisor C(cols+j, j) with j < rows <= sqrt(g) is
    far shorter than N.
    """
    if rho(g, r, d) != 0:
        raise ParameterError(
            f"Castelnuovo count needs rho = 0; rho({g},{r},{d}) = {rho(g, r, d)}"
        )
    m = g - d + r
    if m < 0:
        raise ParameterError(f"need g-d+r >= 0; got {m}")
    if r < 0:
        raise ParameterError(f"need r >= 0; got {r}")
    rows, cols = sorted((r + 1, m))
    n = 1
    for j in range(1, rows):
        n, rem = divmod(n * comb((j + 1) * cols, cols), comb(cols + j, cols))
        if rem:
            raise ArithmeticError(f"Castelnuovo count at ({g},{r},{d}) is not an integer")
    return n


class GrdParams(Record):
    """A Brill-Noether triple (g, r, d) with rho = 0 and its derived
    quantities; N is computed on each read."""

    __slots__ = _fields = ("g", "r", "d")

    def __init__(self, g: int, r: int, d: int) -> None:
        super().__init__(g, r, d)
        if g < 1 or r < 0 or d < 0:
            raise ParameterError(f"need g >= 1 and r, d >= 0; got {self}")
        if (n := rho(g, r, d)) != 0:
            raise ParameterError(f"rho({g},{r},{d}) = {n} != 0")

    @property
    def N(self) -> int:
        return castelnuovo_N(self.g, self.r, self.d)

    @property
    def xi(self) -> Fraction:
        """The rational quantity

            xi = 3(g-1) + (r-1)(g+r+1)(3g-2d+r-3) / (g-d+2r+1)

        entering the pushforward of c.  (The same quantity appears both in
        the statement of the pushforward formulas and in the genus-2 test
        family computations; they are one and the same.)  With rho = 0 and
        m = g/(r+1) the denominator is m+r+1 >= 2.
        """
        g, r, d = self.g, self.r, self.d
        den = g - d + 2 * r + 1
        return 3 * (g - 1) + Fraction((r - 1) * (g + r + 1) * (3 * g - 2 * d + r - 3), den)

    def __str__(self) -> str:
        return f"(g,r,d)=({self.g},{self.r},{self.d})"


class DivisorClass(Record):
    """Exact divisor class in the basis lambda, psi, delta_0..delta_{g-1}.

    ``delta`` always has length g, zeros included, so classes can be fed
    to the pullback tables and the reconstruction solver coordinatewise.
    """

    __slots__ = _fields = ("lam", "psi", "delta")

    @property
    def g(self) -> int:
        return len(self.delta)

    def coefficients(self) -> Tuple[Fraction, ...]:
        """Coordinates in the fixed order (lambda, psi, delta_0..delta_{g-1})."""
        return (self.lam, self.psi) + self.delta

    @classmethod
    def from_coefficients(cls, coords: Iterable[Fraction]) -> "DivisorClass":
        """Inverse of :meth:`coefficients`."""
        lam, psi, *delta = coords
        return cls(lam, psi, tuple(delta))

    def is_delta_symmetric(self) -> bool:
        """Whether delta_i = delta_{g-i} for all 1 <= i <= g-1."""
        g = self.g
        return all(self.delta[i] == self.delta[g - i] for i in range(1, g))

    def __str__(self) -> str:
        parts = [f"{self.lam}·λ"]
        if self.psi:
            parts.append(f"{self.psi}·ψ")
        for i, x in enumerate(self.delta):
            if x:
                parts.append(f"{x}·δ{i}")
        return " + ".join(parts)


# A bracket is the N-free prefactor of a displayed pushforward formula, as
# an int pair (num, den) with den > 0, not reduced, and an iterator over the
# bracket's integer coordinates in the order lambda, psi, delta_0, ...,
# delta_{g-1}; only the delta_i with i >= 1 are produced lazily.
Bracket = Tuple[Tuple[int, int], Iterator[int]]


def _bracket_a(params: GrdParams) -> Bracket:
    """The prefactor over N and the bracket of the pushforward of a:

        (d N / (6(g-1)(g-2))) * [ 6(gd - 2g^2 + 8d - 8g + 4) lambda
                                  + (2g^2 - gd + 3g - 4d - 2) delta_0
                                  + 6 sum_i (g-i)(gd + 2ig - 2id - 2d) delta_i
                                  - 6d(g-2) psi ]
    """
    g, d = params.g, params.d
    if g < 3:
        raise ParameterError(f"pushforward of a needs g >= 3 ((g-1)(g-2) vanishes at g={g})")
    lam = 6 * (g * d - 2 * g * g + 8 * d - 8 * g + 4)
    psi = -6 * d * (g - 2)
    delta0 = 2 * g * g - g * d + 3 * g - 4 * d - 2
    deltas = (6 * (g - i) * (g * d + 2 * i * g - 2 * i * d - 2 * d) for i in range(1, g))
    return (d, 6 * (g - 1) * (g - 2)), chain((lam, psi, delta0), deltas)


def _bracket_b(params: GrdParams) -> Bracket:
    """The prefactor over N and the bracket of the pushforward of b:

        (d N / (2(g-1))) * [ 12 lambda - delta_0
                             + 4 sum_i (g-i)(g-i-1) delta_i - 2(g-1) psi ]
    """
    g, d = params.g, params.d
    if g < 2:
        raise ParameterError(f"pushforward of b needs g >= 2 ((g-1) vanishes at g={g})")
    deltas = (4 * (g - i) * (g - i - 1) for i in range(1, g))
    return (d, 2 * (g - 1)), chain((12, -2 * (g - 1), -1), deltas)


def _bracket_c(params: GrdParams) -> Bracket:
    """The prefactor over N and the bracket of the pushforward of c.  The
    displayed formula is

        (N / (2(g-1)(g-2))) * [ (-(g+3) xi + 5r(r+2)) lambda
                                - d(r+1)(g-2) psi
                                + (1/6)((g+1) xi - 3r(r+2)) delta_0
                                + sum_i (g-i)(i xi + (g-i-2) r(r+2)) delta_i ];

    with xi = p/q in lowest terms, its bracket is scaled by 6q and its
    prefactor divided by 6q, so every bracket coordinate is an integer:

        (N / (12q(g-1)(g-2))) * [ 6(-(g+3) p + 5r(r+2) q) lambda
                                  - 6q d(r+1)(g-2) psi
                                  + ((g+1) p - 3r(r+2) q) delta_0
                                  + 6 sum_i (g-i)(i p + (g-i-2) r(r+2) q) delta_i ]

    On the canonical line m = 1 (g = r + 1, d = 2g - 2, N = 1) this is
    C(g, 2) psi minus Cukierman's Weierstrass divisor (Duke Math. J. 58,
    1989), -lambda + C(g+1, 2) psi - sum_i C(g-i+1, 2) delta_i.  By hand:
    3g - 2d + r - 3 = 0 there, so xi = 3(g-1), and r(r+2) = (g-1)(g+1).
    Then lambda is (-3(g+3) + 5(g+1)) / (2(g-2)) = 1, psi is
    -(2g-2)g / (2(g-1)) = -g, delta_0 is 0, and delta_i is
    (g-i)(3i + (g-i-2)(g+1)) / (2(g-2)), where 3i + (g-i-2)(g+1) =
    (g-i+1)(g-2), which leaves C(g-i+1, 2).
    """
    g, r, d = params.g, params.r, params.d
    if g < 3:
        raise ParameterError(f"pushforward of c needs g >= 3 ((g-1)(g-2) vanishes at g={g})")
    p, q = params.xi.as_integer_ratio()
    rq = r * (r + 2) * q
    lam = 6 * (-(g + 3) * p + 5 * rq)
    psi = -6 * q * d * (r + 1) * (g - 2)
    delta0 = (g + 1) * p - 3 * rq
    deltas = (6 * (g - i) * (i * p + (g - i - 2) * rq) for i in range(1, g))
    return (1, 12 * q * (g - 1) * (g - 2)), chain((lam, psi, delta0), deltas)


class TautCombo(Record):
    """Coefficients (p_a, p_b, p_c, p_lam) of p_a·a + p_b·b + p_c·c +
    p_lam·(pulled-back lambda) upstairs."""

    __slots__ = _fields = ("p_a", "p_b", "p_c", "p_lam")

    @classmethod
    def of(cls, p_a, p_b, p_c, p_lam) -> "TautCombo":
        return cls(Fraction(p_a), Fraction(p_b), Fraction(p_c), Fraction(p_lam))

    @classmethod
    def unit(cls, which: str) -> "TautCombo":
        """The combination of the one class named ``which``, a, b or c."""
        if which not in CLASSES:
            raise ParameterError(f"unknown tautological class {which!r}; expected a, b or c")
        return cls.of(*(int(which == x) for x in CLASSES), 0)

    def __str__(self) -> str:
        return f"({self.p_a})a + ({self.p_b})b + ({self.p_c})c + ({self.p_lam})λ"


def per_N_numerators(combo: TautCombo, params: GrdParams) -> Tuple[int, Iterator[int]]:
    """A common denominator L and the integer numerators of the coordinates
    of 1/N times the pushforward of a combination, by linearity, in the
    order lambda, psi, delta_0..delta_{g-1}; N is never computed.

    Each bracket enters with the weight p_X * prefactor as an int pair,
    the product of the numerators over the product of the denominators,
    not reduced; L is the lcm of those denominators and p_lambda's.  No
    Fraction product is formed: each numerator is an integer weighted
    sum.  The pulled-back lambda term pushes to N·lambda because the
    covering map has generic degree N.  Classes with zero coefficient
    are never evaluated, so e.g. a pure b-combination works at g = 2
    where the a and c formulas are out of domain; their domain checks
    raise here, before any coordinate is produced.

    Six values of each weighted bracket are read, lambda, psi and
    delta_0..delta_3, when the call is made, so a slope is O(1) work;
    delta_4..delta_{g-1} follow from delta_1..delta_3 by second
    differences, lazily, as two running sums, and this is exact.  In
    every bracket delta_i (i >= 1) is either (g-i) times a form linear
    in i (a and c) or (g-i)(g-i-1) (b), a polynomial of degree <= 2 in
    i; a weighted sum of such polynomials is one too, so its second
    difference is one constant and two running sums from delta_1
    rebuild the rest.
    """
    g, lam = params.g, combo.p_lam
    weighted = []
    for p, bracket in (
        (combo.p_a, _bracket_a),
        (combo.p_b, _bracket_b),
        (combo.p_c, _bracket_c),
    ):
        if p:
            (num, den), coords = bracket(params)
            values = list(islice(coords, 6))
            weighted.append((p.numerator * num, p.denominator * den, values))
    L = lcm(lam.denominator, *(den for _, den, _ in weighted))
    head = [lam.numerator * (L // lam.denominator)] + [0] * (min(6, g + 2) - 1)
    for num, den, values in weighted:
        w = num * (L // den)
        head = [h + w * x for h, x in zip(head, values)]
    if g <= 4:
        return L, iter(head)
    d1, d2, d3 = head[3:]
    diffs = accumulate(repeat(d3 - 2 * d2 + d1, g - 3), initial=d2 - d1)
    return L, chain(head[:3], accumulate(diffs, initial=d1))


def push_combo(combo: TautCombo, params: GrdParams) -> DivisorClass:
    """Pushforward of a tautological combination, by linearity."""
    L, ints = per_N_numerators(combo, params)
    N = params.N
    return DivisorClass.from_coefficients(Fraction(N * x, L) for x in ints)


def push_a(params: GrdParams) -> DivisorClass:
    """Pushforward of a; the formula is in :func:`_bracket_a`."""
    return push_combo(TautCombo.of(1, 0, 0, 0), params)


def push_b(params: GrdParams) -> DivisorClass:
    """Pushforward of b; the formula is in :func:`_bracket_b`."""
    return push_combo(TautCombo.of(0, 1, 0, 0), params)


def push_c(params: GrdParams) -> DivisorClass:
    """Pushforward of c; the formula is in :func:`_bracket_c`."""
    return push_combo(TautCombo.of(0, 0, 1, 0), params)


def push(which: str, params: GrdParams) -> DivisorClass:
    """Pushforward of the class named ``which``, a, b or c."""
    return push_combo(TautCombo.unit(which), params)


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
            out.append((g, r, d))
    out.sort()
    return out
