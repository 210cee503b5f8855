"""Schubert calculus on the Grassmannian X = G(r, P^d) of projective
r-planes in projective d-space.

A Schubert cycle sigma_b is indexed by an integer sequence

    0 <= b_0 <= b_1 <= ... <= b_r <= d - r

of length r + 1 and has codimension sum(b_i).  Sequences are stored in
ascending order; the classical display convention is descending, so
renders show ``σ{b_r,...,b_0}``.  The special cycle of codimension r is
zeta = σ{1,...,1,0}.

Only multiplication against the one-column special classes
σ{1,...,1,0,...,0} (k ones) is implemented: by the dual Pieri
(vertical-strip) rule the product raises k distinct entries of b by one
in every way that keeps the sequence ascending and bounded, each with
coefficient one.  Every product needed here (zeta, the full shift, a
single box) is of this form; general Littlewood-Richardson coefficients
are deliberately not provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Dict, Iterator, Sequence, Tuple

from .numeric import factorial

__all__ = [
    "BalanceError",
    "ChowClass",
    "CodimensionError",
    "GrassmannianSpec",
    "InvalidIndexError",
    "SchubertIndex",
    "all_indices",
    "balanced_pairs",
    "brute_zeta_integral",
    "fundamental_class",
    "integral",
    "make_index",
    "pieri_ek",
    "point_class",
    "point_index",
    "schubert_class",
    "special_class",
    "zero_class",
    "zeta",
    "zeta_power_integral",
]


class InvalidIndexError(ValueError):
    """A Schubert index violated one of its defining constraints."""


class CodimensionError(ValueError):
    """Classes of different codimension were mixed."""


class BalanceError(ValueError):
    """An integral was requested whose total codimension does not match
    the dimension of the ambient Grassmannian."""


@dataclass(frozen=True)
class GrassmannianSpec:
    """The Grassmannian G(r, P^d): r = projective fiber dimension of the
    linear series, d = ambient projective dimension."""

    r: int
    d: int

    def __post_init__(self) -> None:
        if not 0 <= self.r <= self.d:
            raise InvalidIndexError(
                f"need 0 <= r <= d for G(r, P^d); got r={self.r}, d={self.d}"
            )

    @property
    def dim(self) -> int:
        """dim G(r, P^d) = (r+1)(d-r)."""
        return (self.r + 1) * (self.d - self.r)

    @property
    def box(self) -> int:
        """Upper bound d - r on every index entry."""
        return self.d - self.r

    def __str__(self) -> str:
        return f"G({self.r}, P^{self.d})"


@dataclass(frozen=True)
class SchubertIndex:
    """Validated index b of a Schubert cycle on ``spec``.

    Stored ascending; build through :func:`make_index`, which names the
    violated constraint on bad input.
    """

    spec: GrassmannianSpec
    b: Tuple[int, ...]

    def __post_init__(self) -> None:
        b = self.b
        if len(b) != self.spec.r + 1:
            raise InvalidIndexError(
                f"index length must be r+1 = {self.spec.r + 1}; got {len(b)}"
            )
        if any(b[i] > b[i + 1] for i in range(len(b) - 1)):
            raise InvalidIndexError(f"index must be ascending (b_0 <= ... <= b_r); got {b}")
        if b and b[0] < 0:
            raise InvalidIndexError(f"index entries must be >= 0; got b_0 = {b[0]}")
        if b and b[-1] > self.spec.box:
            raise InvalidIndexError(
                f"index entries must be <= d-r = {self.spec.box}; got b_r = {b[-1]}"
            )

    @property
    def codim(self) -> int:
        return sum(self.b)

    def __str__(self) -> str:
        return "σ{" + ",".join(str(x) for x in reversed(self.b)) + "}"


def make_index(spec: GrassmannianSpec, b: Sequence[int]) -> SchubertIndex:
    """Validate and intern an index sequence (given ascending)."""
    return SchubertIndex(spec, tuple(int(x) for x in b))


@dataclass(frozen=True)
class ChowClass:
    """Homogeneous rational linear combination of Schubert cycles.

    All indices in ``terms`` share codimension ``codim``; zero
    coefficients are never stored, so the zero class has empty terms.
    Addition between different codimensions is a hard error rather than
    an implicit graded sum.
    """

    spec: GrassmannianSpec
    codim: int
    terms: Dict[SchubertIndex, Fraction] = field(default_factory=dict)

    def coefficient(self, index: SchubertIndex) -> Fraction:
        return self.terms.get(index, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def _check_compatible(self, other: "ChowClass") -> None:
        if self.spec != other.spec:
            raise CodimensionError("classes live on different Grassmannians")
        if self.codim != other.codim:
            raise CodimensionError(
                f"cannot add classes of codimension {self.codim} and {other.codim}"
            )

    def __add__(self, other: "ChowClass") -> "ChowClass":
        self._check_compatible(other)
        out = dict(self.terms)
        for idx, c in other.terms.items():
            s = out.get(idx, Fraction(0)) + c
            if s:
                out[idx] = s
            else:
                out.pop(idx, None)
        return ChowClass(self.spec, self.codim, out)

    def __sub__(self, other: "ChowClass") -> "ChowClass":
        return self + (-1) * other

    def __mul__(self, scalar) -> "ChowClass":
        q = Fraction(scalar)
        if q == 0:
            return ChowClass(self.spec, self.codim, {})
        return ChowClass(self.spec, self.codim, {i: q * c for i, c in self.terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "ChowClass":
        return (-1) * self

    def sorted_terms(self) -> list[tuple[SchubertIndex, Fraction]]:
        """Terms in the canonical (lexicographic on ascending b) order."""
        return sorted(self.terms.items(), key=lambda kv: kv[0].b)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for idx, c in self.sorted_terms():
            parts.append(str(idx) if c == 1 else f"{c}·{idx}")
        return " + ".join(parts)


def schubert_class(spec: GrassmannianSpec, b: Sequence[int]) -> ChowClass:
    """The class of a single Schubert cycle sigma_b."""
    idx = make_index(spec, b)
    return ChowClass(spec, idx.codim, {idx: Fraction(1)})


def special_class(spec: GrassmannianSpec, k: int) -> ChowClass:
    """The one-column special class σ{1,..,1,0,..,0} with k ones."""
    if not 1 <= k <= spec.r + 1:
        raise InvalidIndexError(f"special class needs 1 <= k <= r+1; got k={k}")
    return schubert_class(spec, (0,) * (spec.r + 1 - k) + (1,) * k)


def zeta(spec: GrassmannianSpec) -> ChowClass:
    """The codimension-r special cycle σ{1,...,1,0} (requires r >= 1)."""
    if spec.r < 1:
        raise InvalidIndexError("zeta degenerates to the fundamental class for r = 0")
    return special_class(spec, spec.r)


def fundamental_class(spec: GrassmannianSpec) -> ChowClass:
    return schubert_class(spec, (0,) * (spec.r + 1))


def point_index(spec: GrassmannianSpec) -> SchubertIndex:
    return make_index(spec, (spec.box,) * (spec.r + 1))


def point_class(spec: GrassmannianSpec) -> ChowClass:
    return schubert_class(spec, (spec.box,) * (spec.r + 1))


def zero_class(spec: GrassmannianSpec, codim: int) -> ChowClass:
    return ChowClass(spec, codim, {})


def pieri_ek(c: ChowClass, k: int) -> ChowClass:
    """Multiply by the one-column special class with k ones (1 <= k <= r+1).

    Vertical-strip rule: every output term raises k distinct entries of
    b by one while staying ascending and bounded by d-r.  The rule is
    multiplicity free, so the coefficients of a single input cycle are
    all one before collection; terms that would overflow the bound are
    dropped (bound saturation), which can leave the zero class of the
    raised codimension.
    """
    spec = c.spec
    n = spec.r + 1
    if not 1 <= k <= n:
        raise InvalidIndexError(f"pieri multiplication needs 1 <= k <= r+1; got k={k}")
    box = spec.box
    out: Dict[Tuple[int, ...], Fraction] = {}
    for idx, coeff in c.terms.items():
        b = idx.b
        for positions in combinations(range(n), k):
            ok = True
            for p in positions:
                # raising p breaks monotonicity only against an equal,
                # un-raised successor; the last entry is checked against
                # the box bound instead.
                if p + 1 < n:
                    if b[p] == b[p + 1] and (p + 1) not in positions:
                        ok = False
                        break
                elif b[p] + 1 > box:
                    ok = False
                    break
            if not ok:
                continue
            raised = list(b)
            for p in positions:
                raised[p] += 1
            key = tuple(raised)
            prev = out.get(key)
            out[key] = coeff if prev is None else prev + coeff
    terms = {
        SchubertIndex(spec, key): v for key, v in out.items() if v
    }
    return ChowClass(spec, c.codim + k, terms)


def integral(c: ChowClass) -> Fraction:
    """Degree of a top-codimension class: the coefficient of the point
    class.  Codimension mismatch is an error, never a silent zero."""
    if c.codim != c.spec.dim:
        raise CodimensionError(
            f"integral needs codimension {c.spec.dim} on {c.spec}; got {c.codim}"
        )
    return c.coefficient(point_index(c.spec))


def _check_balance(spec: GrassmannianSpec, b: SchubertIndex, k: int) -> None:
    if b.spec != spec:
        raise BalanceError("index does not live on the given Grassmannian")
    if k < 0:
        raise BalanceError(f"exponent must be >= 0; got {k}")
    if spec.r * k + b.codim != spec.dim:
        raise BalanceError(
            f"dimension balance violated on {spec}: r*k + |b| = "
            f"{spec.r * k + b.codim} != dim = {spec.dim}"
        )


def zeta_power_integral(spec: GrassmannianSpec, b: SchubertIndex, k: int) -> Fraction:
    """Closed form for the intersection number of zeta^k with sigma_b.

    With a_i = b_i + i,

        integral = k! / prod_i (k - d + r + a_i)!  *  prod_{i<j} (a_j - a_i),

    valid whenever r*k + sum(b) equals dim X; the value is 0 as soon as
    any factorial argument k - d + r + a_i is negative (the geometric
    vanishing of the cycle), which is checked before anything is
    computed.
    """
    _check_balance(spec, b, k)
    a = [bi + i for i, bi in enumerate(b.b)]
    shift = k - spec.d + spec.r
    args = [shift + ai for ai in a]
    if any(x < 0 for x in args):
        return Fraction(0)
    num = factorial(k)
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            num *= a[j] - a[i]
    den = 1
    for x in args:
        den *= factorial(x)
    return Fraction(num, den)


def brute_zeta_integral(spec: GrassmannianSpec, b: SchubertIndex, k: int) -> Fraction:
    """Independent oracle for :func:`zeta_power_integral`: start from
    sigma_b, multiply by zeta k times with the Pieri rule, and read off
    the point-class coefficient."""
    _check_balance(spec, b, k)
    c = ChowClass(spec, b.codim, {b: Fraction(1)})
    if spec.r == 0:
        # zeta is the fundamental class; multiplication is the identity.
        return integral(c)
    for _ in range(k):
        c = pieri_ek(c, spec.r)
    return integral(c)


def all_indices(spec: GrassmannianSpec) -> Iterator[SchubertIndex]:
    """All valid indices on ``spec`` in lexicographic order."""
    for b in combinations_with_replacement(range(spec.box + 1), spec.r + 1):
        yield SchubertIndex(spec, b)


def balanced_pairs(spec: GrassmannianSpec) -> Iterator[tuple[SchubertIndex, int]]:
    """All (b, k) with r*k + sum(b) = dim X, k >= 0 (for r >= 1)."""
    if spec.r == 0:
        yield point_index(spec), 0
        return
    for idx in all_indices(spec):
        rem = spec.dim - idx.codim
        if rem % spec.r == 0:
            yield idx, rem // spec.r
