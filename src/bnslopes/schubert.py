"""Schubert calculus on the Grassmannian X = G(r, P^d) of projective
r-planes in projective d-space.

A Schubert cycle sigma_b is indexed by an integer sequence

    0 <= b_0 <= b_1 <= ... <= b_r <= d - r

of length r + 1 and has codimension sum(b_i).  Inside this module an
index is a plain ascending int tuple, and a :class:`ChowClass` is an
integer term map keyed by such tuples; :class:`SchubertIndex`
validates indices only where they come in, through :func:`make_index`
and :func:`balanced_pairs`.  Every Schubert number needed here is a
Pieri product or a degree, never a sum of classes, so there is no class
arithmetic besides :func:`pieri_ek` and :func:`integral`.  The
classical display convention is descending, so renders show
``σ{b_r,...,b_0}``.  The special cycle of codimension r is
zeta = σ{1,...,1,0}.

Only multiplication against the one-column special classes
σ{1,...,1,0,...,0} (k ones) is implemented: by the dual Pieri
(vertical-strip) rule the product raises k distinct entries of b by one
in every way that keeps the sequence ascending and bounded, each with
coefficient one.  Every product needed here (zeta, the full shift, a
single box) is of this form; general Littlewood-Richardson coefficients
are deliberately not provided.

The oracle for integrals of zeta powers runs the zeta step of that rule
alone.  :func:`_zeta_layers` is the Pieri table of G(r, P^D): it counts
the step sequences from the zero index to each index, up to the point
class, and :func:`_table_count` reads from it, at the dual index b*,
every dimension-balanced integral of every G(r, P^d) with d <= D.
:func:`brute_zeta_integral` does the same expansion through
:class:`ChowClass` and the general :func:`pieri_ek`, and stays as its
independent reference.  The closed form is written once, on
ints, in :func:`_closed_form`; :func:`zeta_power_integral` returns it
as a ``Fraction``, and the schubert-oracle suite compares layer entries
with it directly, as one cross-multiplication ``num == entry * den``
per pair.  The closed form tests for vanishing before it builds
anything, and the suite reads the table only where it is nonzero: a
count of the table entries that each box can reach proves all the
vanishing pairs at once.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import factorial
from typing import Dict, Iterator, List, Sequence, Tuple

from .record import Record


__all__ = [
    "BalanceError",
    "ChowClass",
    "CodimensionError",
    "GrassmannianSpec",
    "InvalidIndexError",
    "SchubertIndex",
    "balanced_pairs",
    "brute_zeta_integral",
    "integral",
    "make_index",
    "pieri_ek",
    "schubert_class",
    "zeta",
    "zeta_power_integral",
]


class InvalidIndexError(ValueError):
    """A Schubert index violated one of its defining constraints."""


class CodimensionError(ValueError):
    """:func:`integral` was given a class that is not of top
    codimension."""


class BalanceError(ValueError):
    """An integral was requested whose total codimension does not match
    the dimension of the ambient Grassmannian."""


class GrassmannianSpec(Record):
    """The Grassmannian G(r, P^d): r = projective fiber dimension of the
    linear series, d = ambient projective dimension."""

    __slots__ = _fields = ("r", "d")

    def __init__(self, r: int, d: int) -> None:
        super().__init__(r, d)
        if not 0 <= r <= d:
            raise InvalidIndexError(f"need 0 <= r <= d for G(r, P^d); got r={r}, d={d}")

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


class SchubertIndex(Record):
    """Validated index b of a Schubert cycle on ``spec``.

    Stored ascending; build through :func:`make_index`, which names the
    violated constraint on bad input.
    """

    __slots__ = _fields = ("spec", "b")

    def __init__(self, spec: GrassmannianSpec, b: Tuple[int, ...]) -> None:
        super().__init__(spec, b)
        if len(b) != spec.r + 1:
            raise InvalidIndexError(f"index length must be r+1 = {spec.r + 1}; got {len(b)}")
        if any(b[i] > b[i + 1] for i in range(len(b) - 1)):
            raise InvalidIndexError(f"index must be ascending (b_0 <= ... <= b_r); got {b}")
        if b and b[0] < 0:
            raise InvalidIndexError(f"index entries must be >= 0; got b_0 = {b[0]}")
        if b and b[-1] > spec.box:
            raise InvalidIndexError(f"index entries must be <= d-r = {spec.box}; got b_r = {b[-1]}")

    @property
    def codim(self) -> int:
        return sum(self.b)


def _render(b: Tuple[int, ...]) -> str:
    """sigma_b in the descending display convention."""
    return "σ{" + ",".join(str(x) for x in reversed(b)) + "}"


def make_index(spec: GrassmannianSpec, b: Sequence[int]) -> SchubertIndex:
    """Validate and intern an index sequence (given ascending)."""
    return SchubertIndex(spec, tuple(int(x) for x in b))


class ChowClass(Record):
    """Homogeneous integer linear combination of Schubert cycles.

    ``terms`` maps ascending index tuples to their coefficients.  All
    indices share codimension ``codim``; zero coefficients are never
    stored, so the zero class has empty terms.
    """

    __slots__ = _fields = ("spec", "codim", "terms")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            _render(b) if c == 1 else f"{c}·{_render(b)}" for b, c in sorted(self.terms.items())
        )


def schubert_class(spec: GrassmannianSpec, b: Sequence[int]) -> ChowClass:
    """The class of a single Schubert cycle sigma_b."""
    idx = make_index(spec, b)
    return ChowClass(spec, idx.codim, {idx.b: 1})


def zeta(spec: GrassmannianSpec) -> ChowClass:
    """The codimension-r special cycle σ{1,...,1,0} (requires r >= 1)."""
    if spec.r < 1:
        raise InvalidIndexError("zeta degenerates to the fundamental class for r = 0")
    return schubert_class(spec, (0,) + (1,) * spec.r)


def pieri_ek(c: ChowClass, k: int) -> ChowClass:
    """Multiply by the one-column special class with k ones (1 <= k <= r+1).

    Vertical-strip rule: for each k-subset of positions, raise those
    entries of b by one, and keep the result if it is still ascending
    and its last entry is at most d-r; every kept term has coefficient
    one.  Coefficients that cancel across input terms are dropped, and
    bound saturation can leave the zero class of the raised codimension.
    """
    spec = c.spec
    n = spec.r + 1
    if not 1 <= k <= n:
        raise InvalidIndexError(f"pieri multiplication needs 1 <= k <= r+1; got k={k}")
    out: Dict[Tuple[int, ...], int] = {}
    for b, coeff in c.terms.items():
        for positions in combinations(range(n), k):
            raised = list(b)
            for p in positions:
                raised[p] += 1
            if raised[-1] <= spec.box and all(raised[i] <= raised[i + 1] for i in range(n - 1)):
                key = tuple(raised)
                out[key] = out.get(key, 0) + coeff
    return ChowClass(spec, c.codim + k, {key: v for key, v in out.items() if v})


def integral(c: ChowClass) -> int:
    """Degree of a top-codimension class: the coefficient of the point
    class.  Codimension mismatch is an error, never a silent zero."""
    if c.codim != c.spec.dim:
        raise CodimensionError(
            f"integral needs codimension {c.spec.dim} on {c.spec}; got {c.codim}"
        )
    return c.terms.get((c.spec.box,) * (c.spec.r + 1), 0)


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
    """Closed form for the intersection number of zeta^k with sigma_b;
    the formula is in :func:`_closed_form`."""
    _check_balance(spec, b, k)
    return Fraction(*_closed_form(spec, b.b, k))


def _closed_form(spec: GrassmannianSpec, b: Tuple[int, ...], k: int) -> Tuple[int, int]:
    """The integral of zeta^k against sigma_b as an unreduced (num, den).

    With a_i = b_i + i,

        integral = k! / prod_i (k - d + r + a_i)!  *  prod_{i<j} (a_j - a_i),

    valid whenever r*k + sum(b) equals dim X, which the caller checks;
    the value is 0 as soon as any factorial argument k - d + r + a_i is
    negative (the geometric vanishing of the cycle).  The a_i strictly
    increase, so a_0 = b_0 gives the smallest argument and is the only
    one tested, before a is built: the form returns (0, 1) exactly when
    k < (d - r) - b_0.  Otherwise every factorial argument is >= 0, so
    :func:`math.factorial` is called directly, and num is not 0, as the
    a_i are distinct.
    """
    shift = k - spec.d + spec.r
    if shift + b[0] < 0:
        return 0, 1
    a = [bi + i for i, bi in enumerate(b)]
    num = factorial(k)
    for ai, aj in combinations(a, 2):
        num *= aj - ai
    den = 1
    for ai in a:
        den *= factorial(shift + ai)
    return num, den


def brute_zeta_integral(spec: GrassmannianSpec, b: SchubertIndex, k: int) -> int:
    """Independent oracle for :func:`zeta_power_integral`: start from
    sigma_b, multiply by zeta k times with the Pieri rule, and read off
    the point-class coefficient as an int."""
    _check_balance(spec, b, k)
    c = ChowClass(spec, b.codim, {b.b: 1})
    if spec.r == 0:
        # zeta is the fundamental class; multiplication is the identity.
        return integral(c)
    for _ in range(k):
        c = pieri_ek(c, spec.r)
    return integral(c)


def _zeta_successors(b: Tuple[int, ...], box: int) -> Iterator[Tuple[int, ...]]:
    """The indices c with sigma_c a term of zeta * sigma_b: by the Pieri
    rule for the r-box column, every entry of b but the one at position p
    goes up by one.  That stays within the box iff p is last or
    b[-1] < box, and ascending iff p is first or b[p-1] < b[p].  Each
    successor is built from one list of the raised entries by lowering
    entry p back to b[p] for the one ``tuple`` copy and raising it again
    afterwards.  For r = 0 the only successor is b itself, as zeta is
    then the fundamental class."""
    up = [x + 1 for x in b]
    stop = 0 if b[-1] < box else len(b) - 1
    prev = b[0] - 1
    for p, x in enumerate(b):
        if p >= stop and prev < x:
            up[p] = x
            yield tuple(up)
            up[p] = x + 1
        prev = x


def _zeta_layers(spec: GrassmannianSpec) -> List[Dict[Tuple[int, ...], int]]:
    """The Pieri table of G(r, P^d): layer j maps each index reached in
    j forward zeta steps from the zero index to the number of step
    sequences that reach it, up to the point class at j = dim / r (for
    r = 0, where zeta is the fundamental class, the zero layer alone).

    Duality.  Write b* = (box - b_r, ..., box - b_0).  The successors of
    b are the valid indices b + 1 - e_p, and c = b + 1 - e_p exactly when
    b* = c* + 1 - e_(r-p), so c is a successor of b exactly when b* is
    one of c*; the star maps the point class to the zero index.  So the
    integral of sigma_b * zeta^k is layer k read at b* (0 where b* is
    absent).

    Box independence.  Entries never fall along a path, so no entry of
    an index on a path to c exceeds the one of c at its position: the
    paths to c, and so the count at c, are the same on every
    G(r, P^D) whose box holds c."""
    layers = [{(0,) * (spec.r + 1): 1}]
    box = spec.box
    for _ in range(spec.dim // spec.r if spec.r else 0):
        nxt: Dict[Tuple[int, ...], int] = {}
        get = nxt.get
        for c, n in layers[-1].items():
            for s in _zeta_successors(c, box):
                nxt[s] = get(s, 0) + n
        layers.append(nxt)
    return layers


def _table_count(layers: List[Dict[Tuple[int, ...], int]], box: int, b: Tuple[int, ...], k: int) -> int:
    """The integral of zeta^k against sigma_b on the G(r, P^d) of this box
    from the table of any G(r, P^D), D >= d: layer k read at b*."""
    return layers[k].get(tuple([box - x for x in reversed(b)]), 0)


def _balanced_tuples(spec: GrassmannianSpec) -> Iterator[tuple[Tuple[int, ...], int]]:
    """:func:`balanced_pairs` on plain ascending tuples, unvalidated."""
    r, dim = spec.r, spec.dim
    if r == 0:
        yield (spec.box,), 0
        return
    for b in combinations_with_replacement(range(spec.box + 1), r + 1):
        rem = dim - sum(b)
        if rem % r == 0:
            yield b, rem // r


def balanced_pairs(spec: GrassmannianSpec) -> Iterator[tuple[SchubertIndex, int]]:
    """All (b, k) with r*k + sum(b) = dim X, k >= 0, in lexicographic
    order of b."""
    for b, k in _balanced_tuples(spec):
        yield SchubertIndex(spec, b), k
