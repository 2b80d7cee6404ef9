"""Geometry oracle: facet description and enumerated lattice-point counts.

The H-description of Z = A * [0,1]^n comes straight from the cocircuit
vectors: each one gives a pair of parallel facet inequalities, of width
equal to its support size since A is unimodular.

Counting enumerates the lattice points of mZ exactly, independent of every
closed formula it is used to check, the Tutte polynomial included.  It rests
on Shephard's tiling of Z into half-open unit parallelepipeds, the fact
behind Stanley's lattice-point formula, not on the facets: A is unimodular,
so each tile holds one lattice point, a vertex, and since mZ is the zonotope
of the m-thickening, its lattice points are exactly the sums A b,
b in {0..m}^n.  The count runs on X = B^-1 A, B the pivot columns of A: X is
read off the matroid's solved form and checked exactly against A once per
matroid, so that a wrong solved form raises instead of feeding both the
count and the Tutte polynomial.  B is unimodular, so X has the same lattice
points, and X is the same matrix for every presentation U A of the row
space.  The points lie in the box m * [-#neg, #pos] per row of X, held as
one Python int in mixed radix: from the origin's bit, each column adds its
multiples by shift-ORs of the set, and partial sums never leave the box, so
no shift wraps.  The rows of X are the fundamental cocircuits, so every
facet normal, a cocircuit vector read at the pivots, lies in {0, +-1}^d,
and p is interior iff p +- e_i lie in mZ for every i.  An interior point is
off every face of the box, where no +-e_i shift wraps, so the interior set
is the box off its faces ANDed with the 2d shifts of the points (p, the
midpoint of p +- e_i, is then a point too), and the box needs no padding.
BOX_GUARD bounds the box, so the bits of each int (10^7, about 1.25 MB,
with at most four live at once) and the work on them: each column takes
about log2(m+1) shift-ORs, each side of the face mask about log2 of its
length, and the interior 2d shift-ANDs.  One sumset gives both counts,
cached per (M, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from operator import mul

from .errors import GuardExceeded, NotUnimodular
from .exact import _integer
from .matroid import RealizedMatroid, invariant

BOX_GUARD = 10**7  # box points, one bit each in the lattice-point set


@dataclass(frozen=True)
class Facet:
    """alpha_min <= <c, x> <= alpha_max is a facet-inequality pair of Z."""

    c: tuple[int, ...]
    alpha_min: int
    alpha_max: int


@dataclass(frozen=True)
class HRep:
    facets: tuple[Facet, ...]
    d: int


def h_rep(M: RealizedMatroid) -> HRep:
    """Facet inequality pairs of Z, one per cocircuit vector.

    Raises NotUnimodular, naming a cocircuit vector with an entry outside
    {-1, 0, 1}, when M is not unimodular.
    """
    if M.d < 1:
        raise ValueError("h_rep requires d >= 1")
    if not M.is_unimodular():
        bad = next(cc.v for cc in M.cocircuits if max(map(abs, cc.v)) > 1)
        raise NotUnimodular(
            f"cocircuit vector {bad} has an entry outside {{-1, 0, 1}}")
    facets = tuple(Facet(cc.c, -cc.v.count(-1), cc.v.count(1))
                   for cc in M.cocircuits)
    return HRep(facets, M.d)


def lattice_count(M: RealizedMatroid, m: int, interior: bool = False) -> int:
    """Count the (interior) lattice points of the dilate mZ.

    The point zonotope (d = 0) has one lattice point and one interior
    lattice point at every dilate.
    """
    m = _integer(m, "dilate")
    if m < 1:
        raise ValueError("dilate m must be >= 1")
    if M.d == 0:
        return 1
    return _lattice_counts(M, m)[bool(interior)]


@invariant
def _frame(M: RealizedMatroid) -> list[list[int]]:
    """X = D * R = B^-1 A from the solved form (pivots, R), D its pivot
    entry and B the pivot columns of A, checked exactly against B X = A."""
    pivots, R = M._solved
    D = R[0][pivots[0]]
    X = [[D * x for x in row] for row in R]
    cols = list(zip(*X))
    for row in M.realization.entries:
        b = [row[p] for p in pivots]
        if tuple(sum(map(mul, b, col)) for col in cols) != row:
            raise ArithmeticError("the solved form fails B * (D * R) = A")
    return X


def _spread(bits: int, offset: int, count: int) -> int:
    """The set bits + {0, 1, .., count - 1} * offset, by doubling; the
    caller keeps every shifted bit inside its box."""
    if count < 1:
        return 0
    done = 1
    while done < count:
        step = min(done, count - done)
        shift = step * offset
        bits |= bits << shift if shift >= 0 else bits >> -shift
        done += step
    return bits


@invariant
def _lattice_counts(M: RealizedMatroid, m: int) -> tuple[int, int]:
    """(closed, interior) lattice-point counts of mZ, from one sumset."""
    if not M.is_unimodular():
        h_rep(M)  # raises NotUnimodular, naming a cocircuit
    X = _frame(M)
    sizes = [m * sum(map(abs, row)) + 1 for row in X]
    volume = math.prod(sizes)
    if volume > BOX_GUARD:
        raise GuardExceeded(
            f"bounding box volume {volume} exceeds BOX_GUARD={BOX_GUARD}")
    strides = list(accumulate(sizes[:-1], mul, initial=1))
    # the origin's bit: row i's coordinates start at m * (its negative sum)
    points = 1 << -m * sum(s * sum(a for a in row if a < 0) for s, row in zip(strides, X))
    for col in zip(*X):
        points = _spread(points, sum(map(mul, col, strides)), m + 1)
    # the box inside its faces: every coordinate one step off both ends
    interior = 1 << sum(strides)
    for s, size in zip(strides, sizes):
        interior = _spread(interior, s, size - 2)
    for s in strides:
        interior &= points >> s
        interior &= points << s
    return points.bit_count(), interior.bit_count()


def tutte_count(M: RealizedMatroid, m: int, interior: bool = False) -> int:
    """Stanley's count m^d * T_M((m -+ 1)/m, 1), cleared to integers.

    The rational argument is never formed: the x-degree bound of the Tutte
    polynomial clears m^d exactly.
    """
    m = _integer(m, "dilate")
    if m < 1:
        raise ValueError("dilate m must be >= 1")
    num = m - 1 if interior else m + 1
    T = M.tutte()
    return sum(sum(g.c) * num**a * m**(M.d - a) for a, g in enumerate(T.c, T.lo))
