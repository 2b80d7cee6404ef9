"""Geometry oracle: facet description and enumerated lattice-point counts.

The H-description of Z = A * [0,1]^n comes straight from the cocircuit
vectors: each one gives a pair of parallel facet inequalities, of width
equal to its support size since A is unimodular.  Counting is plain enumeration
against those inequalities, which is exact and independent of every closed
formula it is used to check.

The walk runs in the lattice basis of A's pivot columns B: on X = B^-1 A, read
off the matroid's solved form and checked exactly against A once per matroid,
so that a wrong solved form raises instead of feeding both the walk and the
Tutte polynomial.  B is unimodular, so X has the same lattice points, and X
is the same matrix for every presentation U A of the row space.  Its rows are
the fundamental cocircuits, so the box is m * [-#neg, #pos] per row, and
every facet normal, a cocircuit vector read at the pivots, lies in
{0, +-1}^d.  The walk visits the bounding box without its longest coordinate
column-wise: each facet's sums over a block of trailing coordinates are one
list (facets x block points <= BLOCK_ENTRIES), and for each prefix of the
other coordinates the lists fold elementwise into the integer interval left on
the last coordinate; one step inside it lie the interior points.  One walk
gives both counts, cached per (M, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, product, repeat
from operator import mul, sub

from .errors import GuardExceeded, NotUnimodular
from .exact import _integer
from .matroid import RealizedMatroid, invariant

BOX_GUARD = 10**7
BLOCK_ENTRIES = 2**16  # facets x block points the lattice walk holds at once


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
def _frame(M: RealizedMatroid) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """(X, normals): X = D * R = B^-1 A from the solved form (pivots, R), D
    its pivot entry and B the pivot columns of A, checked exactly against
    B X = A; and each cocircuit's facet normal in X's coordinates, its
    vector v read at the pivots, in ``M.cocircuits`` order."""
    pivots, R = M._solved
    D = R[0][pivots[0]]
    X = [[D * x for x in row] for row in R]
    cols = list(zip(*X))
    for row in M.realization.entries:
        b = [row[p] for p in pivots]
        if tuple(sum(map(mul, b, col)) for col in cols) != row:
            raise ArithmeticError("the solved form fails B * (D * R) = A")
    return X, [tuple(cc.v[p] for p in pivots) for cc in M.cocircuits]


@invariant
def _lattice_counts(M: RealizedMatroid, m: int) -> tuple[int, int]:
    """(closed, interior) lattice-point counts of mZ, from one walk."""
    rep = h_rep(M)
    X, normals = _frame(M)
    ranges = [range(m * sum(min(0, a) for a in row), m * sum(max(0, a) for a in row) + 1)
              for row in X]
    volume = math.prod(map(len, ranges))
    if volume > BOX_GUARD:
        raise GuardExceeded(
            f"bounding box volume {volume} exceeds BOX_GUARD={BOX_GUARD}")
    last = max(range(M.d), key=lambda i: len(ranges[i]))
    spans = ranges[:last] + ranges[last + 1:]
    # the block: the most trailing prefix coordinates whose points, one list
    # of them per facet, fit in BLOCK_ENTRIES entries
    split, size = len(spans), len(rep.facets)
    while split and size * len(spans[split - 1]) <= BLOCK_ENTRIES:
        split -= 1
        size *= len(spans[split])
    # lo <= <c', x'> + a * x_last <= hi per facet pair, a in {0, 1} once
    # signed, with <c', x'> = s + x: s over the outer coordinates, x over the
    # block
    unit, flat = [], []
    for f, normal in zip(rep.facets, normals):
        a, lo, hi = normal[last], m * f.alpha_min, m * f.alpha_max
        c = normal[:last] + normal[last + 1:]
        if a < 0:
            lo, hi, c = -hi, -lo, tuple(-x for x in c)
        xs = [0]
        for ci, r in zip(c[split:], spans[split:]):
            xs = [s + ci * x for s in xs for x in r]
        (unit if a else flat).append((c[:split], lo, hi, xs))
    t_min, t_max, block = ranges[last][0], ranges[last][-1], len(xs)
    closed = interior = 0
    for prefix in product(*spans[:split]):
        # x_last in [lo - v, hi + 1 - v) for v = s + x over the a = 1 facets,
        # one step inside for interior points; a = 0 facets keep the block
        # points whose slack min(v - lo, hi - v) is >= 0 (>= 1 for interior)
        lows, highs = [repeat(t_min, block)], [repeat(t_max + 1, block)]
        slacks = [repeat(1, block)]
        for c, lo, hi, xs in unit:
            s = sum(map(mul, c, prefix))
            lows.append(map((lo - s).__sub__, xs))
            highs.append(map((hi + 1 - s).__sub__, xs))
        for c, lo, hi, xs in flat:
            s = sum(map(mul, c, prefix))
            slacks += [map((s - lo).__add__, xs), map((hi - s).__sub__, xs)]
        lo_c, hi_c = list(map(max, zip(*lows))), list(map(min, zip(*highs)))
        lo_i, hi_i = map((1).__add__, lo_c), map((-1).__add__, hi_c)
        slack = list(map(min, zip(*slacks)))
        closed += sum(map(max, compress(map(sub, hi_c, lo_c), map((-1).__lt__, slack)), repeat(0)))
        interior += sum(map(max, compress(map(sub, hi_i, lo_i), map((0).__lt__, slack)), repeat(0)))
    return closed, interior


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
