"""Geometry oracle: facet description and enumerated lattice-point counts.

The H-description of Z = A * [0,1]^n comes straight from the cocircuit
vectors: each one gives a pair of parallel facet inequalities, of width
equal to its support size since A is unimodular.  Counting is plain enumeration
against those inequalities, which is exact and independent of every closed
formula it is used to check.  It walks the bounding box without its longest
coordinate column-wise: each facet's sums over a block of trailing coordinates
are one list (facets x block points <= BLOCK_ENTRIES), and for each prefix of
the other coordinates the lists fold elementwise into the integer interval left
on the last coordinate; one step inside it lie the interior points.  One walk
gives both counts, cached per (M, m).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, product, repeat
from operator import mul, sub

from .errors import GuardExceeded, NotUnimodular
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
    if m < 1:
        raise ValueError("dilate m must be >= 1")
    if M.d == 0:
        return 1
    return _lattice_counts(M, m)[interior]


@invariant
def _lattice_counts(M: RealizedMatroid, m: int) -> tuple[int, int]:
    """(closed, interior) lattice-point counts of mZ, from one walk."""
    rep = h_rep(M)
    ranges = [range(m * sum(min(0, a) for a in row), m * sum(max(0, a) for a in row) + 1)
              for row in M.realization.entries]
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
    # lo <= <c', x'> + a * x_last <= hi per facet pair, signed so that a >= 0,
    # with <c', x'> = s + x: s over the outer coordinates, x over the block
    unit, steep, flat = [], [], []
    for f in rep.facets:
        a, lo, hi = f.c[last], m * f.alpha_min, m * f.alpha_max
        c = f.c[:last] + f.c[last + 1:]
        if a < 0:
            a, lo, hi, c = -a, -hi, -lo, tuple(-x for x in c)
        xs = [0]
        for ci, r in zip(c[split:], spans[split:]):
            xs = [s + ci * x for s in xs for x in r]
        (flat if a == 0 else unit if a == 1 else steep).append((c[:split], a, lo, hi, xs))
    t_min, t_max, block = ranges[last][0], ranges[last][-1], len(xs)
    closed = interior = 0
    for prefix in product(*spans[:split]):
        # x_last in [lo - v, hi + 1 - v) for v = s + x over the a = 1 facets,
        # one step inside for interior points; a = 0 facets keep the block
        # points whose slack min(v - lo, hi - v) is >= 0 (>= 1 for interior)
        lows, highs = [repeat(t_min, block)], [repeat(t_max + 1, block)]
        slacks = [repeat(1, block)]
        for c, _, lo, hi, xs in unit:
            s = sum(map(mul, c, prefix))
            lows.append(map((lo - s).__sub__, xs))
            highs.append(map((hi + 1 - s).__sub__, xs))
        for c, _, lo, hi, xs in flat:
            s = sum(map(mul, c, prefix))
            slacks += [map((s - lo).__add__, xs), map((hi - s).__sub__, xs)]
        lo_c, hi_c = list(map(max, zip(*lows))), list(map(min, zip(*highs)))
        lo_i, hi_i = map((1).__add__, lo_c), map((-1).__add__, hi_c)
        for c, a, lo, hi, xs in steep:
            v = [sum(map(mul, c, prefix)) + x for x in xs]
            lo_c = list(map(max, lo_c, [-((y - lo) // a) for y in v]))
            hi_c = list(map(min, hi_c, [(hi - y) // a + 1 for y in v]))
            lo_i = list(map(max, lo_i, [(lo - y) // a + 1 for y in v]))
            hi_i = list(map(min, hi_i, [-((y - hi) // a) for y in v]))
        slack = list(map(min, zip(*slacks)))
        closed += sum(map(max, compress(map(sub, hi_c, lo_c), map((-1).__lt__, slack)), repeat(0)))
        interior += sum(map(max, compress(map(sub, hi_i, lo_i), map((0).__lt__, slack)), repeat(0)))
    return closed, interior


def tutte_count(M: RealizedMatroid, m: int, interior: bool = False) -> int:
    """Stanley's count m^d * T_M((m -+ 1)/m, 1), cleared to integers.

    The rational argument is never formed: the x-degree bound of the Tutte
    polynomial clears m^d exactly.
    """
    if m < 1:
        raise ValueError("dilate m must be >= 1")
    num = m - 1 if interior else m + 1
    T = M.tutte()
    return sum(sum(g.c) * num**a * m**(M.d - a) for a, g in enumerate(T.c, T.lo))
