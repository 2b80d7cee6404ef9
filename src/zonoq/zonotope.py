"""Geometry oracle: facet description and enumerated lattice-point counts.

The H-description of Z = A * [0,1]^n comes straight from the cocircuit
vectors: each one gives a pair of parallel facet inequalities, of width
equal to its support size since A is unimodular.  Counting is plain enumeration
against those inequalities, which is exact and independent of every closed
formula it is used to check.  It iterates over the bounding box without its
longest coordinate: for each prefix of the other coordinates, each facet pair
bounds that last coordinate to an integer interval (or, where the facet does
not involve it, passes or fails outright), and the prefix contributes the
length of the intersection of those intervals.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

from .errors import GuardExceeded, NotUnimodular
from .matroid import RealizedMatroid

BOX_GUARD = 10**7


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
    rep = h_rep(M)
    ranges = [range(m * sum(min(0, a) for a in row), m * sum(max(0, a) for a in row) + 1)
              for row in M.realization.entries]
    volume = math.prod(map(len, ranges))
    if volume > BOX_GUARD:
        raise GuardExceeded(
            f"bounding box volume {volume} exceeds BOX_GUARD={BOX_GUARD}")
    last = max(range(M.d), key=lambda i: len(ranges[i]))
    # lo <= <c', x'> + a * x_last <= hi per facet pair, signed so that a >= 0;
    # interior points satisfy the strict inequalities, lo+1 ... hi-1
    strict = 1 if interior else 0
    bounds = []
    for f in rep.facets:
        a = f.c[last]
        lo, hi = m * f.alpha_min + strict, m * f.alpha_max - strict
        rest = f.c[:last] + f.c[last + 1:]
        if a < 0:
            a, lo, hi, rest = -a, -hi, -lo, tuple(-x for x in rest)
        bounds.append((rest, a, lo, hi))
    t_min, t_max = ranges[last].start, ranges[last].stop - 1
    count = 0
    for prefix in itertools.product(*(ranges[:last] + ranges[last + 1:])):
        t_lo, t_hi = t_min, t_max
        for rest, a, lo, hi in bounds:
            s = sum(map(operator.mul, rest, prefix))
            if a:
                t_lo = max(t_lo, -((s - lo) // a))
                t_hi = min(t_hi, (hi - s) // a)
                if t_lo > t_hi:
                    break
            elif not lo <= s <= hi:
                break
        else:
            count += t_hi - t_lo + 1
    return count


def tutte_count(M: RealizedMatroid, m: int, interior: bool = False) -> int:
    """Stanley's count m^d * T_M((m -+ 1)/m, 1), cleared to integers.

    The rational argument is never formed: the x-degree bound of the Tutte
    polynomial clears m^d exactly.
    """
    if m < 1:
        raise ValueError("dilate m must be >= 1")
    num = m - 1 if interior else m + 1
    T = M.tutte()
    return sum(c * num**a * m**(M.d - a) for (a, b), c in T.items())
