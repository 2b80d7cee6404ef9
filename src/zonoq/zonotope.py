"""Geometry oracle: facet description and brute-force lattice-point counts.

The H-description of Z = A * [0,1]^n comes straight from the cocircuit
vectors: each one gives a pair of parallel facet inequalities, of width
equal to its support size since A is unimodular.  Counting is plain enumeration
of the bounding box filtered through those inequalities, which is exact and
independent of every closed formula it is used to check.
"""

from __future__ import annotations

import itertools
import math
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
    count = 0
    facets = rep.facets
    for x in itertools.product(*ranges):
        ok = True
        for f in facets:
            val = sum(ci * xi for ci, xi in zip(f.c, x))
            if interior:
                if not (m * f.alpha_min < val < m * f.alpha_max):
                    ok = False
                    break
            elif not (m * f.alpha_min <= val <= m * f.alpha_max):
                ok = False
                break
        if ok:
            count += 1
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
