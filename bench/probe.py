"""Host-speed probe: a fixed piece of pure-Python work, independent of zonoq.

The benchmark runs on shared virtual machines whose speed swings by tens of
percent from one second to the next, and for long enough that a whole run
can fall inside a slow or a fast spell.  CPU time swings with wall time, so
the swings are the host's, not the program's.  A worker therefore times
this probe before every item and after the last one, outside the item
clocks, and ``run.py`` scales each item's latency by ``REF_S`` over the mean
of the two probes around it: latencies read as they would on a host where
the probe takes ``REF_S``.  The probe never calls zonoq, so a change to the
program moves the scaled times in full.

The work mixes what dominates zonoq's own time, in code of its own: products
of sparse exponent -> integer dictionaries (Laurent polynomials), small
polynomial objects, fraction-free elimination of integer rows with gcd
normalisation, exact ``Fraction`` elimination, determinants of minors cached
under frozenset keys (rank queries), and short-lived small containers.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd
from time import perf_counter

# seconds the probe takes on the reference host (a 2-vCPU Intel Xeon virtual
# machine shared with other tenants, CPython 3.11); scaled times are
# expressed on that host
REF_S = 0.025

_rng = random.Random("zonoq-bench-probe")
_POLY = {_rng.randrange(-24, 24): _rng.randrange(1, 10 ** 6) for _ in range(40)}
_ROWS = [[_rng.randrange(-3, 4) for _ in range(24)] for _ in range(30)]
_FRACS = [[Fraction(_rng.randrange(-4, 5), _rng.randrange(1, 4)) for _ in range(7)]
          for _ in range(6)]
_VECS = [tuple(_rng.randrange(-1, 2) for _ in range(4)) for _ in range(9)]


class _Poly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, int]):
        self.terms = {e: c for e, c in terms.items() if c}

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict[int, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return _Poly(out)

    def __add__(self, other: "_Poly") -> "_Poly":
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return _Poly(out)


def _dict_products() -> int:
    acc = 0
    for _ in range(24):
        out: dict[int, int] = {}
        for e1, c1 in _POLY.items():
            for e2, c2 in _POLY.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        acc += len(out)
    poly, step = _Poly({0: 1}), _Poly({-1: 1, 1: 1})
    for k in range(40):
        poly = poly * step + _Poly({k % 5: k})
        if len(poly.terms) > 30:
            poly = _Poly({0: 1})
    return acc + len(poly.terms)


def _integer_rank() -> int:
    echelon: list[tuple[int, list[int]]] = []
    for r in _ROWS:
        row = list(r)
        for pc, erow in echelon:
            f = row[pc]
            if f:
                p = erow[pc]
                row = [p * x for x in row]
                for j in range(pc, len(row)):
                    row[j] -= f * erow[j]
                g = 0
                for v in row:
                    g = gcd(g, v)
                if g > 1:
                    row = [v // g for v in row]
        lead = next((j for j, v in enumerate(row) if v), None)
        if lead is not None:
            echelon.append((lead, row))
            echelon.sort(key=lambda t: t[0])
    return len(echelon)


def _fraction_rank() -> int:
    m = [row[:] for row in _FRACS]
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _det(rows: list[list[int]]) -> int:
    """Bareiss determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minors() -> int:
    d = len(_VECS[0])
    cache: dict[frozenset, int] = {}
    for cols in itertools.combinations(range(len(_VECS)), d):
        cache[frozenset(cols)] = _det([[_VECS[j][i] for j in cols] for i in range(d)])
    ordered = sorted(cache.items(), key=lambda kv: (kv[1], sorted(kv[0])))
    return len(ordered)


def _containers() -> int:
    out = []
    for i in range(2500):
        d = {j: j * i for j in range(8)}
        out.append((tuple(d), frozenset(d.values())))
    return len(out)


def probe() -> float:
    """Seconds one run of the fixed work takes."""
    t = perf_counter()
    _dict_products()
    _integer_rank()
    _fraction_rank()
    _minors()
    _containers()
    return perf_counter() - t
