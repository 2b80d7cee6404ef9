"""Exact integer linear algebra kernels.

Everything here works on plain Python ints (no floats): fraction-free
Bareiss elimination for the ranks and determinants of small dense matrices,
a sparse streaming echelon for large row sets, and a Fraction-based
nullspace solver that returns primitive integer kernel vectors.

The sparse echelon takes each row as a ``{column: value}`` dict with int
columns; an absent column is zero.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Mapping, Sequence


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination produced a non-exact division")
    return q


def rank_int(rows: Sequence[Sequence[int]]) -> int:
    """Rank of an integer matrix via fraction-free Gaussian elimination."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for col in range(nc):
        piv = None
        for i in range(rank, nr):
            if m[i][col]:
                piv = i
                break
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for i in range(rank + 1, nr):
            f = m[i][col]
            row = m[i]
            top = m[rank]
            for j in range(col + 1, nc):
                row[j] = _exact_div(p * row[j] - f * top[j], prev)
            row[col] = 0
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix (Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not m[k][k]:
            piv = None
            for i in range(k + 1, n):
                if m[i][k]:
                    piv = i
                    break
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = _exact_div(m[k][k] * m[i][j] - m[i][k] * m[k][j], prev)
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def echelon_rank(rows: Iterable[Mapping[int, int]], stop_at: int | None = None) -> int:
    """Rank of a stream of sparse integer rows, each a ``{column: value}``
    dict (zero entries are dropped).

    Pivot rows are kept by lead (smallest) column.  An incoming row is
    reduced at its lead by ``row = (p/g) row - (f/g) pivot`` with
    g = gcd(p, f), then divided by the gcd of its entries, until it is zero
    or has a lead no pivot owns.  Exits once ``stop_at`` independent rows
    have been seen.  Suited to large redundant row sets (spans of ideal
    generators) where most rows reduce to zero.
    """
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        row = {j: v for j, v in r.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                break
            p, f = pivot[lead], row[lead]
            g = gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                row = {j: p * v for j, v in row.items()}
            for j, v in pivot.items():
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    del row[j]
            g = gcd(*row.values())
            if g > 1:
                row = {j: v // g for j, v in row.items()}
        if not row:
            continue
        pivots[lead] = row
        if stop_at is not None and len(pivots) >= stop_at:
            break
    return len(pivots)


def primitive_vector(vec: Sequence[Fraction | int]) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, first nonzero
    entry positive."""
    fracs = [Fraction(v) for v in vec]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-w for w in ints]
            break
    return tuple(ints)


def nullspace_primitive(rows: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel of an integer matrix.

    Vectors are sign-normalized (first nonzero entry positive) and returned
    in order of their free column.
    """
    m = [[Fraction(v) for v in r] for r in rows]
    nr = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nr):
            if m[i][c]:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][fc]
        basis.append(primitive_vector(vec))
    return basis
