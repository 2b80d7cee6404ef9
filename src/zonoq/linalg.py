"""Exact integer linear algebra kernels.

Everything here works on plain Python ints (no floats, no rationals):
one dense kernel for small matrices, the fraction-free Gauss-Jordan form
``rref_int`` that ranks and kernels are read from, and a sparse streaming
echelon for large row sets.

The sparse echelon takes each row as a ``{column: value}`` dict with int
columns; an absent column is zero.  It reduces a copy of each row in place
and makes the row primitive once, when it becomes a pivot.  ``box_table``
lists the box points, by weight, that both elimination oracles take as columns.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Sequence


def _exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise ArithmeticError("fraction-free elimination produced a non-exact division")
    return q


def rref_int(rows: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """The fraction-free Gauss-Jordan form: (pivot columns, R = D * rref(rows)).

    Each pivot step replaces every other row by
    ``(p * row - f * pivot_row) / prev``, exact by Sylvester's identity, so
    each pivot entry of R ends equal to D, the last pivot (1 if none), and
    the pivot columns are the leftmost (greedy) column basis.  Division by a
    unit prev is done as a multiplication.
    """
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    pivots: list[int] = []
    prev = 1
    for col in range(nc):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[col]
        for i in range(nr):
            f = m[i][col]
            if i == r or (not f and p == prev):  # the row would not change
                continue
            if prev == 1:
                m[i] = [p * a - f * b for a, b in zip(m[i], top)]
            elif prev == -1:
                m[i] = [f * b - p * a for a, b in zip(m[i], top)]
            else:
                m[i] = [_exact_div(p * a - f * b, prev) for a, b in zip(m[i], top)]
        prev = p
        pivots.append(col)
        if len(pivots) == nr:
            break
    return pivots, m


def echelon_rank(rows: Iterable[Mapping[int, int]], stop_at: int | None = None) -> int:
    """Rank of a stream of sparse integer rows, each a ``{column: value}``
    dict (zero entries are dropped; the input rows are not modified).

    Pivots are kept by lead (smallest) column as (p, ((column, value), ...)):
    the lead value p > 0 and the other entries.  A copy of each row is
    reduced in place while a pivot owns its lead f: with g = gcd(p, f), the
    lead is popped, the rest scaled by p/g (unless 1; never -1) and (f/g)
    times the pivot's tail subtracted.  A nonzero row whose lead has no pivot
    is divided by the gcd of its entries, signed like its lead, and becomes
    one.  Exits once ``stop_at`` independent rows have been seen, before
    reading a row if it is 0.
    Suited to large redundant row sets (spans of ideal generators) where
    most rows reduce to zero.
    """
    if stop_at == 0:
        return 0
    pivots: dict[int, tuple[int, tuple[tuple[int, int], ...]]] = {}
    for r in rows:
        row = {j: v for j, v in r.items() if v}
        get = row.get
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                break
            f = row.pop(lead)
            p, tail = pivot
            g = gcd(p, f)
            if g != p:
                s = p // g
                for j in row:
                    row[j] *= s
            f //= g
            for j, v in tail:
                x = get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    del row[j]
        if not row:
            continue
        g = gcd(*row.values())
        if row[lead] < 0:
            g = -g
        pivots[lead] = (row.pop(lead) // g, tuple([(j, v // g) for j, v in row.items()]))
        if stop_at is not None and len(pivots) >= stop_at:
            break
    return len(pivots)


def box_table(digits: Sequence[Sequence[int]], top: int | None = None) -> list[list[int]]:
    """Entry w lists the values sum_j digits[j][b_j] of the points b of the
    box prod_j {0..len(digits[j]) - 1} with |b| = w, for each w up to ``top``
    (default: the box's top weight).  Built one coordinate at a time, so no
    weight above ``top`` is ever visited."""
    table = [[0]]
    for values in digits:
        width = len(table) + len(values) - 1
        width = width if top is None else min(width, top + 1)
        table = [[x + v for e, v in enumerate(values) if 0 <= w - e < len(table)
                  for x in table[w - e]] for w in range(width)]
    return table


def primitive_vector(vec: Sequence[int]) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, first nonzero
    entry positive (the zero vector is returned as is)."""
    g = gcd(*vec)
    for v in vec:  # the sign of the first nonzero entry
        if v:
            g = -g if v < 0 else g
            break
    return tuple(vec) if g in (0, 1) else tuple([v // g for v in vec])


def nullspace_primitive(pivots: Sequence[int], R: Sequence[Sequence[int]],
                        ncols: int) -> list[tuple[int, ...]]:
    """Primitive integer basis of the right kernel of an integer matrix with
    ``ncols`` columns, read off its solved form ``(pivots, R) = rref_int``:
    free column fc gives the vector with D at fc and -R[i][fc] at the i-th
    pivot column.  Vectors are sign-normalized (first nonzero entry positive)
    and returned in order of their free column.
    """
    D = R[0][pivots[0]] if pivots else 1
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = D
        for row, pc in zip(R, pivots):
            vec[pc] = -row[fc]
        basis.append(primitive_vector(vec))
    return basis
