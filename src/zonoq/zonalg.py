"""Hilbert series of zonotopal algebras by exact linear algebra.

The external (resp. internal) zonotopal algebra is the quotient of the
polynomial ring on d variables by the powers v^(m(v)+1) (resp. v^(m(v)-1))
of the cocircuit linear forms: the independent algebraic oracle against the
Tutte-evaluation formulas.  At multiplicity m, m(v) = m|supp v| on M's
forms: the algebra of the m-thickening, without building it.

The elimination runs in coordinates where d generators are pure powers: d
independent forms become the variables y_1..y_d, and the quotient is that of
the box algebra Q[y]/(y_1^(e_1), ..., y_d^(e_d)) by the other generators,
each rewritten in y.  A linear change of coordinates keeps the Hilbert
series, whose q^k coefficient is that of prod_i [e_i]_q (the box monomials
of degree k) minus the exact integer rank of the box monomial multiples of
the other generators, each term outside the box dropped.  The box
monomials are listed once, degree by degree, by ``linalg.box_table`` as
integer columns, up to the first degree that ``MONOMIAL_GUARD`` refuses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import GuardExceeded
from .exact import LaurentQ
from .linalg import box_table, echelon_rank, primitive_vector, rref_int
from .matroid import RealizedMatroid

MONOMIAL_GUARD = 50_000


@dataclass(frozen=True)
class GradedIdealSpec:
    """Powers of integer linear forms generating a zero-dimensional ideal.

    generators: (c, e) pairs for the form (sum_i c_i x_i)^e, spanning Q^d.
    An exponent-0 generator marks the whole ring as the ideal (zero quotient).
    """

    variables: int
    generators: tuple[tuple[tuple[int, ...], int], ...]


def external_spec(M: RealizedMatroid, m: int = 1) -> GradedIdealSpec:
    """Generators v^(m|supp v|+1), one per cocircuit vector, in the
    coordinates c of the row space: the spec of ``M.thicken(m)``."""
    return _spec(M, m, +1)


def internal_spec(M: RealizedMatroid, m: int = 1) -> GradedIdealSpec:
    """Generators v^(m|supp v|-1); a coloop of M at m = 1 contributes
    exponent 0, which makes the quotient zero (degenerate, not an error)."""
    return _spec(M, m, -1)


def _spec(M: RealizedMatroid, m: int, shift: int) -> GradedIdealSpec:
    if m < 1:
        raise ValueError("ideal specs require m >= 1")
    if M.d < 1:
        raise ValueError("ideal specs require d >= 1")
    gens = tuple((cc.c, m * cc.support_size + shift) for cc in M.cocircuits)
    return GradedIdealSpec(M.d, gens)


def _box(bounds: list[int], base: int, top: int) -> list[dict[int, None]]:
    """The box monomials y^a (0 <= a_i < bounds[i]) of each degree up to
    ``top``, ascending, as columns: y^a has column -(a read in base ``base``
    > top, y_1 most significant), so ascending columns run in graded-lex
    order and the column of a product of monomials is the sum of theirs."""
    digits = [range(0, -e * base ** j, -base ** j) for j, e in enumerate(reversed(bounds))]
    return [dict.fromkeys(sorted(cols)) for cols in box_table(digits, top)]


def _box_coordinates(d: int, generators) -> tuple[list[int], list]:
    """(e_1..e_d of the pure powers y_i^(e_i), the other generators as
    (primitive form in y, exponent), sparsest first); ``ArithmeticError`` if
    the forms do not span Q^d.  One ``rref_int`` of the forms as columns,
    smallest exponent first, then sparsest, picks the pivot forms C; its
    column j is D * C^-1 * c_j, the form c_j in the coordinates y = C^T x.
    """
    order = sorted(generators, key=lambda g: (g[1], sum(1 for x in g[0] if x)))
    pivots, R = rref_int([[c[i] for c, _ in order] for i in range(d)])
    if len(pivots) < d:
        raise ArithmeticError("the forms do not span Q^d: the quotient never vanishes")
    chosen = set(pivots)
    others = [(primitive_vector([row[j] for row in R]), e)
              for j, (_, e) in enumerate(order) if j not in chosen]
    others.sort(key=lambda g: (sum(1 for x in g[0] if x), g[1]))
    return [order[j][1] for j in pivots], others


def _form_power(c: tuple[int, ...], e: int, base: int) -> dict[int, int]:
    """Expand (sum c_i y_i)^e as monomial column -> coefficient."""
    d = len(c)
    poly = {0: 1}
    lin = {-base ** (d - 1 - i): ci for i, ci in enumerate(c) if ci}
    for _ in range(e):
        nxt: dict[int, int] = {}
        for mono, co in poly.items():
            for lm, lc in lin.items():
                nxt[mono + lm] = nxt.get(mono + lm, 0) + co * lc
        poly = nxt
    return poly


def hilbert(spec: GradedIdealSpec) -> LaurentQ:
    """Hilbert series of the quotient by the spanned ideal, computed in the
    coordinates of ``_box_coordinates``.

    Degree k has the coefficient of q^k in prod_i [e_i]_q as its box
    monomials, held to MONOMIAL_GUARD: the box is listed once, below the
    first degree the guard refuses, if some row reaches it; the computation
    stops at the first zero dimension or at the box's top degree.
    """
    if any(e == 0 for _, e in spec.generators):
        return LaurentQ.zero()
    bounds, others = _box_coordinates(spec.variables, spec.generators)
    sizes = functools.reduce(LaurentQ.times_qint, bounds, LaurentQ.one()).terms
    # no digit of a column formed below passes the top degree: nothing carries
    base = len(sizes) + 1
    refused = next((k for k, size in sizes.items() if size > MONOMIAL_GUARD), len(sizes))
    lowest = min((e for _, e in others), default=base)  # no rows below it
    box = _box(bounds, base, refused - 1) if lowest < refused else []
    expanded = [(_form_power(c, e, base), e) for c, e in others]
    dims: dict[int, int] = {}
    for k, size in sizes.items():
        if size > MONOMIAL_GUARD:
            raise GuardExceeded(
                f"degree {k} has {size} box monomials > MONOMIAL_GUARD={MONOMIAL_GUARD}")
        cols = box[k] if k >= lowest else {}
        rows = ({col: co for c, co in poly.items() if (col := c + shift) in cols}
                for poly, e in expanded if e <= k for shift in box[k - e])
        dim = size - echelon_rank(rows, stop_at=size)
        if dim == 0:
            break
        dims[k] = dim
    return LaurentQ(dims)
