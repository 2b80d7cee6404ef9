"""Hilbert series of zonotopal algebras by exact linear algebra.

The external (resp. internal) zonotopal algebra is the quotient of the
polynomial ring on d variables by the powers v^(m(v)+1) (resp. v^(m(v)-1))
of the cocircuit linear forms.  Graded dimensions are computed degree by
degree as (number of monomials) - rank(span of monomial multiples of the
generators), with exact integer elimination.  This is the independent
algebraic oracle against the Tutte-evaluation formulas.

The generators are expanded sparsest first: by the number of nonzero
coefficients of the linear form, then by exponent, ties in spec order.
Coordinate-like forms give near-monomial pivot rows, which keep the echelon
basis sparse while the denser forms are reduced against it; the rank, and
so every dimension, does not depend on the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import GuardExceeded
from .exact import LaurentQ
from .linalg import echelon_rank
from .matroid import RealizedMatroid

MONOMIAL_GUARD = 50_000


@dataclass(frozen=True)
class GradedIdealSpec:
    """Powers of integer linear forms generating a zero-dimensional ideal.

    generators: (c, e) pairs for the form (sum_i c_i x_i)^e.  An exponent-0
    generator marks the whole ring as the ideal (zero quotient).
    """

    variables: int
    generators: tuple[tuple[tuple[int, ...], int], ...]
    degree_cap: int


@dataclass(frozen=True)
class HilbertFunction:
    dims: tuple[int, ...]
    as_laurent: LaurentQ

    @property
    def total(self) -> int:
        return sum(self.dims)


def external_spec(M: RealizedMatroid) -> GradedIdealSpec:
    """Generators v^(m(v)+1), one per cocircuit vector, in the coordinates
    c of the row space."""
    return _spec(M, +1)


def internal_spec(M: RealizedMatroid) -> GradedIdealSpec:
    """Generators v^(m(v)-1); a coloop contributes exponent 0, which makes
    the quotient zero (flagged degenerate, not an error)."""
    return _spec(M, -1)


def _spec(M: RealizedMatroid, shift: int) -> GradedIdealSpec:
    if M.d < 1:
        raise ValueError("ideal specs require d >= 1")
    gens = tuple((cc.c, cc.support_size + shift) for cc in M.cocircuits)
    return GradedIdealSpec(M.d, gens, M.n + 1)


def _monomials(d: int, k: int, base: int) -> list[int]:
    """Columns of the degree-k monomials in d variables, ascending.

    x^e has column -(e read in base ``base`` > k, x_1 most significant):
    ascending columns run in graded-lex order, and the column of a product
    of monomials is the sum of their columns.
    """
    if d == 0:
        return [0] if k == 0 else []
    out = []

    def rec(col: int, rest: int, pos: int):
        if pos == d - 1:
            out.append(col - rest)
            return
        weight = base ** (d - 1 - pos)
        for e in range(rest, -1, -1):
            rec(col - e * weight, rest - e, pos + 1)

    rec(0, k, 0)
    return out


def _form_power(c: tuple[int, ...], e: int, base: int) -> dict[int, int]:
    """Expand (sum c_i x_i)^e as monomial column -> coefficient."""
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


def hilbert(spec: GradedIdealSpec) -> HilbertFunction:
    """Graded dimensions of the quotient by the spanned ideal.

    dims[k] = C(d+k-1, k) - rank{monomial * generator in degree k}; the
    computation stops at the first zero dimension (the ideal then contains
    every higher degree) and must terminate by degree_cap.  Monomial
    columns are read in base degree_cap + 1, so a product is one addition.
    """
    d = spec.variables
    if any(e == 0 for _, e in spec.generators):
        return HilbertFunction((), LaurentQ.zero())
    base = spec.degree_cap + 1
    sparsest_first = sorted(spec.generators,
                            key=lambda g: (sum(1 for x in g[0] if x), g[1]))
    expanded = [(_form_power(c, e, base), e) for c, e in sparsest_first]
    dims: list[int] = []
    for k in range(spec.degree_cap + 1):
        ncols = comb(d + k - 1, k) if k else 1
        if ncols > MONOMIAL_GUARD:
            raise GuardExceeded(
                f"degree {k} has {ncols} monomials > MONOMIAL_GUARD={MONOMIAL_GUARD}")
        shifts = {s: _monomials(d, s, base) for s in {k - e for _, e in expanded if e <= k}}

        def rows():
            for poly, e in expanded:
                if e > k:
                    continue
                for shift in shifts[k - e]:
                    yield {col + shift: co for col, co in poly.items()}

        rank = echelon_rank(rows(), stop_at=ncols)
        dim = ncols - rank
        if dim == 0:
            break
        dims.append(dim)
    else:
        raise ArithmeticError("quotient did not vanish by degree_cap")
    return HilbertFunction(tuple(dims),
                           LaurentQ({k: v for k, v in enumerate(dims)}))


def verify_zonotopal(M: RealizedMatroid) -> bool:
    """Check both zonotopal Hilbert series against their Tutte evaluations:
    external = q^(n-d) T(1+q, 1/q) and internal = q^(n-d) T(0, 1/q)."""
    d, n = M.d, M.n
    ext = M.tutte().q_eval(2, 1, d, -1).shift(n - d)  # 1 + q = [2]_q
    intr = M.tutte().q_eval(0, 1, d, -1).shift(n - d)
    return (hilbert(external_spec(M)).as_laurent == ext
            and hilbert(internal_spec(M)).as_laurent == intr)
