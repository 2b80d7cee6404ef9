"""Graded lattice-point counts, quantum Ehrhart polynomials and series.

The central formula: for unimodular Z with matroid M and dilate m >= 1,

    count(m; q) = q^((n-d)m) [m]_q^d T_M([m +- 1]_q / [m]_q, q^(-m)),

with + for all lattice points and - for interior ones.  Every rational-
function evaluation of T_M is performed by clearing denominators against its
degree bounds, so the whole module stays inside exact Laurent arithmetic.

Every factor in it is a q-integer, multiplied in linear time by
``exact._times_qint`` (the running sum of c - q^k c on a coefficient list c;
``LaurentQ.times_qint`` wraps it, ``over_qint`` inverts it).  The t-power
form is summed on one integer grid (entry k (n+1) + e holds t^k q^e), every
other sum by the row kernel ``exact._add_row``: the ``LaurentQ`` sums of the
q-binomial conversion and, on (q-offset, integer list) rows whose values are
built once at return, the graded counts (``BiPolyXY.q_eval``, closed and
interior from one call), both series numerators (a row per power of t),
their expansion (``exact.expand``) and the bar values (one pass).

The graded Ehrhart polynomial is a quantum integer-valued polynomial: it is
stored in the q-binomial-coefficient-polynomial basis, in which evaluation,
the bar involution q -> 1/q, t -> -qt, and rational generating functions all
have closed forms.  Its basis coefficients come from the t-power form by
Horner's rule, t sum_k F_k binom(x,k)_q = sum_k [k]_q (F_k + q^(k-1) F_(k-1))
binom(x,k)_q at t = [x]_q, and both series numerators by Horner's rule over
the denominator's factors: shifts, sums and ``times_qint`` only.

The graded-count pair (closed, interior) of each dilate, the Ehrhart
polynomial (both forms) and both series are built once per matroid and
shared by every caller (see ``matroid.invariant``).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from .errors import NotUnimodular
from .exact import LaurentQ, PolyTQ, RatSeries, _add_row, _integer, _times_qint
from .matroid import RealizedMatroid, invariant


@dataclass(frozen=True)
class GradedCount:
    """The polynomial in q counting (interior) lattice points of mZ by
    orbit-harmonics degree."""

    value: LaurentQ
    m: int
    interior: bool


@dataclass(frozen=True)
class QIVP:
    """A quantum integer-valued polynomial, stored by its coefficients
    f_0(q), ..., f_degree(q) in the q-binomial-coefficient basis."""

    basis_coeffs: tuple[LaurentQ, ...]
    degree: int

    def __post_init__(self):
        if len(self.basis_coeffs) != self.degree + 1:
            raise ValueError("need exactly degree + 1 basis coefficients")


_POINT_COUNT = GradedCount(LaurentQ.one(), 0, False)  # at m = 0, for every M


def graded_count(M: RealizedMatroid, m: int, interior: bool = False) -> GradedCount:
    """q-graded count of (interior) lattice points of the dilate mZ."""
    if not M.is_unimodular():
        raise NotUnimodular("graded counts require a unimodular realization")
    m = _integer(m, "dilate")
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        if interior:
            raise ValueError("the interior count is undefined at m = 0")
        return _POINT_COUNT
    return _dilate_counts(M, m)[bool(interior)]


@invariant
def _dilate_counts(M: RealizedMatroid, m: int) -> tuple[GradedCount, GradedCount]:
    """The closed and the interior count at m >= 1: one ``q_eval`` of T_M."""
    closed, inner = M.tutte().q_eval((m + 1, m - 1), m, M.d, -m)
    e = (M.n - M.d) * m
    return GradedCount(closed.shift(e), m, False), GradedCount(inner.shift(e), m, True)


@invariant
def ehr_tpower(M: RealizedMatroid) -> PolyTQ:
    """The graded Ehrhart polynomial in plain t-power form.

    sum_{a,b} c_ab (1+qt)^a t^(d-a) (1+(q-1)t)^(n-d-b) (the degree bounds of
    T_M clear both denominators) by Horner's rule over n-d-b and over a, on
    one integer grid: entry k W + e holds the coefficient of t^k q^e, W = n+1.
    No step wraps, as every q-degree is at most its t-degree, at most n; so
    1 + qt adds the grid shifted by W + 1, and 1 + (q-1)t subtracts it
    shifted by W as well.
    """
    if not M.is_unimodular():
        raise NotUnimodular("the graded Ehrhart polynomial requires unimodularity")
    d, n = M.d, M.n
    T = M.tutte()
    W = n + 1
    out = [0] * (W * W)
    for b in range(n - d + 1):
        out = list(map(sub, map(add, out, [0] * (W + 1) + out), [0] * W + out))
        acc = [0] * ((d + 1) * W)
        for a in range(d, -1, -1):
            acc = list(map(add, acc, [0] * (W + 1) + acc))
            acc[(d - a) * W] += T.coeff(a, b)
        out[:len(acc)] = map(add, out, acc)
    return PolyTQ._make(0, [LaurentQ._make(0, out[k:k + W]) for k in range(0, W * W, W)])


@invariant
def ehr_poly(M: RealizedMatroid) -> QIVP:
    """The graded Ehrhart polynomial in the q-binomial basis, converted from
    its t-power form by Horner's rule (see ``_qbinomial_coeffs``)."""
    return QIVP(_qbinomial_coeffs(ehr_tpower(M), M.n), M.n)


def _qbinomial_coeffs(p: PolyTQ, D: int) -> tuple[LaurentQ, ...]:
    """F_0, ..., F_D with p([x]_q) = sum_k F_k binom(x,k)_q, t-degree of p <= D.

    Horner's rule over the t-coefficients of p: by [x]_q = [k]_q + q^k [x-k]_q
    and [x-k]_q binom(x,k)_q = [k+1]_q binom(x,k+1)_q, multiplying by t maps
    F_k to [k]_q (F_k + q^(k-1) F_(k-1)), and F_0 to 0.
    """
    zero = LaurentQ.zero()
    F: list[LaurentQ] = []
    for g in [*reversed(p.c)] + [zero] * p.lo:  # lo zeros below c
        F = [g, *((a + b.shift(k - 1)).times_qint(k)
                  for k, (a, b) in enumerate(zip(F[1:] + [zero], F), 1))]
    return tuple(F + [zero] * (D + 1 - len(F)))


def _bar_terms(P: QIVP, d: int = 0) -> list[LaurentQ]:
    """h_k = (-1)^(k+d) q^(k(k+1)/2 - d) bar(f_k).  At d = 0 these are the
    terms of both bar sums of P; a nonzero d multiplies both by (-1)^d q^(-d)."""
    h = [f.bar().shift(k * (k + 1) // 2 - d) for k, f in enumerate(P.basis_coeffs)]
    return [-g if (k + d) % 2 else g for k, g in enumerate(h)]


def _bar_values(h: list[LaurentQ], m_max: int) -> list[LaurentQ]:
    """sum_k h_k binom(m+k-1, k)_q for m = 1..m_max, in one pass on
    (q-offset, integer list) rows: the running products h_k [k+1]_q ...
    [k+m-1]_q gain one q-integer per dilate, their sum is taken by
    ``_add_row``, and each sum is divided exactly by [m-1]_q!."""
    rows = [(g.lo, g.c) for g in h]
    values = []
    for m in range(1, m_max + 1):
        if m > 1:
            rows = [(lo, _times_qint(c, k + m - 1)) for k, (lo, c) in enumerate(rows)]
        acc = (0, [])
        for row in rows:
            acc = _add_row(acc, row, 0, add)
        value = LaurentQ._make(*acc)
        for i in range(2, m):
            value = value.over_qint(i)
        values.append(value)
    return values


def bar_eval(P: QIVP, m: int) -> LaurentQ:
    """Value of the bar-involuted polynomial at t = [m]_q, m >= 1.

    By bar(qbinom(t,k)) at [m]_q = (-1)^k q^(k(k+1)/2) binom(m+k-1, k)_q."""
    m = _integer(m, "dilate")
    if m < 1:
        raise ValueError("bar_eval requires m >= 1")
    return _bar_values(_bar_terms(P), m)[-1]


def _over_denominator(terms: list[tuple[int, LaurentQ]]) -> PolyTQ:
    """sum_k t^(e_k) g_k prod_{i=k+1}^{D} (1 - t q^i), (e_k, g_k) = terms[k],
    D = len(terms) - 1, by Horner's rule acc <- acc (1 - t q^k) + t^(e_k) g_k:
    shifts only.  ``acc`` holds a (q-offset, integer list) row per power of t
    in the live prefix: one row more per step, and up to t^(e_k)."""
    acc: list[tuple[int, list[int]]] = []
    for k, (e, g) in enumerate(terms):
        acc.append((0, []))
        for i in range(len(acc) - 1, 0, -1):  # from the top: acc[i - 1] is still old
            acc[i] = _add_row(acc[i], acc[i - 1], k, sub)
        acc.extend((0, []) for _ in range(e + 1 - len(acc)))
        acc[e] = _add_row(acc[e], (g.lo, g.c), 0, add)
    return PolyTQ._make(0, [LaurentQ._make(lo, c) for lo, c in acc])


def qivp_series(P: QIVP) -> RatSeries:
    """Generating function sum_{m>=0} P([m]_q) t^m, of order D = degree of P:
    the numerator is sum_k t^k f_k prod_{i=k+1}^{D} (1 - t q^i)."""
    return RatSeries(_over_denominator(list(enumerate(P.basis_coeffs))), P.degree)


def qivp_bar_series(P: QIVP) -> RatSeries:
    """Generating function sum_{m>=1} bar(P)([m]_q) t^m, of order D: the same
    sum with t h_k = t (-1)^k q^(k(k+1)/2) bar(f_k) in place of t^k f_k."""
    return RatSeries(_over_denominator([(1, g) for g in _bar_terms(P)]), P.degree,
                     interior=True)


@invariant
def series(M: RealizedMatroid) -> RatSeries:
    """The graded Ehrhart series: numerator over (1-t)...(1-tq^n)."""
    return qivp_series(ehr_poly(M))


@invariant
def interior_series(M: RealizedMatroid) -> RatSeries:
    """The interior graded Ehrhart series.

    Numerator obtained by clearing the fixed denominator in the reciprocity
    identity:  (-1)^(n+d) q^(n(n+1)/2 - d) t^(n+1) N(1/t, 1/q).
    """
    n, d = M.n, M.d
    flipped = series(M).numerator.t_reverse_bar(n + 1)
    e = n * (n + 1) // 2 - d
    num = [-g.shift(e) if (n + d) % 2 else g.shift(e) for g in flipped.c]
    return RatSeries(PolyTQ._make(flipped.lo, num), n, interior=True)


def reciprocity_check(M: RealizedMatroid, m_max: int) -> bool:
    """Exact verification of graded Ehrhart-Macdonald reciprocity.

    (a) the interior numerator (denominator-clearing route) coincides with
        (-1)^d q^(-d) times the bar generating function of the Ehrhart
        polynomial (q-binomial route);
    (b) for 1 <= m <= m_max, (-1)^d q^(-d) bar_eval matches the interior
        graded count from the Tutte formula.
    """
    m_max = _integer(m_max, "m_max")
    h = _bar_terms(ehr_poly(M), M.d)
    if interior_series(M).numerator != _over_denominator([(1, g) for g in h]):
        return False
    return all(v == graded_count(M, m, interior=True).value
               for m, v in enumerate(_bar_values(h, m_max), 1))
