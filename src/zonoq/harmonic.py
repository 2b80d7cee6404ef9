"""Presentation of the harmonic algebra and the Gorenstein classification.

The algebra lives in variables z_S, one per subset S of the ground set,
with bidegree (1, |S|).  Its defining ideal is generated by the implicit
binomial family z_S z_T - z_(S|T) z_(S&T) together with one linear form per
(circuit C, subset A disjoint from C):  sum_{i in C} alpha_i z_(A|{i}).

Subsets are bitmasks; the binomial family is never enumerated globally, only
the degree slices that a given computation touches.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from . import gehrhart
from .errors import GuardExceeded
from .exact import LaurentQ, PolyTQ
from .linalg import echelon_rank
from .matroid import RealizedMatroid

VARIABLE_GUARD = 14          # at most 2^14 z-variables
DEGREE_GUARD = 100_000       # monomial count per degree
FACTORIAL_GUARD = 8

BOOLEAN = "boolean"
CIRCUIT_COMPONENTS = "circuit-components"
NOT_GORENSTEIN = "not-gorenstein"


@dataclass(frozen=True)
class SegreLinearForm:
    """The linear generator sum_{i in C} alpha_i z_(A | {i})."""

    circuit: tuple[int, ...]
    a_set: tuple[int, ...]
    terms: tuple[tuple[int, int], ...]  # (variable bitmask, coefficient)


@dataclass(frozen=True)
class SegreGenerators:
    n: int
    linear: tuple[SegreLinearForm, ...]


@dataclass(frozen=True)
class GorensteinVerdict:
    verdict: str
    witness: tuple[int, ...] | None = None


def segre_generators(M: RealizedMatroid) -> SegreGenerators:
    """All linear generators, one per (circuit, disjoint subset) pair."""
    n = M.n
    if n > VARIABLE_GUARD:
        raise GuardExceeded(
            f"{n} ground-set elements > VARIABLE_GUARD={VARIABLE_GUARD}")
    linear = []
    for circ in M.circuits:
        outside = [j for j in range(n) if j not in circ.support]
        for r in range(len(outside) + 1):
            for a_set in itertools.combinations(outside, r):
                a_mask = 0
                for j in a_set:
                    a_mask |= 1 << j
                terms = tuple((a_mask | (1 << i), co)
                              for i, co in zip(circ.support, circ.alpha))
                linear.append(SegreLinearForm(circ.support, a_set, terms))
    return SegreGenerators(n, tuple(linear))


def degree1_dim(M: RealizedMatroid) -> int:
    """Dimension of the degree-1 part of the quotient: 2^n minus the rank
    of the linear generators.  Equals T_M(2, 1)."""
    gens = segre_generators(M)
    nvars = 1 << M.n
    rows = (dict(g.terms) for g in gens.linear)
    return nvars - echelon_rank(rows, stop_at=nvars)


def _qdeg(monomial: tuple[int, ...]) -> int:
    return sum(mask.bit_count() for mask in monomial)


def graded_hilbert(M: RealizedMatroid, m: int) -> LaurentQ:
    """q-graded dimensions of the degree-m slice of the quotient algebra.

    The degree-m part of the ideal is spanned by monomial multiples of the
    linear generators (degree m-1 cofactors) and of the binomials (degree
    m-2 cofactors); both families are q-homogeneous, so ranks are computed
    per q-degree block.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return LaurentQ.one()
    n = M.n
    nvars = 1 << n
    nmono = comb(nvars + m - 1, m)
    if nmono > DEGREE_GUARD:
        raise GuardExceeded(
            f"degree {m} has {nmono} monomials > DEGREE_GUARD={DEGREE_GUARD}")
    gens = segre_generators(M)

    index: dict[int, dict[tuple[int, ...], int]] = {}
    for mono in itertools.combinations_with_replacement(range(nvars), m):
        block = index.setdefault(_qdeg(mono), {})
        block[mono] = len(block)

    sparse_rows: dict[int, list[dict[tuple[int, ...], int]]] = {}

    def add_row(row: dict[tuple[int, ...], int]):
        qd = _qdeg(next(iter(row)))
        sparse_rows.setdefault(qd, []).append(row)

    for base in itertools.combinations_with_replacement(range(nvars), m - 1):
        for g in gens.linear:
            row: dict[tuple[int, ...], int] = {}
            for mask, co in g.terms:
                key = tuple(sorted(base + (mask,)))
                row[key] = row.get(key, 0) + co
            add_row(row)
    if m >= 2:
        pairs = [(S, T) for S in range(nvars) for T in range(S + 1, nvars)
                 if (S | T) != S and (S | T) != T]
        for base in itertools.combinations_with_replacement(range(nvars), m - 2):
            for S, T in pairs:
                plus = tuple(sorted(base + (S, T)))
                minus = tuple(sorted(base + (S | T, S & T)))
                add_row({plus: 1, minus: -1})

    dims: dict[int, int] = {}
    for qd, block in index.items():
        ncols = len(block)
        rows = ({block[mono]: co for mono, co in row.items()}
                for row in sparse_rows.get(qd, []))
        dims[qd] = ncols - echelon_rank(rows, stop_at=ncols)
    return LaurentQ(dims)


def gorenstein_classify(M: RealizedMatroid) -> GorensteinVerdict:
    """Boolean iff every element is a coloop (n = d); circuit-components iff
    every connected component's ground set is a circuit; otherwise
    not-gorenstein with an offending component as witness."""
    if M.n == M.d:
        return GorensteinVerdict(BOOLEAN)
    for comp in M.connected_components():
        if not comp.is_circuit:
            return GorensteinVerdict(NOT_GORENSTEIN, comp.elements)
    return GorensteinVerdict(CIRCUIT_COMPONENTS)


def numerator_palindrome(num: PolyTQ, n: int, d: int, boolean: bool) -> bool:
    """The quantum-palindromic coefficient identity on a series numerator:
    g_k = q^C(n,2) bar(g_(n-k-1)) in the Boolean case and
    g_k = (-1)^(n+d) q^(C(n+1,2)-d) bar(g_(n-k)) otherwise."""
    if boolean:
        shift = n * (n - 1) // 2
        return all(num.coeff(k) == num.coeff(n - 1 - k).bar().shift(shift)
                   for k in range(n + 1))
    shift = n * (n + 1) // 2 - d
    sign = -1 if (n + d) % 2 else 1
    return all(num.coeff(k) == num.coeff(n - k).bar().shift(shift) * sign
               for k in range(n + 1))


def palindrome_check(M: RealizedMatroid) -> bool:
    """Verify the palindromic identity for a Gorenstein matroid's series
    numerator; raises on not-gorenstein input."""
    verdict = gorenstein_classify(M)
    if verdict.verdict == NOT_GORENSTEIN:
        raise ValueError(
            f"palindrome_check requires a Gorenstein matroid; "
            f"component {verdict.witness} is not a circuit")
    num = gehrhart.series(M).numerator
    return numerator_palindrome(num, M.n, M.d, verdict.verdict == BOOLEAN)


def euler_mahonian(n: int) -> PolyTQ:
    """sum over permutations of [n] of t^des q^maj; equals the graded
    Ehrhart series numerator of the n-cube."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > FACTORIAL_GUARD:
        raise GuardExceeded(
            f"n = {n} exceeds FACTORIAL_GUARD={FACTORIAL_GUARD}")
    acc: dict[int, dict[int, int]] = {}
    for perm in itertools.permutations(range(1, n + 1)):
        des = [j + 1 for j in range(n - 1) if perm[j] > perm[j + 1]]
        k, maj = len(des), sum(des)
        acc.setdefault(k, {})
        acc[k][maj] = acc[k].get(maj, 0) + 1
    return PolyTQ({k: LaurentQ(terms) for k, terms in acc.items()})


def _set_label(mask: int) -> str:
    if not mask:
        return "z_{}"
    elems = [str(j + 1) for j in range(mask.bit_length()) if mask >> j & 1]
    return "z_{" + ",".join(elems) + "}"


def presentation_lines(gens: SegreGenerators) -> list[str]:
    """Human-readable linear generators, one line each, 1-based labels."""
    lines = []
    for g in gens.linear:
        parts = []
        for mask, co in g.terms:
            mag = abs(co)
            term = _set_label(mask) if mag == 1 else f"{mag} {_set_label(mask)}"
            if not parts:
                parts.append(term if co > 0 else f"- {term}")
            else:
                parts.append(f"+ {term}" if co > 0 else f"- {term}")
        lines.append(" ".join(parts))
    return lines
