"""Presentation of the harmonic algebra and the Gorenstein classification.

The algebra lives in variables z_S, one per subset S of the ground set,
with bidegree (1, |S|).  Its defining ideal is generated by the implicit
binomial family z_S z_T - z_(S|T) z_(S&T) together with one linear form per
(circuit C, subset A disjoint from C):  sum_{i in C} alpha_i z_(A|{i}).

The binomials generate the Hibi ideal of the Boolean lattice, whose quotient
is the Segre ring of (P^1)^n (Hibi 1987): modulo them a degree-m monomial
z_(T_1)...z_(T_m) is its count vector b_j = #{i : j in T_i}, a point of the
box {0..m}^n of q-degree |b|, and the degree-m slice of the ideal is spanned
by one row sum_{i in C} alpha_i e_(b+e_i) per circuit C and box point b with
b_i <= m-1 on C.  For columns a_i = +-a_i' these rows move one unit between
b_i and b_i', and any other circuit meets such a class at most once; so a
class of p columns equal up to sign (or of p loops) is one coordinate in
{0..m*p}, under the circuit rows of R, the matroid of one column per class.
Columns are box points in mixed radix (at m = 1 with no repeated column,
subset bitmasks), eliminated one q-block |b| at a time; each circuit's
points are picked, by weight, out of tables of the two halves of the box
that ``linalg.box_table`` lists once per slice.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from . import gehrhart
from .errors import GuardExceeded
from .exact import LaurentQ, PolyTQ, _integer
from .linalg import box_table, echelon_rank
from .matroid import CircuitRep, Realization, RealizedMatroid, invariant

VARIABLE_GUARD = 14          # at most 2^14 z-variables
COLUMN_GUARD = 16_384        # box columns prod (m*p_j + 1) of one degree

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
class GorensteinVerdict:
    verdict: str
    witness: tuple[int, ...] | None = None


@dataclass(frozen=True)
class SegreGenerators:
    """The linear generators, one per (circuit, disjoint subset) pair."""

    n: int
    circuits: tuple[CircuitRep, ...]

    @functools.cached_property
    def linear(self) -> tuple[SegreLinearForm, ...]:
        """The generators spelled out, by circuit and then by subset size."""
        linear = []
        for circ in self.circuits:
            outside = [j for j in range(self.n) if j not in circ.support]
            for r in range(len(outside) + 1):
                for a_set in itertools.combinations(outside, r):
                    a_mask = sum(1 << j for j in a_set)
                    terms = tuple((a_mask | (1 << i), co)
                                  for i, co in zip(circ.support, circ.alpha))
                    linear.append(SegreLinearForm(circ.support, a_set, terms))
        return tuple(linear)

    def rows(self, bounds: tuple[int, ...]) -> Callable[[int], Iterator[dict[int, int]]]:
        """The rows over the box prod_j {0..bounds[j]}, in mixed radix, as a
        function of the q-block k: per circuit C, the rows
        sum_{i in C} alpha_i e_(b+e_i) over box points b with b_i <= bounds[i]-1
        on C and |b| = k-1.  Degree m of M itself is ``bounds = (m,) * n``; at
        m = 1, the generators with |A| = k-1.

        A block's points of weight k-1 are x + y, x of weight a in the
        ``box_table`` of the first half of the coordinates and y of weight
        k-1-a in that of the rest, both built once, here.  A value is the
        point's column shifted past n bits that flag its coordinates at their
        bound; a circuit takes the points with none of its flags set."""
        n = len(bounds)
        place = [math.prod(b + 1 for b in bounds[:j]) for j in range(n)]
        digits = [[e * place[j] << n | (e == b) << j for e in range(b + 1)]
                  for j, b in enumerate(bounds)]
        low, high = box_table(digits[:n // 2]), box_table(digits[n // 2:])
        prepared = [([(place[i], co) for i, co in zip(circ.support, circ.alpha)],
                     sum(1 << i for i in circ.support)) for circ in self.circuits]

        def block(k: int) -> Iterator[dict[int, int]]:
            points = [x + y for a in range(max(0, k - len(high)), min(k, len(low)))
                      for y in high[k - 1 - a] for x in low[a]]
            for terms, flags in prepared:
                yield from ({(b >> n) + w: co for w, co in terms}
                            for b in points if not b & flags)

        return block


def _guard_variables(M: RealizedMatroid) -> None:
    if M.n > VARIABLE_GUARD:
        raise GuardExceeded(
            f"{M.n} ground-set elements > VARIABLE_GUARD={VARIABLE_GUARD}")


def segre_generators(M: RealizedMatroid) -> SegreGenerators:
    """All linear generators, one per (circuit, disjoint subset) pair."""
    _guard_variables(M)
    return SegreGenerators(M.n, M.circuits)


@invariant
def _sign_classes(M: RealizedMatroid) -> tuple[RealizedMatroid, tuple[int, ...]]:
    """The matroid R of the first column of each class of columns equal up to
    sign (all loops are one class), in first-occurrence order; class sizes."""
    classes: dict[tuple[int, ...], list] = {}
    for col in M.realization.columns():
        classes.setdefault(max(col, tuple(-x for x in col)), [col, 0])[1] += 1
    cols = [col for col, _ in classes.values()]
    R = RealizedMatroid(Realization(M.d, len(cols), tuple(zip(*cols))))
    return R, tuple(p for _, p in classes.values())


def degree1_dim(M: RealizedMatroid) -> int:
    """Dimension of the degree-1 part of the quotient: 2^n minus the rank
    of the linear generators.  Equals T_M(2, 1)."""
    return graded_hilbert(M, 1).eval_at_one()


def graded_hilbert(M: RealizedMatroid, m: int) -> LaurentQ:
    """q-graded dimensions of the degree-m slice of the quotient algebra: per
    q-block k, the box points of weight k (coefficients of prod_j [m*p_j+1]_q
    over the sign classes (R, p) of M) less the rank of R's ``rows``."""
    m = _integer(m, "degree")
    if m < 0:
        raise ValueError("m must be non-negative")
    if m == 0:
        return LaurentQ.one()
    _guard_variables(M)
    R, sizes = _sign_classes(M)
    bounds = tuple(m * p for p in sizes)
    ncols = math.prod(b + 1 for b in bounds)
    if ncols > COLUMN_GUARD:
        raise GuardExceeded(
            f"degree {m} has {ncols} box columns > COLUMN_GUARD={COLUMN_GUARD}")
    rows = segre_generators(R).rows(bounds)
    box = functools.reduce(LaurentQ.times_qint, [b + 1 for b in bounds], LaurentQ.one())
    return LaurentQ({k: size - echelon_rank(rows(k), stop_at=size)
                     for k, size in box.terms.items()})


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
    g_k = q^C(n,2) bar(g_(top-k)) in the Boolean case, top = max(n-1, 0)
    (the 0-cube's numerator A_0 = 1 has degree 0), and
    g_k = (-1)^(n+d) q^(C(n+1,2)-d) bar(g_(n-k)) otherwise."""
    if boolean:
        shift, top = n * (n - 1) // 2, max(n - 1, 0)
        return all(num.coeff(k) == num.coeff(top - k).bar().shift(shift)
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
