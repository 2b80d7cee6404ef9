"""Realized matroids from integer matrices.

A matroid is always carried by a full-row-rank integer matrix (columns are
the ground set, 0-based).  Construction checks only the guard and the rank.
Circuits (with their exact integer dependency coefficients) and cocircuit
vectors, which the geometry and algebra layers use as the single source of
combinatorial truth, are enumerated on first use and then kept: the
closed-formula path and the thickenings read cocircuits only, and circuits
serve only the harmonic presentation.

Both come from one integer sweep over (d-1)-subsets of columns, whose
one-dimensional left kernels are the hyperplane normals.  Run on A it gives
the cocircuits, and unimodularity is read off them (A is unimodular iff
every cocircuit vector lies in {0, +-1}^n); run on a kernel basis of A, which
realizes the dual matroid, it gives the circuits.  Connected components are
read off the fundamental graph of one ``rref_int``.  The Tutte polynomial is
a memoised deletion/contraction on that same solved form: a contraction drops
a row and a column, a deletion is one fraction-free pivot step, so a matroid
needs one ``rref_int`` however many minors the recursion visits.

Ground sets are capped at 16 elements: the sweep is a subset enumeration,
which is exact and fast at desk scale.
"""

from __future__ import annotations

import bisect
import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import GuardExceeded
from .exact import BiPolyXY, LaurentQ
from .linalg import nullspace_primitive, primitive_vector, rank_int, rref_int

GROUND_GUARD = 16

T = TypeVar("T")
_MISSING = object()  # keys a left-out argument: no build stores it


def invariant(build: Callable[..., T]) -> Callable[..., T]:
    """Cache ``build(M, ...)`` on the matroid M, one entry per value of the
    further arguments, defaults filled in: built on the first call, the same
    object returned on every later one, so callers must not mutate it.
    Positional and keyword calls share an entry; the parameter names and
    defaults are read once, here."""
    name = build.__qualname__
    params = build.__code__.co_varnames[1:build.__code__.co_argcount]
    defaults = dict(zip(params[::-1], (build.__defaults__ or ())[::-1]))

    @functools.wraps(build)
    def cached(M: "RealizedMatroid", *args, **kwargs) -> T:
        key = name
        if params or args or kwargs:
            rest = params[len(args):]
            if kwargs.keys() - rest:  # unknown or repeated: build raises
                return build(M, *args, **kwargs)
            key = (name, *args, *[kwargs.get(p, defaults.get(p, _MISSING)) for p in rest])
        store = M._derived
        if key not in store:
            store[key] = build(M, *args, **kwargs)
        return store[key]

    return cached


@dataclass(frozen=True)
class Realization:
    """A d x n integer matrix of full row rank d."""

    d: int
    n: int
    entries: tuple[tuple[int, ...], ...]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.d))

    def columns(self) -> list[tuple[int, ...]]:
        return [self.column(j) for j in range(self.n)]


@dataclass(frozen=True)
class CircuitRep:
    """A circuit support with its fixed integer dependency.

    ``alpha`` is primitive with first nonzero entry positive and satisfies
    sum(alpha[i] * column(support[i])) = 0 exactly.
    """

    support: tuple[int, ...]
    alpha: tuple[int, ...]


@dataclass(frozen=True)
class CocircuitVector:
    """A support-minimal nonzero vector v of the row space, with c^T A = v.

    For unimodular A the stored v is primitive; in general it is the smallest
    rowspace multiple admitting an integral c.
    """

    v: tuple[int, ...]
    c: tuple[int, ...]
    support_size: int

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(j for j, x in enumerate(self.v) if x)


@dataclass(frozen=True)
class Component:
    elements: tuple[int, ...]
    is_circuit: bool


class RealizedMatroid:
    """Matroid of an integer matrix, with cached rank queries and derived
    invariants (unimodularity, Tutte polynomial, Ehrhart data).

    Immutable after construction; all caches are written once per key, so
    read-only sharing across workers is safe.  Cached values are handed to
    every caller and must not be mutated.
    """

    def __init__(self, realization: Realization):
        self.realization = realization
        self._rank_cache: dict[frozenset, int] = {}
        self._derived: dict[object, object] = {}  # written by @invariant

    @property
    def d(self) -> int:
        return self.realization.d

    @property
    def n(self) -> int:
        return self.realization.n

    def __repr__(self) -> str:
        return f"RealizedMatroid(d={self.d}, n={self.n})"

    @functools.cached_property
    def circuits(self) -> tuple[CircuitRep, ...]:
        return _find_circuits(self.realization)

    @functools.cached_property
    def cocircuits(self) -> tuple[CocircuitVector, ...]:
        return _find_cocircuits(self.realization)

    # -- rank ---------------------------------------------------------------

    def rank(self, subset: Iterable[int]) -> int:
        key = frozenset(subset)
        if not all(0 <= j < self.n for j in key):
            raise ValueError("subset out of range")
        cached = self._rank_cache.get(key)
        if cached is None:
            cached = rank_int([self.realization.column(j) for j in sorted(key)])
            self._rank_cache[key] = cached
        return cached

    def loops(self) -> tuple[int, ...]:
        return tuple(j for j in range(self.n)
                     if not any(self.realization.column(j)))

    def coloops(self) -> tuple[int, ...]:
        """The pivot columns of ``rref_int(A)`` whose row is zero off the
        pivot, i.e. that no other column needs."""
        pivots, R = rref_int(self.realization.entries)
        return tuple(pc for pc, row in zip(pivots, R) if row.count(0) == self.n - 1)

    # -- unimodularity ------------------------------------------------------

    @invariant
    def is_unimodular(self) -> bool:
        """True iff every maximal (d x d) minor lies in {-1, 0, 1}.

        Decided as: every cocircuit vector v = c^T A (c primitive) lies in
        {0, +-1}^n.  Then for a basis B the normals C of the hyperplanes
        spanned by B - {b_i} make C^T B a diagonal +-1 matrix, so det B = +-1;
        conversely, if det B = +-1, the rows of B^-1 are those normals and
        the entries of B^-1 A are maximal minors (Cramer's rule).
        """
        return all(-1 <= x <= 1 for cc in self.cocircuits for x in cc.v)

    # -- minors ---------------------------------------------------------------

    def delete(self, i: int) -> "RealizedMatroid":
        if not 0 <= i < self.n:
            raise ValueError("element out of range")
        if i in self.coloops():
            raise ValueError(f"cannot delete coloop {i}")
        rows = tuple(r[:i] + r[i + 1:] for r in self.realization.entries)
        return _from_realization(Realization(self.d, self.n - 1, rows))

    def contract(self, i: int) -> "RealizedMatroid":
        if not 0 <= i < self.n:
            raise ValueError("element out of range")
        if not any(self.realization.column(i)):
            raise ValueError(f"cannot contract loop {i}")
        rows = _column_to_e1([list(r) for r in self.realization.entries], i)
        new = tuple(tuple(v for j, v in enumerate(r) if j != i)
                    for r in rows[1:])
        return _from_realization(Realization(self.d - 1, self.n - 1, new))

    # -- thickening ------------------------------------------------------------

    def thicken(self, m: int) -> "RealizedMatroid":
        """Matroid of the matrix repeating each column m times.

        Ground set ordered copy-major: columns of copy 1, then copy 2, ...
        """
        if m < 1:
            raise ValueError("thickening requires m >= 1")
        if m * self.n > GROUND_GUARD:
            raise GuardExceeded(
                f"thickening by {m} would have {m * self.n} elements"
                f" > GROUND_GUARD={GROUND_GUARD}")
        rows = tuple(r * m for r in self.realization.entries)
        return _from_realization(Realization(self.d, m * self.n, rows))

    # -- Tutte polynomial --------------------------------------------------------

    @invariant
    def tutte(self) -> BiPolyXY:
        return _tutte_solved(*rref_int(self.realization.entries), self.n)

    # -- connectivity ---------------------------------------------------------

    def connected_components(self) -> tuple[Component, ...]:
        """Components of the fundamental graph of the greedy basis, read off
        ``rref_int(A)``: a nonzero R[i][j] links the i-th pivot column to
        column j.  Loops and coloops are singletons.  A component is flagged
        when its element set is itself a circuit, i.e. when it holds exactly
        one non-basis column (a loop counts as a size-1 circuit)."""
        pivots, R = rref_int(self.realization.entries)
        parent = list(range(self.n))

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for pc, row in zip(pivots, R):
            for j, x in enumerate(row):
                if x:
                    parent[find(j)] = find(pc)
        groups: dict[int, list[int]] = {}
        for j in range(self.n):
            groups.setdefault(find(j), []).append(j)
        basis = set(pivots)
        comps = [Component(tuple(g), sum(1 for j in g if j not in basis) == 1)
                 for g in groups.values()]
        return tuple(sorted(comps, key=lambda c: c.elements))


# -- construction -----------------------------------------------------------


def from_matrix(entries: Sequence[Sequence[int]]) -> RealizedMatroid:
    """Build a RealizedMatroid from a full-row-rank integer matrix.

    An empty list gives the empty (0 x 0) matroid.
    """
    rows = tuple(tuple(int(v) for v in r) for r in entries)
    d = len(rows)
    n = len(rows[0]) if d else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    return _from_realization(Realization(d, n, rows))


def _from_realization(rz: Realization) -> RealizedMatroid:
    if rz.n > GROUND_GUARD:
        raise GuardExceeded(
            f"ground set {rz.n} exceeds guard GROUND_GUARD={GROUND_GUARD}")
    if rank_int(rz.entries) != rz.d:
        raise ValueError("matrix must have full row rank")
    return RealizedMatroid(rz)


def _find_circuits(rz: Realization) -> tuple[CircuitRep, ...]:
    """The cocircuits of the dual, realized by a kernel basis of A: each
    cocircuit vector is a minimal dependency of A's columns, made primitive
    (the sweep's v need not be when A is not unimodular) and restricted to
    its support.  Sorted by (size, support), the order of a subset
    enumeration."""
    kernel = nullspace_primitive(rz.entries, rz.n)
    circuits = []
    for cc in _find_cocircuits(Realization(len(kernel), rz.n, tuple(kernel))):
        v = primitive_vector(cc.v)
        support = cc.support
        circuits.append(CircuitRep(support, tuple(v[j] for j in support)))
    return tuple(sorted(circuits, key=lambda c: (len(c.support), c.support)))


def _find_cocircuits(rz: Realization) -> tuple[CocircuitVector, ...]:
    """One cocircuit per hyperplane spanned by a (d-1)-subset of columns.

    The subset spans a hyperplane iff the vectors c with c^T a_j = 0 on it
    form a line; ``nullspace_primitive`` then gives its primitive normal c,
    and v = c^T A.  Subsets inside a hyperplane already found are skipped.
    """
    d, n, rows = rz.d, rz.n, rz.entries
    if d == 0:
        return ()
    cols = rz.columns()
    found: list[CocircuitVector] = []
    zero_sets: list[int] = []  # bitmask of the columns each hyperplane holds
    for combo in itertools.combinations(range(n), d - 1):
        mask = sum(1 << j for j in combo)
        if any(mask & z == mask for z in zero_sets):
            continue
        normals = nullspace_primitive([cols[j] for j in combo], d)
        if len(normals) != 1:
            continue
        c = normals[0]
        v = [sum(c[i] * rows[i][j] for i in range(d)) for j in range(n)]
        if next(x for x in v if x) < 0:
            c = tuple(-x for x in c)
            v = [-x for x in v]
        found.append(CocircuitVector(tuple(v), c, sum(1 for x in v if x)))
        zero_sets.append(sum(1 << j for j, x in enumerate(v) if not x))
    return tuple(sorted(found, key=lambda cc: cc.v))


# -- contraction transform ----------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _column_to_e1(rows: list[list[int]], j: int) -> list[list[int]]:
    """Apply determinant +-1 integer row operations so column j becomes
    (g, 0, ..., 0) with g = gcd of the column."""
    d = len(rows)
    for i in range(1, d):
        a, b = rows[0][j], rows[i][j]
        if b == 0:
            continue
        if a == 0:
            rows[0], rows[i] = rows[i], rows[0]
            continue
        g, s, t = _xgcd(a, b)
        r0 = [s * x + t * y for x, y in zip(rows[0], rows[i])]
        ri = [-(b // g) * x + (a // g) * y for x, y in zip(rows[0], rows[i])]
        rows[0], rows[i] = r0, ri
    if rows and rows[0][j] < 0:
        rows[0] = [-x for x in rows[0]]
    return rows


# -- Tutte via memoized deletion/contraction -----------------------------------

_TUTTE_MEMO: dict[tuple, BiPolyXY] = {}


def _tutte_solved(pivots: list[int], R: list[list[int]], n: int) -> BiPolyXY:
    """Deletion/contraction on a solved form: R is a nonzero multiple of the
    reduced row echelon form of an n-column matrix, with pivot columns B.

    The memo key, the columns of R made primitive and sorted, is invariant
    under row operations and column scaling, so minors reached in different
    orders, or from different matroids, share an entry: equal keys describe
    isomorphic configurations.  The first element that is neither a loop
    nor a coloop is the pivot e of the first row of R with two nonzeros.
    Contracting e drops its row and column; deleting it swaps f, the first
    nonzero of e's row after e, into B by one fraction-free pivot step
    ``(p * row - row[f] * top) / D``, exact by Sylvester's identity.
    """
    if not n:
        return BiPolyXY.one()
    d = len(pivots)
    key = (d, tuple(sorted(map(primitive_vector, zip(*R))))) if d else (0, n)
    hit = _TUTTE_MEMO.get(key)
    if hit is not None:
        return hit
    i = next((i for i, row in enumerate(R) if row.count(0) < n - 1), None)
    if i is None:  # only coloops and loops
        result = BiPolyXY.monomial(d, n - d)
    else:
        top, e = R[i], pivots[i]
        rest_pivots, rest = pivots[:i] + pivots[i + 1:], R[:i] + R[i + 1:]
        f = next(j for j in range(e + 1, n) if top[j])
        p, D = top[f], top[e]
        stepped = [row if not row[f] and p == D else
                   [(p * a - row[f] * b) // D for a, b in zip(row, top)]
                   for row in rest]
        k = bisect.bisect(rest_pivots, f)
        deleted = _drop_column(e, rest_pivots[:k] + [f] + rest_pivots[k:],
                               stepped[:k] + [top] + stepped[k:])
        result = (_tutte_solved(*deleted, n - 1)
                  + _tutte_solved(*_drop_column(e, rest_pivots, rest), n - 1))
    _TUTTE_MEMO[key] = result
    return result


def _drop_column(e: int, pivots: list[int], R: list[list[int]]
                 ) -> tuple[list[int], list[list[int]]]:
    return [pc - (pc > e) for pc in pivots], [row[:e] + row[e + 1:] for row in R]


def tutte_thickened(T: BiPolyXY, d: int, m: int) -> BiPolyXY:
    """Tutte polynomial of the m-thickening, from T = T_M and the rank d.

    sum_a C_a P^a Q^(d-a), C_a = sum_b c_ab y^(mb), P = x + y [m-1]_y and
    Q = [m]_y cleared against the x-degree bound d: a homogeneous Horner sum.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if T.x_degree() > d:
        raise ValueError("T has x-degree above the stated rank")
    acc = [LaurentQ.zero()] * (d + 1)  # coefficients of x^0, ..., x^d
    for a, g in reversed(list(enumerate(T.x_coeffs(d, m)))):
        for _ in range(d - a):
            g = g.times_qint(m)
        acc = [u + v.times_qint(m - 1).shift(1) for u, v in zip([g] + acc[:-1], acc)]
    return BiPolyXY._make(0, acc)
