"""Realized matroids from integer matrices.

A matroid is always carried by a full-row-rank integer matrix (columns are
the ground set, 0-based).  Construction checks only the guard and the rank,
which it reads off the matroid's one solved form ``rref_int(A)``: kept with
the other cached invariants, it is shared by the Tutte polynomial, the
connected components, the circuits and the lattice walk of ``zonotope``,
which checks it exactly against A before walking B^-1 A.  Circuits (with
their exact integer dependency coefficients) and cocircuit vectors, which
the geometry and algebra layers use as the single source of combinatorial
truth, are enumerated on first use and then kept: facets and the zonotopal
algebras read cocircuits, circuits serve only the harmonic presentation,
and the closed-formula path reads neither.

Both come from one integer sweep over (d-1)-subsets of columns, whose
one-dimensional left kernels are the hyperplane normals; subsets inside a
hyperplane already found are skipped by ANDing one bitset per column, whose
bit h says that hyperplane h holds the column.  Run on A it gives the
cocircuits; run on a kernel basis of A, read off the solved form, which
realizes the dual matroid, it gives the circuits.  Unimodularity compares
det(A A^T) with T_M(1, 1), the number of bases (Cauchy-Binet), and reads
neither.  Connected components are read off the fundamental graph of the
solved form.  The Tutte polynomial is a memoised deletion/contraction on
that same solved form R = D * B^-1 A, row i the fundamental cocircuit of the
basis element pivots[i].  Loops (zero columns) and coloops (rows with one
nonzero) factor out as powers of y and x before the memo is read.  The
recursion branches on the pivot of the sparsest row: a contraction drops
that row and column, a deletion swaps the row's sparsest column into the
basis by one fraction-free pivot step.  So a matroid needs one ``rref_int``
of A however many minors the recursion visits.

Ground sets are capped at 16 elements: the sweep is a subset enumeration,
which is exact and fast at desk scale.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .errors import GuardExceeded
from .exact import BiPolyXY, LaurentQ, _add_row, _integer, _times_qint
from .linalg import nullspace_primitive, primitive_vector, rref_int

GROUND_GUARD = 16

T = TypeVar("T")


def invariant(build: Callable[..., T]) -> Callable[..., T]:
    """Cache ``build(M, *args)`` on the matroid M under (qualified name,
    *args): built on the first call, the same object on every later one, so
    callers must not mutate it.  ``TypeError`` here if build has a default
    or keyword-only parameter, which would give one value two keys."""
    name = build.__qualname__
    if build.__defaults__ or build.__code__.co_kwonlyargcount:
        raise TypeError(f"@invariant {name} has a default or keyword-only parameter")

    @functools.wraps(build)
    def cached(M: "RealizedMatroid", *args) -> T:
        key = (name, *args)
        store = M._derived
        if key not in store:
            store[key] = build(M, *args)
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
    """Matroid of an integer matrix, with cached derived invariants
    (unimodularity, Tutte polynomial, Ehrhart data).

    Immutable after construction; all caches are written once per key, so
    read-only sharing across workers is safe.  Cached values are handed to
    every caller and must not be mutated.
    """

    def __init__(self, realization: Realization):
        self.realization = realization
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
    def _solved(self) -> tuple[list[int], list[list[int]]]:
        """``rref_int(A)``: the pivot columns, a greedy basis, and
        R = D * B^-1 A."""
        return rref_int(self.realization.entries)

    @functools.cached_property
    def circuits(self) -> tuple[CircuitRep, ...]:
        return _find_circuits(*self._solved, self.n)

    @functools.cached_property
    def cocircuits(self) -> tuple[CocircuitVector, ...]:
        return _find_cocircuits(self.realization)

    # -- unimodularity ------------------------------------------------------

    @invariant
    def is_unimodular(self) -> bool:
        """True iff every maximal (d x d) minor lies in {-1, 0, 1}.

        By Cauchy-Binet det(A A^T) = sum of det(A_S)^2 over d-subsets S, and
        T_M(1, 1) counts the S with det(A_S) != 0 (the bases), so the two are
        equal iff every nonzero maximal minor is +-1.  A A^T is positive
        definite: its determinant is the last pivot of ``rref_int`` (1 if
        d = 0).  Equally, every cocircuit vector lies in {0, +-1}^n (for a
        basis B, the normals C of the hyperplanes spanned by B - {b_i} make
        C^T B diagonal with entries of those vectors), so ``h_rep`` can name
        one that does not.
        """
        rows = self.realization.entries
        R = rref_int([[sum(map(operator.mul, r, s)) for s in rows] for r in rows])[1]
        return (R[-1][-1] if R else 1) == self.tutte().eval_int(1, 1)

    # -- thickening ------------------------------------------------------------

    def thicken(self, m: int) -> "RealizedMatroid":
        """Matroid of the matrix repeating each column m times.

        Ground set ordered copy-major: columns of copy 1, then copy 2, ...
        """
        m = _integer(m, "multiplicity")
        if m < 1:
            raise ValueError("thickening requires m >= 1")
        if m * self.n > GROUND_GUARD:
            raise GuardExceeded(
                f"thickening by {m} would have {m * self.n} elements"
                f" > GROUND_GUARD={GROUND_GUARD}")
        rows = tuple(r * m for r in self.realization.entries)
        return RealizedMatroid(Realization(self.d, m * self.n, rows))  # same row space

    # -- Tutte polynomial --------------------------------------------------------

    @invariant
    def tutte(self) -> BiPolyXY:
        return _tutte_solved(*self._solved, self.n)

    # -- connectivity ---------------------------------------------------------

    def connected_components(self) -> tuple[Component, ...]:
        """Components of the fundamental graph of the greedy basis, read off
        the solved form: a nonzero R[i][j] links the i-th pivot column to
        column j.  Loops and coloops are singletons.  A component is flagged
        when its element set is itself a circuit, i.e. when it holds exactly
        one non-basis column (a loop counts as a size-1 circuit)."""
        pivots, R = self._solved
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

    An empty list gives the empty (0 x 0) matroid.  Entries must be
    integers: a float or other non-integral value raises ``ValueError``.
    """
    rows = tuple(tuple(_integer(v, "matrix entry", i, j) for j, v in enumerate(r))
                 for i, r in enumerate(entries))
    d = len(rows)
    n = len(rows[0]) if d else 0
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    return _from_realization(Realization(d, n, rows))


def _from_realization(rz: Realization) -> RealizedMatroid:
    if rz.n > GROUND_GUARD:
        raise GuardExceeded(
            f"ground set {rz.n} exceeds guard GROUND_GUARD={GROUND_GUARD}")
    M = RealizedMatroid(rz)
    if len(M._solved[0]) != rz.d:
        raise ValueError("matrix must have full row rank")
    return M


def _find_circuits(pivots: list[int], R: list[list[int]], n: int
                   ) -> tuple[CircuitRep, ...]:
    """The cocircuits of the dual, realized by a kernel basis of A read off
    its solved form (pivots, R), n columns: each cocircuit vector is a
    minimal dependency of A's columns, made primitive (the sweep's v need
    not be when A is not unimodular) and restricted to its support.  Sorted
    by (size, support), the order of a subset enumeration."""
    kernel = nullspace_primitive(pivots, R, n)
    circuits = []
    for cc in _find_cocircuits(Realization(len(kernel), n, tuple(kernel))):
        v = primitive_vector(cc.v)
        support = cc.support
        circuits.append(CircuitRep(support, tuple(v[j] for j in support)))
    return tuple(sorted(circuits, key=lambda c: (len(c.support), c.support)))


def _find_cocircuits(rz: Realization) -> tuple[CocircuitVector, ...]:
    """One cocircuit per hyperplane spanned by a (d-1)-subset of columns.

    The subset spans a hyperplane iff the vectors c with c^T a_j = 0 on it
    form a line; ``nullspace_primitive`` then gives its primitive normal c,
    and v = c^T A.  Subsets inside a hyperplane already found are skipped:
    bit h of ``holds[j]`` says that hyperplane h holds column j, so the AND
    of ``holds`` over a subset is nonzero iff some hyperplane holds it all.
    """
    d, n = rz.d, rz.n
    if d == 0:
        return ()
    cols = rz.columns()
    found: list[CocircuitVector] = []
    holds = [0] * n  # bit h of holds[j]: hyperplane h contains column j
    for combo in itertools.combinations(range(n), d - 1):
        if functools.reduce(operator.and_, map(holds.__getitem__, combo),
                            (1 << len(found)) - 1):
            continue
        normals = nullspace_primitive(*rref_int([cols[j] for j in combo]), d)
        if len(normals) != 1:
            continue
        c = normals[0]
        v = [sum(map(operator.mul, c, col)) for col in cols]
        if next(x for x in v if x) < 0:
            c = tuple(-x for x in c)
            v = [-x for x in v]
        bit = 1 << len(found)
        holds = [h if x else h | bit for h, x in zip(holds, v)]
        found.append(CocircuitVector(tuple(v), c, sum(1 for x in v if x)))
    return tuple(sorted(found, key=lambda cc: cc.v))


# -- Tutte via memoized deletion/contraction -----------------------------------

_TUTTE_MEMO: dict[tuple, BiPolyXY] = {}


def _tutte_solved(pivots: list[int], R: list[list[int]], n: int) -> BiPolyXY:
    """Deletion/contraction on a solved form R = D * B^-1 A of an n-column
    matrix A: row i belongs to the pivot column pivots[i] of the basis B, and
    is the fundamental cocircuit of that basis element.  Rows are kept in
    pivot-column order; R is a reduced row echelon form only at the start.

    Coloops (rows with a single nonzero) and loops (zero columns) factor out
    as x^#coloops y^#loops.  The rest is memoised under its rank and its
    columns made primitive and sorted, a key invariant under row operations
    and column scaling, so minors reached in different orders, or from
    different matroids, share an entry: equal keys describe isomorphic
    configurations.  The recursion branches on the pivot e of the row with
    the fewest nonzeros, the sparsest fundamental cocircuit.  Contracting e
    drops its row and column; deleting it swaps f, the element of e's row
    whose column has the fewest nonzeros, into B by one fraction-free pivot
    step ``(p * row - row[f] * top) / D``, exact by Sylvester's identity.
    Ties go to the first row and the first column.
    """
    core = [i for i, row in enumerate(R) if row.count(0) < n - 1]
    coloops = len(R) - len(core)
    if not core:  # only coloops and loops
        return BiPolyXY.monomial(coloops, n - coloops)
    cols = list(zip(*[R[i] for i in core]))  # coloop columns are zero here
    keep = [j for j, col in enumerate(cols) if any(col)]
    rest = [cols[j] for j in keep] if len(keep) < n else cols
    key = (len(core), tuple(sorted(map(primitive_vector, rest))))
    T = _TUTTE_MEMO.get(key)
    if T is None:
        if len(keep) < n:  # strip the coloops and loops
            at = {j: k for k, j in enumerate(keep)}
            pivots = [at[pivots[i]] for i in core]
            R = [list(row) for row in zip(*rest)]
        zeros = [col.count(0) for col in rest]
        i = max(range(len(R)), key=lambda r: R[r].count(0))
        top, e = R[i], pivots[i]
        f = max((j for j, a in enumerate(top) if a and j != e), key=zeros.__getitem__)
        p, D = top[f], top[e]
        rest_pivots, others = pivots[:i] + pivots[i + 1:], R[:i] + R[i + 1:]
        stepped = [row if not row[f] and p == D else
                   [(p * a - row[f] * b) // D for a, b in zip(row, top)]
                   for row in others]
        k = bisect.bisect(rest_pivots, f)
        T = (_tutte_solved(*_drop_column(e, rest_pivots[:k] + [f] + rest_pivots[k:],
                                         stepped[:k] + [top] + stepped[k:]), len(rest) - 1)
             + _tutte_solved(*_drop_column(e, rest_pivots, others), len(rest) - 1))
        _TUTTE_MEMO[key] = T
    loops = n - coloops - len(rest)
    if coloops or loops:
        T = BiPolyXY._make(T.lo + coloops, [g.shift(loops) for g in T.c])
    return T


def _drop_column(e: int, pivots: list[int], R: list[list[int]]
                 ) -> tuple[list[int], list[list[int]]]:
    return [pc - (pc > e) for pc in pivots], [row[:e] + row[e + 1:] for row in R]


def tutte_thickened(T: BiPolyXY, d: int, m: int) -> BiPolyXY:
    """Tutte polynomial of the m-thickening, from T = T_M and the rank d.

    sum_a C_a P^a Q^(d-a), C_a = sum_b c_ab y^(mb), P = x + y [m-1]_y and
    Q = [m]_y cleared against the x-degree bound d: a homogeneous Horner sum
    over the rows C_a Q^(d-a) of ``T._x_rows``, on a (y-offset, integer list)
    row per power of x, by ``_times_qint`` and ``_add_row`` only.
    """
    d, m = _integer(d, "rank"), _integer(m, "multiplicity")
    if m < 1:
        raise ValueError("m must be >= 1")
    if T.x_degree() > d:
        raise ValueError("T has x-degree above the stated rank")
    acc = [(0, []) for _ in range(d + 1)]  # x^0, ..., x^d, one list each
    for row in reversed(T._x_rows(d, m, m)):  # acc <- acc P + row, in place:
        # the list of acc[i - 1] is read as b before it is reused as a
        acc = [_add_row(u, (lo, _times_qint(c, m - 1)), 1, operator.add)
               for u, (lo, c) in zip([row] + acc[:-1], acc)]
    return BiPolyXY._make(0, [LaurentQ._make(lo, c) for lo, c in acc])
