"""Shared corpus of unimodular test matrices (and one non-unimodular), and
the references that the fast kernels are tested against: Fraction
elimination, the sparse echelon that rebuilds its row on every step, the
forward Bareiss rank and the sign-tracking Bareiss determinant,
subset-enumerated circuits, subset ranks
and loops, the hyperplane sweep's skip rule as a list of zero sets, the
cocircuit rule that once decided unimodularity, the
first-row solved-form and the per-minor Tutte recursions, dict polynomial
arithmetic, term-by-term q-evaluation of a bivariate polynomial, series
expansion by ``LaurentQ`` sums and shifts, the
bounding-box lattice scan, the per-prefix interval walk and the column walk
that the lattice sumset replaced, evaluation of both Ehrhart forms at [m]_q,
q-binomial interpolation by a q-difference table and by products,
product-based series numerators, the product forms of the q-integer
kernels, tuple-indexed zonotopal elimination, the harmonic presentation
over 2^n subset variables and over the uniform Segre box, and the two box
walks that ``linalg.box_table`` replaced: the per-degree lex-prefix walk of
box monomials and the level-set walk of a circuit's box points.  It also holds
the helpers only tests use: single-element ``delete`` and ``contract``,
``coloops``, ``power``, ``qbinom``, ``bar_q``, ``is_polynomial``,
``y_degree`` and the JSON readers; and two checks only tests make:
``verify_zonotopal`` (both zonotopal Hilbert series against their Tutte
evaluations) and ``euler_mahonian`` (the n-cube's numerator by
permutations)."""

import bisect
import functools
import itertools
import math
import operator
import random
import weakref
from collections.abc import Iterable
from fractions import Fraction

import pytest

from zonoq import (QIVP, GuardExceeded, external_spec, from_matrix, h_rep,
                   hilbert, internal_spec, segre_generators)
from zonoq.exact import BiPolyXY, LaurentQ, PolyTQ
from zonoq.linalg import _exact_div, nullspace_primitive, primitive_vector, rref_int
from zonoq.matroid import Realization, _drop_column, _from_realization
from zonoq.zonotope import BOX_GUARD

FACTORIAL_GUARD = 8

# name -> matrix.  Covers Boolean ranks 1-3, uniform U_{1,2} / U_{2,3},
# a graphic K_3 with a doubled edge, a matroid with a loop, direct sums of
# circuits, and several non-Gorenstein shapes.  All unimodular, n <= 6, d <= 3.
CORPUS_MATRICES = {
    "boolean1": [[1]],
    "boolean2": [[1, 0], [0, 1]],
    "boolean3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "u12": [[1, 1]],
    "hexagon": [[1, 0, 1], [0, 1, 1]],
    "k3_doubled": [[1, 1, 0, 1], [-1, 0, 1, -1]],
    "loop_parallel": [[1, 0, 1]],
    "two_circuits": [[1, 1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]],
    "coloop_digon": [[1, 1, 0], [0, 0, 1]],
    "u13": [[1, 1, 1]],
    "path_plus": [[1, 0, 1, 1], [0, 1, 1, 0]],
    "two_digons": [[1, 1, 0, 0], [0, 0, 1, 1]],
}

# the non-unimodular diamond (det 2); negative example only
DIAMOND = [[1, 1], [-1, 1]]

# R10 = [I5 | D]: the regular matroid that is neither graphic nor cographic,
# the one such building block in Seymour's decomposition of regular matroids
_R10_D = [[-1, 1, 0, 0, 1],
          [1, -1, 1, 0, 0],
          [0, 1, -1, 1, 0],
          [0, 0, 1, -1, 1],
          [1, 0, 0, 1, -1]]
R10 = [[int(i == j) for j in range(5)] + _R10_D[i] for i in range(5)]


def graphic(vertices, edges):
    """Directed incidence matrix with the last vertex's row deleted
    (connected graph: full row rank, totally unimodular)."""
    return [[(1 if u == v else -1 if w == v else 0) for u, w in edges]
            for v in range(vertices - 1)]


def cographic(vertices, edges):
    """[-D^T | I] from ``graphic(vertices, edges)`` = [I | D] up to row
    operations, the first vertices-1 edges being a spanning tree: a totally
    unimodular realization of the dual of the graphic matroid."""
    d = vertices - 1
    pivots, R = fraction_rref(graphic(vertices, edges), len(edges))
    assert pivots == list(range(d))
    return [[-int(R[i][d + k]) for i in range(d)]
            + [int(k == l) for l in range(len(edges) - d)]
            for k in range(len(edges) - d)]


def wheel(spokes):
    """``graphic`` of the wheel with ``spokes`` spokes, spokes first: rank
    ``spokes``, 2 * ``spokes`` elements."""
    return graphic(spokes + 1, [(0, i) for i in range(1, spokes + 1)]
                   + [(i, i % spokes + 1) for i in range(1, spokes + 1)])


def change_of_basis(A, rng):
    """U A for a random unimodular U: the same matroid and lattice counts, in
    coordinates where facet normals have larger entries."""
    d = len(A)
    U = [[int(i == j) for j in range(d)] for i in range(d)]
    for _ in range(rng.randint(1, 4)):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-2, -1, 1, 2))
        U[i] = [a + k * b for a, b in zip(U[i], U[j])]
    return [[sum(u * row[j] for u, row in zip(Ui, A)) for j in range(len(A[0]))]
            for Ui in U]


def sweep_matrices():
    """Seeded full-rank matrices, d 1-4, n <= 7, entries -2..2, plus the
    diamond and matrices with zero and parallel columns."""
    mats = [DIAMOND,
            [[1, 0, 0, 1], [0, 0, 1, 1]],  # zero column
            [[1, 2, 0, -1], [1, 2, 1, 0]],  # parallel columns, not unimodular
            [[1, 1, 0, 1, 0], [0, 0, 1, -1, 0], [1, 1, 1, 0, 1]],
            [[2, 0, 0], [0, 0, 1]]]
    rng = random.Random(2024)
    while len(mats) < 400:
        d = rng.randint(1, 4)
        n = rng.randint(d, 7)
        hi = rng.choice((1, 2))  # entries in -1..1 make unimodular A common
        A = [[rng.randint(-hi, hi) for _ in range(n)] for _ in range(d)]
        if rank_int(A) == d:
            mats.append(A)
    return mats


@functools.cache
def unimodular_suite():
    """The corpus, R10, K4, K5 and the unimodular sweep matrices as
    matroids, each distinct matrix once."""
    mats = [*CORPUS_MATRICES.values(), R10,
            graphic(4, list(itertools.combinations(range(4), 2))),
            graphic(5, list(itertools.combinations(range(5), 2))),
            *sweep_matrices()]
    unique = {repr(A): from_matrix(A) for A in mats}
    return tuple(M for M in unique.values() if M.is_unimodular())


def fraction_rref(rows, ncols):
    """(pivot columns, reduced row echelon form over Fractions), the
    rational reference for the integer kernels."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        piv = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if piv is None:
            continue
        r = len(pivots)
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return pivots, m


def fraction_kernel(rows, ncols):
    """Basis of the right kernel of a rational matrix, by reduced row
    echelon form over Fractions."""
    pivots, m = fraction_rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][free]
        basis.append(vec)
    return basis


def reference_circuits(rz):
    """(support, alpha) per circuit of a Realization, in enumeration order:
    every subset of at most d+1 columns that is dependent and holds no
    circuit found before, with the primitive kernel vector of its columns."""
    cols = rz.columns()
    circuits = []
    for size in range(1, rz.d + 2):
        for combo in itertools.combinations(range(rz.n), size):
            if any(set(s) <= set(combo) for s, _ in circuits):
                continue
            if rank_int([cols[j] for j in combo]) < size:
                kern = nullspace_primitive(
                    *rref_int([[cols[j][i] for j in combo] for i in range(rz.d)]), size)
                assert len(kern) == 1, combo
                circuits.append((combo, kern[0]))
    return circuits


def reference_sweep_eliminations(rz):
    """How many (d-1)-subsets of columns the hyperplane sweep of a
    Realization hands to ``nullspace_primitive``, by its skip rule as a list
    of zero sets: a subset is skipped iff its column mask lies inside the
    zero set of a hyperplane found before it in enumeration order."""
    cols = rz.columns()
    zero_sets, calls = [], 0
    for combo in itertools.combinations(range(rz.n), rz.d - 1):
        mask = sum(1 << j for j in combo)
        if any(mask & z == mask for z in zero_sets):
            continue
        calls += 1
        normals = nullspace_primitive(*rref_int([cols[j] for j in combo]), rz.d)
        if len(normals) == 1:
            v = [sum(a * b for a, b in zip(normals[0], col)) for col in cols]
            zero_sets.append(sum(1 << j for j, x in enumerate(v) if not x))
    return calls


def reference_cocircuit_unimodular(M):
    """The rule ``is_unimodular`` applied before it compared det(A A^T) with
    T_M(1, 1): every cocircuit vector of the hyperplane sweep lies in
    {0, +-1}^n."""
    return all(-1 <= x <= 1 for cc in M.cocircuits for x in cc.v)


_RANK_CACHES = weakref.WeakKeyDictionary()  # matroid -> {frozenset: rank}


def reference_rank(M, subset):
    """Rank of the columns of M in ``subset``, by ``rank_int`` on those
    columns, cached per matroid and subset."""
    key = frozenset(subset)
    if not all(0 <= j < M.n for j in key):
        raise ValueError("subset out of range")
    cache = _RANK_CACHES.setdefault(M, {})
    if key not in cache:
        cache[key] = rank_int([M.realization.column(j) for j in sorted(key)])
    return cache[key]


def reference_loops(M):
    """The zero columns of M."""
    return tuple(j for j in range(M.n) if not any(M.realization.column(j)))


def reference_components(n, circuits):
    """(elements, is_circuit) per component: the classes of co-occurrence in
    a circuit, flagged when the class is itself a circuit support."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for support, _ in circuits:
        for j in support[1:]:
            parent[find(j)] = find(support[0])
    groups = {}
    for j in range(n):
        groups.setdefault(find(j), []).append(j)
    supports = {frozenset(s) for s, _ in circuits}
    return sorted((tuple(g), frozenset(g) in supports) for g in groups.values())


# -- single-element minors and the contraction transform ----------------------
# Deletion and contraction of one element as new matroids, and the coloops
# of a matroid, read off ``rref_int``; tests use them to check Tutte polynomials
# and the sweep against the minors they describe.


def coloops(M):
    """The pivot columns of ``rref_int(A)`` whose row is zero off the pivot,
    i.e. that no other column needs."""
    pivots, R = rref_int(M.realization.entries)
    return tuple(pc for pc, row in zip(pivots, R) if row.count(0) == M.n - 1)


def delete(M, i):
    if not 0 <= i < M.n:
        raise ValueError("element out of range")
    if i in coloops(M):
        raise ValueError(f"cannot delete coloop {i}")
    rows = tuple(r[:i] + r[i + 1:] for r in M.realization.entries)
    return _from_realization(Realization(M.d, M.n - 1, rows))


def contract(M, i):
    if not 0 <= i < M.n:
        raise ValueError("element out of range")
    if not any(M.realization.column(i)):
        raise ValueError(f"cannot contract loop {i}")
    rows = _column_to_e1([list(r) for r in M.realization.entries], i)
    new = tuple(tuple(v for j, v in enumerate(r) if j != i)
                for r in rows[1:])
    return _from_realization(Realization(M.d - 1, M.n - 1, new))


def _xgcd(a, b):
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


def _column_to_e1(rows, j):
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


# -- the first-row solved-form Tutte recursion ----------------------------------
# Deletion/contraction on one solved form that branches on the first row of R
# with two nonzeros and keys its memo with loops and coloops still inside: the
# recursion ``RealizedMatroid.tutte`` ran before it branched on the sparsest
# fundamental cocircuit.  It keeps a memo of its own.

_REFERENCE_SOLVED_MEMO = {}


def reference_tutte_solved(pivots, R, n):
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
    hit = _REFERENCE_SOLVED_MEMO.get(key)
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
        result = (reference_tutte_solved(*deleted, n - 1)
                  + reference_tutte_solved(*_drop_column(e, rest_pivots, rest), n - 1))
    _REFERENCE_SOLVED_MEMO[key] = result
    return result


# -- the per-minor Tutte recursion ---------------------------------------------
# Deletion/contraction on raw columns, with a fresh ``rref_int`` per minor for
# the memo key and the coloops, and an xgcd column reduction per contraction:
# the recursion ``RealizedMatroid.tutte`` ran before it worked on one solved
# form.  Every memo entry of the solved form is checked against it.


def _reference_signature(cols, d):
    n = len(cols)
    if d == 0:
        return (0, n), ()
    pivots, R = rref_int(list(zip(*cols)))
    sig = sorted(primitive_vector(col) for col in zip(*R))
    coloops = tuple(pc for pc, row in zip(pivots, R)
                    if sum(1 for x in row if x) == 1)
    return (d, tuple(sig)), coloops


def _reference_contract(cols, j):
    d = len(cols[0])
    rows = [[cols[k][i] for k in range(len(cols))] for i in range(d)]
    rest = _column_to_e1(rows, j)[1:]
    return tuple(tuple(r[k] for r in rest)
                 for k in range(len(cols)) if k != j)


def _reference_tutte_cols(cols, d, memo):
    if not cols:
        return BiPolyXY.one()
    key, coloops = _reference_signature(cols, d)
    hit = memo.get(key)
    if hit is not None:
        return hit
    pivot = next((j for j, col in enumerate(cols)
                  if any(col) and j not in coloops), None)
    if pivot is None:
        result = BiPolyXY.monomial(len(coloops), len(cols) - len(coloops))
    else:
        deleted = cols[:pivot] + cols[pivot + 1:]
        result = (_reference_tutte_cols(deleted, d, memo)
                  + _reference_tutte_cols(_reference_contract(cols, pivot),
                                          d - 1, memo))
    memo[key] = result
    return result


def reference_tutte(M):
    """(Tutte polynomial of M, the memo it filled) by the per-minor
    recursion, from a cold memo of its own."""
    memo = {}
    return _reference_tutte_cols(tuple(M.realization.columns()), M.d, memo), memo


# -- the term-map reference for the dense polynomial core --------------------
# The dict arithmetic the polynomial types used before they shared one dense
# core.  A term map sends an exponent to a nonzero integer; the exponent is an
# int for LaurentQ and a pair for PolyTQ (t, q) and BiPolyXY (x, y).


def _exp_add(e1, e2):
    return e1 + e2 if isinstance(e1, int) else tuple(a + b for a, b in zip(e1, e2))


def dict_add(p, q, sign=1):
    """p + sign * q."""
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def dict_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = _exp_add(e1, e2)
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def dict_pow(p, n, unit):
    """p ** n; ``unit`` is the exponent of the constant term (0 or (0, 0))."""
    out = {unit: 1}
    for _ in range(n):
        out = dict_mul(out, p)
    return out


def dict_bar(p):
    """q -> 1/q on a Laurent term map."""
    return {-e: c for e, c in p.items()}


def dict_shift(p, k):
    return {e + k: c for e, c in p.items()}


def dict_t_reverse_bar(p, top):
    """t^top * p(1/t, 1/q) on a (t, q) term map."""
    return {(top - k, -e): c for (k, e), c in p.items()}


def dict_eval_t(p, value):
    """A (t, q) term map at t := value, a Laurent term map."""
    out = {}
    for (k, e), c in p.items():
        out = dict_add(out, dict_mul({e: c}, dict_pow(value, k, 0)))
    return out


def box_scan_count(M, m, interior=False):
    """Lattice points of mZ by testing every facet pair at every point of
    the bounding box: the reference for interval counting."""
    if m < 1:
        raise ValueError("dilate m must be >= 1")
    if M.d == 0:
        return 1
    rep = h_rep(M)
    ranges = [range(m * sum(min(0, a) for a in row), m * sum(max(0, a) for a in row) + 1)
              for row in M.realization.entries]
    count = 0
    facets = rep.facets
    for x in itertools.product(*ranges):
        ok = True
        for f in facets:
            val = sum(ci * xi for ci, xi in zip(f.c, x))
            if interior:
                if not (m * f.alpha_min < val < m * f.alpha_max):
                    ok = False
                    break
            elif not (m * f.alpha_min <= val <= m * f.alpha_max):
                ok = False
                break
        if ok:
            count += 1
    return count


def reference_lattice_count(M, m, interior=False):
    """Lattice points of mZ by the per-prefix interval walk: for each prefix
    of the bounding box without its longest coordinate, each facet pair
    bounds that coordinate to an integer interval (or passes or fails
    outright), and the prefix adds the length of their intersection."""
    if m < 1:
        raise ValueError("dilate m must be >= 1")
    if M.d == 0:
        return 1
    rep = h_rep(M)
    ranges = [range(m * sum(min(0, a) for a in row), m * sum(max(0, a) for a in row) + 1)
              for row in M.realization.entries]
    volume = math.prod(map(len, ranges))
    if volume > BOX_GUARD:
        raise GuardExceeded(
            f"bounding box volume {volume} exceeds BOX_GUARD={BOX_GUARD}")
    last = max(range(M.d), key=lambda i: len(ranges[i]))
    # lo <= <c', x'> + a * x_last <= hi per facet pair, signed so that a >= 0;
    # interior points satisfy the strict inequalities, lo+1 ... hi-1
    strict = 1 if interior else 0
    bounds = []
    for f in rep.facets:
        a = f.c[last]
        lo, hi = m * f.alpha_min + strict, m * f.alpha_max - strict
        rest = f.c[:last] + f.c[last + 1:]
        if a < 0:
            a, lo, hi, rest = -a, -hi, -lo, tuple(-x for x in rest)
        bounds.append((rest, a, lo, hi))
    t_min, t_max = ranges[last].start, ranges[last].stop - 1
    count = 0
    for prefix in itertools.product(*(ranges[:last] + ranges[last + 1:])):
        t_lo, t_hi = t_min, t_max
        for rest, a, lo, hi in bounds:
            s = sum(map(operator.mul, rest, prefix))
            if a:
                t_lo = max(t_lo, -((s - lo) // a))
                t_hi = min(t_hi, (hi - s) // a)
                if t_lo > t_hi:
                    break
            elif not lo <= s <= hi:
                break
        else:
            count += t_hi - t_lo + 1
    return count


def column_walk_counts(M, m, block_entries=2**16):
    """(closed, interior) lattice counts of mZ by the column walk that the
    bitset sumset replaced: on X = B^-1 A, whose facet normals lie in
    {0, +-1}^d, it visits the bounding box without its longest coordinate;
    each facet's sums over a block of trailing coordinates are one list
    (facets x block points <= block_entries), and for each prefix of the
    other coordinates the lists fold elementwise into the integer interval
    left on the last coordinate."""
    rep = h_rep(M)
    pivots, R = M._solved
    D = R[0][pivots[0]]
    X = [[D * x for x in row] for row in R]
    normals = [tuple(cc.v[p] for p in pivots) for cc in M.cocircuits]
    ranges = [range(m * sum(min(0, a) for a in row), m * sum(max(0, a) for a in row) + 1)
              for row in X]
    last = max(range(M.d), key=lambda i: len(ranges[i]))
    spans = ranges[:last] + ranges[last + 1:]
    split, size = len(spans), len(rep.facets)
    while split and size * len(spans[split - 1]) <= block_entries:
        split -= 1
        size *= len(spans[split])
    # lo <= <c', x'> + a * x_last <= hi per facet pair, a in {0, 1} once
    # signed, with <c', x'> = s + x: s over the outer coordinates, x over the
    # block
    unit, flat = [], []
    for f, normal in zip(rep.facets, normals):
        a, lo, hi = normal[last], m * f.alpha_min, m * f.alpha_max
        c = normal[:last] + normal[last + 1:]
        if a < 0:
            lo, hi, c = -hi, -lo, tuple(-x for x in c)
        xs = [0]
        for ci, r in zip(c[split:], spans[split:]):
            xs = [s + ci * x for s in xs for x in r]
        (unit if a else flat).append((c[:split], lo, hi, xs))
    t_min, t_max = ranges[last][0], ranges[last][-1]
    closed = interior = 0
    for prefix in itertools.product(*spans[:split]):
        # per block point: x_last in [max lo - v, min hi - v] over the a = 1
        # facets, and slack min(v - lo, hi - v) over the a = 0 facets, >= 0
        # for a point and >= 1 for an interior point
        lows, highs, slacks = [[t_min] * len(xs)], [[t_max] * len(xs)], [[1] * len(xs)]
        for c, lo, hi, xs in unit:
            s = sum(map(operator.mul, c, prefix))
            lows.append([lo - s - x for x in xs])
            highs.append([hi - s - x for x in xs])
        for c, lo, hi, xs in flat:
            s = sum(map(operator.mul, c, prefix))
            slacks += [[s + x - lo for x in xs], [hi - s - x for x in xs]]
        for t_lo, t_hi, slack in zip(map(max, zip(*lows)), map(min, zip(*highs)),
                                     map(min, zip(*slacks))):
            if slack >= 0:
                closed += max(0, t_hi - t_lo + 1)
            if slack >= 1:
                interior += max(0, t_hi - t_lo - 1)
    return closed, interior


def verify_zonotopal(M):
    """Check both zonotopal Hilbert series against their Tutte evaluations:
    external = q^(n-d) T(1+q, 1/q) and internal = q^(n-d) T(0, 1/q)."""
    d, n = M.d, M.n
    ext = M.tutte().q_eval(2, 1, d, -1).shift(n - d)  # 1 + q = [2]_q
    intr = M.tutte().q_eval(0, 1, d, -1).shift(n - d)
    return hilbert(external_spec(M)) == ext and hilbert(internal_spec(M)) == intr


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


# -- polynomial helpers only tests use ----------------------------------------


def power(p, n):
    """p ** n for a polynomial p and n >= 0, by repeated squaring with ``*``."""
    if n < 0:
        raise ValueError(f"negative powers are not defined for {type(p).__name__}")
    result = type(p).one()
    while n:
        if n & 1:
            result = result * p
        p = p * p
        n >>= 1
    return result


def qbinom(m: int, k: int) -> LaurentQ:
    """The Gaussian binomial coefficient binom(m, k)_q for m >= 0.

    Zero whenever k < 0 or k > m; otherwise a polynomial in q with
    non-negative coefficients, prod_{i<k} [m-i]_q / [k]_q!, built as
    binom(m, i+1)_q = binom(m, i)_q [m-i]_q / [i+1]_q (each division exact).
    """
    if m < 0:
        raise ValueError("qbinom requires m >= 0")
    if k < 0 or k > m:
        return LaurentQ.zero()
    out = LaurentQ.one()
    for i in range(k):
        out = out.times_qint(m - i).over_qint(i + 1)
    return out


def bar_q(p: LaurentQ) -> LaurentQ:
    """The involution q -> q^(-1) on Laurent polynomials."""
    return p.bar()


def is_polynomial(p: LaurentQ) -> bool:
    """True iff no negative q-exponent appears (membership in Z[q])."""
    return p.lo >= 0


def y_degree(T: BiPolyXY) -> int:
    return max((g.lo + len(g.c) - 1 for g in T.c if g), default=0)


def laurent_from_json(data: Iterable) -> LaurentQ:
    return LaurentQ({int(e): int(c) for e, c in data})


def polytq_from_json(data: Iterable) -> PolyTQ:
    out: dict[int, dict[int, int]] = {}
    for k, e, c in data:
        out.setdefault(int(k), {})[int(e)] = int(c)
    return PolyTQ({k: LaurentQ(terms) for k, terms in out.items()})


def bipoly_from_json(data: Iterable) -> BiPolyXY:
    return BiPolyXY({(int(a), int(b)): int(c) for a, b, c in data})


# -- product-based references for the Ehrhart layer --------------------------


@functools.cache
def pascal_qbinom(m, k):
    """binom(m, k)_q by the q-Pascal recursion
    binom(m,k)_q = binom(m-1,k-1)_q + q^k binom(m-1,k)_q."""
    if k < 0 or k > m:
        return LaurentQ.zero()
    if k == 0 or k == m:
        return LaurentQ.one()
    return pascal_qbinom(m - 1, k - 1) + pascal_qbinom(m - 1, k).shift(k)


def product_eval_t(p, value):
    """A PolyTQ at t := value, by Horner's rule with one product per step."""
    out = LaurentQ.zero()
    for g in reversed(p.c):
        out = out * value + g
    return out * power(value, p.lo)


def product_graded_count(M, m, interior=False):
    """q^((n-d)m) sum_ab c_ab [m+-1]_q^a [m]_q^(d-a) q^(-mb), from power
    tables and products."""
    d, n = M.d, M.n
    qm = LaurentQ.q_int(m)
    qarg = LaurentQ.q_int(m - 1 if interior else m + 1)
    total = LaurentQ.zero()
    for (a, b), c in M.tutte().items():
        total = total + (power(qarg, a) * power(qm, d - a) * c).shift(-m * b)
    return total.shift((n - d) * m)


@functools.cache
def _qint_power(k, a):
    return power(LaurentQ.q_int(k), a)


def reference_x_coeffs(T, top, e):
    """The coefficients of x^0, ..., x^top in T(x, q^e), summed term by term
    from ``items()``; top at least the x-degree of T."""
    out = [{} for _ in range(top + 1)]
    for (a, b), c in T.items():
        out[a][e * b] = out[a].get(e * b, 0) + c
    return [LaurentQ(g) for g in out]


def reference_q_eval(T, k, j, top, e):
    """[j]_q^top T([k]_q / [j]_q, q^e) = sum c q^(eb) [k]_q^a [j]_q^(top-a)
    over the terms c x^a y^b of T, from power tables and products."""
    return sum((_qint_power(k, a) * _qint_power(j, top - a) * LaurentQ.q_power(e * b, c)
                for (a, b), c in T.items()), LaurentQ.zero())


def reference_expand(series, up_to):
    """t^0 ... t^up_to of ``series``, dividing by each (1 - t q^i) with one
    ``LaurentQ`` sum and one ``shift`` per coefficient:
    out[j] = in[j] + q^i out[j-1]."""
    coeffs = [series.numerator.coeff(k) for k in range(up_to + 1)]
    for i in range(series.order + 1):
        acc = LaurentQ.zero()
        nxt = []
        for c in coeffs:
            acc = c + acc.shift(i)
            nxt.append(acc)
        coeffs = nxt
    return coeffs


def product_ehr_tpower(M):
    """sum_ab c_ab (qt+1)^a t^(d-a) (1+(q-1)t)^(n-d-b), from products."""
    d, n = M.d, M.n
    qt1 = PolyTQ({1: LaurentQ.q_power(1), 0: LaurentQ.one()})
    w = PolyTQ({0: LaurentQ.one(), 1: LaurentQ({1: 1, 0: -1})})
    return sum((power(qt1, a) * PolyTQ({d - a: c}) * power(w, n - d - b)
                for (a, b), c in M.tutte().items()), PolyTQ.zero())


def product_bar_eval(P, m):
    """sum_k bar(f_k) (-1)^k q^(k(k+1)/2) binom(m+k-1, k)_q, one product per
    basis coefficient."""
    return sum((P.basis_coeffs[k].bar() * pascal_qbinom(m + k - 1, k)
                * LaurentQ.q_power(k * (k + 1) // 2, (-1) ** k)
                for k in range(P.degree + 1)), LaurentQ.zero())


def product_tutte_thickened(T, d, m):
    """sum_ab c_ab P^a Q^(d-a) y^(mb), P = x + y + ... + y^(m-1) and
    Q = 1 + y + ... + y^(m-1), from power tables and products."""
    P = BiPolyXY({(1, 0): 1, **{(0, b): 1 for b in range(1, m)}})
    Q = BiPolyXY({(0, b): 1 for b in range(m)})
    return sum((power(P, a) * power(Q, d - a) * BiPolyXY.monomial(0, m * b, c)
                for (a, b), c in T.items()), BiPolyXY.zero())


def eval_qint(p, m):
    """A PolyTQ at t := [m]_q, by Horner's rule with ``times_qint``."""
    out = LaurentQ.zero()
    for g in [*reversed(p.c)] + [out] * p.lo:  # lo zeros below c
        out = out.times_qint(m) + g
    return out


def eval_qivp(P: QIVP, m: int) -> LaurentQ:
    """Value at t = [m]_q: sum_k f_k(q) binom(m, k)_q."""
    if m < 0:
        raise ValueError("m must be non-negative")
    out = LaurentQ.zero()
    for k, f in enumerate(P.basis_coeffs):
        out = out + f * qbinom(m, k)
    return out


def qdifference_interpolation(values):
    """The QIVP of degree D = len(values) - 1 with value values[m] at [m]_q.

    By q-Pascal, binom(m+1,k)_q = q^(m+1-k) binom(m,k-1)_q + binom(m,k)_q, so
    q^(-m) (v_(m+1) - v_m) has basis coefficients f_(k+1) q^(-k): row k of
    that q-difference table starts with f_k q^(-k(k-1)/2).
    """
    row, coeffs = values, []
    for k in range(len(values)):
        coeffs.append(row[0].shift(k * (k - 1) // 2))
        row = [(b - a).shift(-m) for m, (a, b) in enumerate(zip(row, row[1:]))]
    return QIVP(tuple(coeffs), len(values) - 1)


def triangular_interpolation(values):
    """q-binomial basis coefficients f_0..f_D of the QIVP taking values[m] at
    [m]_q, through the unit-diagonal triangular matrix binom(m, k)_q:
    f_m = values[m] - sum_{k<m} f_k binom(m, k)_q."""
    coeffs = []
    for m, f in enumerate(values):
        for k in range(m):
            f = f - coeffs[k] * pascal_qbinom(m, k)
        coeffs.append(f)
    return tuple(coeffs)


def tails(D):
    """The products prod_{i=k+1}^{D} (1 - t q^i) for k = 0, ..., D."""
    out = [PolyTQ.one()]
    for i in range(D, 0, -1):
        out.append(out[-1] * PolyTQ({0: LaurentQ.one(), 1: LaurentQ.q_power(i, -1)}))
    return out[::-1]


def tails_series_numerator(P):
    """sum_k t^k f_k prod_{i=k+1}^{D} (1 - t q^i), one product per term."""
    T = tails(P.degree)
    return sum((PolyTQ({k: f}) * T[k] for k, f in enumerate(P.basis_coeffs)),
               PolyTQ.zero())


def tails_bar_series_numerator(P):
    """sum_k t (-1)^k q^(k(k+1)/2) bar(f_k) prod_{i=k+1}^{D} (1 - t q^i)."""
    T = tails(P.degree)
    return sum((PolyTQ({1: f.bar() * LaurentQ.q_power(k * (k + 1) // 2, (-1) ** k)})
                * T[k] for k, f in enumerate(P.basis_coeffs)), PolyTQ.zero())


def reference_echelon_rank(rows, stop_at=None):
    """Reference sparse echelon: each reduction step builds the scaled row
    anew and divides it by the gcd of its entries, and pivots are kept as
    dicts.  The four elimination references below rank with it."""
    if stop_at == 0:
        return 0
    pivots = {}
    for r in rows:
        row = {j: v for j, v in r.items() if v}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                break
            p, f = pivot[lead], row[lead]
            g = math.gcd(p, f)
            p, f = p // g, f // g
            if p != 1:
                row = {j: p * v for j, v in row.items()}
            for j, v in pivot.items():
                x = row.get(j, 0) - f * v
                if x:
                    row[j] = x
                else:
                    del row[j]
            g = math.gcd(*row.values())
            if g > 1:
                row = {j: v // g for j, v in row.items()}
        if not row:
            continue
        pivots[lead] = row
        if stop_at is not None and len(pivots) >= stop_at:
            break
    return len(pivots)


def rank_int(rows):
    """Rank of an integer matrix by forward Bareiss elimination: each step
    replaces a row below the pivot by (p * row - f * pivot_row) / prev,
    exact by Sylvester's identity."""
    m = [list(r) for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    prev = 1
    for col in range(nc):
        for piv in range(rank, nr):
            if m[piv][col]:
                break
        else:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        top = m[rank]
        p = top[col]
        for i in range(rank + 1, nr):
            row = m[i]
            f = row[col]
            for j in range(col + 1, nc):
                row[j] = _exact_div(p * row[j] - f * top[j], prev)
        prev = p
        rank += 1
        if rank == nr:
            break
    return rank


def det_int(rows):
    """Determinant of a square integer matrix by forward Bareiss elimination,
    tracking the sign of row swaps; 1 for 0 x 0."""
    m = [list(r) for r in rows]
    n = len(m)
    prev = 1
    sign = 1
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        top = m[col]
        p = top[col]
        for row in m[col + 1:]:
            f = row[col]
            for j in range(col + 1, n):
                row[j] = _exact_div(p * row[j] - f * top[j], prev)
        prev = p
    return sign * prev


def reference_hilbert_dims(spec):
    """Graded dimensions of a zonotopal quotient with monomials as exponent
    tuples, columns numbered in graded-lex order per degree."""
    d = spec.variables
    if any(e == 0 for _, e in spec.generators):
        return ()

    def monomials(k):
        return [c for c in itertools.product(range(k, -1, -1), repeat=d) if sum(c) == k]

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    expanded = []
    for c, e in sorted(spec.generators, key=lambda g: (sum(1 for x in g[0] if x), g[1])):
        poly = {(0,) * d: 1}
        for _ in range(e):
            nxt = {}
            for mono, co in poly.items():
                for u, ci in zip(units, c):
                    if ci:
                        nxt[add(mono, u)] = nxt.get(add(mono, u), 0) + co * ci
            poly = nxt
        expanded.append((poly, e))
    dims = []
    for k in range(sum(e for _, e in spec.generators) + 1):
        index = {mono: i for i, mono in enumerate(monomials(k))}
        rows = [{index[add(mono, s)]: co for mono, co in poly.items()}
                for poly, e in expanded if e <= k for s in monomials(k - e)]
        dim = len(index) - reference_echelon_rank(rows, stop_at=len(index))
        if dim == 0:
            return tuple(dims)
        dims.append(dim)
    raise AssertionError("quotient did not vanish by the sum of the exponents")


def reference_monomials(bounds, k, base):
    """Columns of the degree-k box monomials y^a (0 <= a_i < bounds[i]),
    ascending.

    y^a has column -(a read in base ``base`` > k, y_1 most significant):
    ascending columns run in graded-lex order, and the column of a product
    of monomials is the sum of their columns.
    """
    d = len(bounds)
    # room[i]: the largest degree of a box monomial in y_(i+1), ..., y_d
    room = list(itertools.accumulate(reversed(bounds), lambda r, b: r + b - 1,
                                     initial=0))[::-1]
    prefixes = [(0, k)] if k <= room[0] else []  # (column so far, degree left)
    for i, b in enumerate(bounds):
        weight = base ** (d - 1 - i)
        prefixes = [(col - e * weight, rest - e) for col, rest in prefixes
                    for e in range(min(rest, b - 1), max(0, rest - room[i + 1]) - 1, -1)]
    return [col for col, _ in prefixes]


def _reference_chains(pool, levels, s):
    """Each box point b with |b| = s as the place values summed over its
    level sets S_t = {j : b_j >= t}, S_t drawn from S_(t-1) within
    ``levels[t-1]`` and S_0 = ``pool``: with one level, one combinations walk."""
    allowed, rest = levels[0], levels[1:]
    pool = tuple(w for w in pool if w in allowed)
    if not rest:
        for S in itertools.combinations(pool, s):
            yield sum(S)
        return
    for a in range(-(-s // len(levels)), min(s, len(pool)) + 1):
        for S in itertools.combinations(pool, a):
            head = sum(S)
            for tail in _reference_chains(S, rest, s - a):
                yield head + tail


def reference_circuit_points(bounds, support, s):
    """Mixed-radix columns of the points b of the box prod_j {0..bounds[j]}
    with |b| = s and b_i <= bounds[i]-1 on ``support``, by the level-set walk
    (none if s < 0)."""
    if s < 0:
        return []
    place = [math.prod(b + 1 for b in bounds[:j]) for j in range(len(bounds))]
    levels = tuple(frozenset(w for j, w in enumerate(place) if bounds[j] > t
                             or bounds[j] == t and j not in support)
                   for t in range(1, max(bounds) + 1))
    return list(_reference_chains(place[::-1], levels, s))


# -- the 2^n-variable references for the harmonic presentation ---------------


def reference_degree1_dim(M):
    """2^n less the rank of all linear generators, in one elimination."""
    nvars = 1 << M.n
    rows = (dict(g.terms) for g in segre_generators(M).linear)
    return nvars - reference_echelon_rank(rows, stop_at=nvars)


def reference_graded_hilbert(M, m):
    """q-graded dimensions of the degree-m slice, with monomials as sorted
    tuples of subset bitmasks: the rows are the degree m-1 multiples of the
    linear generators and the degree m-2 multiples of the binomials
    z_S z_T - z_(S|T) z_(S&T), eliminated per q-degree block."""
    if m == 0:
        return LaurentQ.one()
    nvars = 1 << M.n
    gens = segre_generators(M).linear

    def qdeg(mono):
        return sum(mask.bit_count() for mask in mono)

    index = {}
    for mono in itertools.combinations_with_replacement(range(nvars), m):
        block = index.setdefault(qdeg(mono), {})
        block[mono] = len(block)
    blocks = {}
    for base in itertools.combinations_with_replacement(range(nvars), m - 1):
        for g in gens:
            row = {}
            for mask, co in g.terms:
                key = tuple(sorted(base + (mask,)))
                row[key] = row.get(key, 0) + co
            blocks.setdefault(qdeg(next(iter(row))), []).append(row)
    pairs = [(S, T) for S in range(nvars) for T in range(S + 1, nvars)
             if (S | T) != S and (S | T) != T]
    if m >= 2:
        for base in itertools.combinations_with_replacement(range(nvars), m - 2):
            for S, T in pairs:
                plus = tuple(sorted(base + (S, T)))
                blocks.setdefault(qdeg(plus), []).append(
                    {plus: 1, tuple(sorted(base + (S | T, S & T))): -1})
    dims = {}
    for qd, block in index.items():
        rows = ({block[mono]: co for mono, co in row.items()}
                for row in blocks.get(qd, []))
        dims[qd] = len(block) - reference_echelon_rank(rows, stop_at=len(block))
    return LaurentQ(dims)


def reference_box_graded_hilbert(M, m):
    """The degree-m slice over the uniform box {0..m}^n of count vectors, one
    coordinate per column however the columns repeat: per q-block, the box
    points of that weight less the rank of the rows sum_{i in C} alpha_i
    e_(b+e_i) over circuits C and box points b with b_i <= m-1 on C."""
    if m == 0:
        return LaurentQ.one()
    index = {}
    for b in itertools.product(range(m + 1), repeat=M.n):
        block = index.setdefault(sum(b), {})
        block[b] = len(block)
    blocks = {}
    for circ in M.circuits:
        ranges = [range(m if j in circ.support else m + 1) for j in range(M.n)]
        for b in itertools.product(*ranges):
            k = sum(b) + 1
            blocks.setdefault(k, []).append(
                {index[k][tuple(x + (j == i) for j, x in enumerate(b))]: co
                 for i, co in zip(circ.support, circ.alpha)})
    return LaurentQ({k: len(block) - reference_echelon_rank(blocks.get(k, []),
                                                            stop_at=len(block))
                     for k, block in index.items()})


EXPECTED_VERDICT = {
    "boolean1": "boolean",
    "boolean2": "boolean",
    "boolean3": "boolean",
    "u12": "circuit-components",
    "hexagon": "circuit-components",
    "k3_doubled": "not-gorenstein",
    "loop_parallel": "circuit-components",
    "two_circuits": "circuit-components",
    "coloop_digon": "not-gorenstein",
    "u13": "not-gorenstein",
    "path_plus": "not-gorenstein",
    "two_digons": "circuit-components",
}


@pytest.fixture(scope="session")
def corpus():
    return {name: from_matrix(mat) for name, mat in CORPUS_MATRICES.items()}


@pytest.fixture(scope="session")
def hexagon(corpus):
    return corpus["hexagon"]
