"""Shared corpus of unimodular test matrices (and one non-unimodular), and
the references that the fast kernels are tested against: Fraction
elimination, subset-enumerated circuits, subset ranks and loops, the
hyperplane sweep's skip rule as a list of zero sets, the per-minor Tutte
recursion, dict polynomial arithmetic, the bounding-box lattice scan,
evaluation of both Ehrhart forms at [m]_q, q-binomial interpolation by a
q-difference table and by products, product-based series numerators, the
product forms of the q-integer kernels, tuple-indexed zonotopal
elimination, and the harmonic presentation over 2^n subset variables and
over the uniform Segre box."""

import functools
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from zonoq import QIVP, from_matrix, h_rep, segre_generators
from zonoq.exact import BiPolyXY, LaurentQ, PolyTQ, qbinom
from zonoq.linalg import (echelon_rank, nullspace_primitive, primitive_vector,
                          rank_int, rref_int)
from zonoq.matroid import _column_to_e1

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
                    [[cols[j][i] for j in combo] for i in range(rz.d)], size)
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
        normals = nullspace_primitive([cols[j] for j in combo], rz.d)
        if len(normals) == 1:
            v = [sum(a * b for a, b in zip(normals[0], col)) for col in cols]
            zero_sets.append(sum(1 << j for j, x in enumerate(v) if not x))
    return calls


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


# -- the per-minor Tutte recursion ---------------------------------------------
# Deletion/contraction on raw columns, with a fresh ``rref_int`` per minor for
# the memo key and the coloops, and an xgcd column reduction per contraction:
# the recursion ``RealizedMatroid.tutte`` ran before it worked on one solved
# form.  Its memo keys are the ones the solved form must produce.


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
    return out * value ** p.lo


def product_graded_count(M, m, interior=False):
    """q^((n-d)m) sum_ab c_ab [m+-1]_q^a [m]_q^(d-a) q^(-mb), from power
    tables and products."""
    d, n = M.d, M.n
    qm = LaurentQ.q_int(m)
    qarg = LaurentQ.q_int(m - 1 if interior else m + 1)
    total = LaurentQ.zero()
    for (a, b), c in M.tutte().items():
        total = total + (qarg ** a * qm ** (d - a) * c).shift(-m * b)
    return total.shift((n - d) * m)


def product_ehr_tpower(M):
    """sum_ab c_ab (qt+1)^a t^(d-a) (1+(q-1)t)^(n-d-b), from products."""
    d, n = M.d, M.n
    qt1 = PolyTQ({1: LaurentQ.q_power(1), 0: LaurentQ.one()})
    w = PolyTQ({0: LaurentQ.one(), 1: LaurentQ({1: 1, 0: -1})})
    return sum((qt1 ** a * PolyTQ.t_power(d - a, c) * w ** (n - d - b)
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
    return sum((P ** a * Q ** (d - a) * BiPolyXY.monomial(0, m * b, c)
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
    return sum((PolyTQ.t_power(k, f) * T[k] for k, f in enumerate(P.basis_coeffs)),
               PolyTQ.zero())


def tails_bar_series_numerator(P):
    """sum_k t (-1)^k q^(k(k+1)/2) bar(f_k) prod_{i=k+1}^{D} (1 - t q^i)."""
    T = tails(P.degree)
    return sum((PolyTQ.t_power(1, f.bar() * LaurentQ.q_power(k * (k + 1) // 2, (-1) ** k))
                * T[k] for k, f in enumerate(P.basis_coeffs)), PolyTQ.zero())


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
        dim = len(index) - echelon_rank(rows, stop_at=len(index))
        if dim == 0:
            return tuple(dims)
        dims.append(dim)
    raise AssertionError("quotient did not vanish by the sum of the exponents")


# -- the 2^n-variable references for the harmonic presentation ---------------


def reference_degree1_dim(M):
    """2^n less the rank of all linear generators, in one elimination."""
    nvars = 1 << M.n
    rows = (dict(g.terms) for g in segre_generators(M).linear)
    return nvars - echelon_rank(rows, stop_at=nvars)


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
        dims[qd] = len(block) - echelon_rank(rows, stop_at=len(block))
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
    return LaurentQ({k: len(block) - echelon_rank(blocks.get(k, []), stop_at=len(block))
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
