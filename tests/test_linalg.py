"""The exact elimination kernels: the sparse echelon against dense Bareiss
rank and, on the oracles' own row streams, against the reference echelon;
the dense integer kernels against Fraction and Leibniz references; and the
algebra oracles on graphic/cographic inputs beyond the n <= 6 corpus."""

import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import zonoq
from conftest import (det_int, fraction_kernel, fraction_rref, graphic, rank_int,
                      reference_echelon_rank, sweep_matrices, unimodular_suite,
                      verify_zonotopal)
from zonoq import (GuardExceeded, degree1_dim, external_spec, from_matrix, harmonic, hilbert,
                   internal_spec, linalg, zonalg)
from zonoq.cli import ORACLE_GUARD
from zonoq.harmonic import graded_hilbert
from zonoq.linalg import echelon_rank, nullspace_primitive, primitive_vector, rref_int


def as_dicts(matrix):
    return [{j: v for j, v in enumerate(row) if v} for row in matrix]


def random_matrix(rng, nrows, ncols, bound, density):
    return [[rng.randint(-bound, bound) if rng.random() < density else 0
             for _ in range(ncols)] for _ in range(nrows)]


def plant_dependent(rng, matrix, extra):
    """Append ``extra`` random integer combinations of the existing rows,
    each inserted at a random position."""
    out = [list(r) for r in matrix]
    for _ in range(extra):
        coeffs = [rng.randint(-3, 3) for _ in matrix]
        combo = [sum(c * r[j] for c, r in zip(coeffs, matrix))
                 for j in range(len(matrix[0]))]
        out.insert(rng.randint(0, len(out)), combo)
    return out


class TestAgainstBareiss:
    @pytest.mark.parametrize("density", [1.0, 0.3, 0.1])
    def test_random(self, density):
        rng = random.Random(17)
        for _ in range(60):
            nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
            m = random_matrix(rng, nrows, ncols, 5, density)
            assert echelon_rank(as_dicts(m)) == rank_int(m)

    def test_large_entries(self):
        rng = random.Random(23)
        for _ in range(40):
            m = random_matrix(rng, rng.randint(2, 7), rng.randint(2, 7),
                              10**6, 0.6)
            assert echelon_rank(as_dicts(m)) == rank_int(m)

    def test_planted_dependent_rows(self):
        rng = random.Random(29)
        for _ in range(40):
            base = random_matrix(rng, rng.randint(1, 5), rng.randint(4, 9),
                                 9, 0.5)
            m = plant_dependent(rng, base, rng.randint(1, 6))
            assert echelon_rank(as_dicts(m)) == rank_int(m) == rank_int(base)

    def test_wide_sparse_columns(self):
        # few nonzeros among many columns, keyed far apart, as Segre rows are
        rng = random.Random(31)
        for _ in range(20):
            cols = rng.sample(range(4096), 12)
            dense = random_matrix(rng, 10, 12, 4, 0.25)
            rows = [{cols[j]: v for j, v in enumerate(r) if v} for r in dense]
            assert echelon_rank(rows) == rank_int(dense)

    def test_inputs_unchanged(self):
        rows = [{0: 2, 1: 4}, {0: 3, 2: 1}, {0: 1, 1: 2}]
        copies = [dict(r) for r in rows]
        assert echelon_rank(rows) == 2
        assert rows == copies


class TestRowFormat:
    def test_explicit_zero_entries(self):
        rows = [{0: 0, 1: 1}, {0: 0, 1: 2, 2: 0}, {0: 5, 1: 0}]
        assert echelon_rank(rows) == 2

    def test_empty_rows(self):
        assert echelon_rank([]) == 0
        assert echelon_rank([{}, {}]) == 0
        assert echelon_rank([{}, {3: 1}, {}, {3: -7}]) == 1

    def test_all_zero_row(self):
        assert echelon_rank([{0: 0, 5: 0}]) == 0


def consumed(kernel, rows, stop_at=None):
    """(rank, rows read from the stream) of ``kernel`` on ``rows``."""
    seen = []

    def stream():
        for r in rows:
            seen.append(r)
            yield r

    return kernel(stream(), stop_at=stop_at), len(seen)


class TestStopAt:
    def consumed(self, rows, stop_at):
        return consumed(echelon_rank, rows, stop_at)

    def test_stops_at_the_row_that_reaches_it(self):
        rows = [{0: 1}, {1: 1}, {0: 2, 1: -2}, {2: 1}, {3: 1}, {4: 1}]
        assert self.consumed(rows, 3) == (3, 4)

    def test_dependent_rows_do_not_count(self):
        rows = [{0: 1}, {0: 3}, {0: -1}, {1: 1}]
        assert self.consumed(rows, 2) == (2, 4)

    def test_stop_at_zero_reads_no_row(self):
        for rows in ([{0: 1}, {1: 1}], [{}, {0: 0}], []):
            assert self.consumed(rows, 0) == (0, 0)

    def test_unreached_stop_consumes_everything(self):
        rows = [{0: 1}, {0: 2}, {1: 1}]
        assert self.consumed(rows, 5) == (2, 3)
        assert self.consumed(rows, None) == (2, 3)


def with_zeros(rng, matrix):
    """Sparse rows that also hold some explicit zero entries."""
    return [{j: v for j, v in enumerate(row) if v or rng.random() < 0.3}
            for row in matrix]


def chain_matrix(rng, rank, ncols, extra, bound):
    """``rank`` rows with leads at distinct random columns, each nonzero from
    its lead on, then ``extra`` random combinations of them, one in four plus
    a random row: each combination meets most pivots on its way down, and
    the dependent ones must cancel exactly.  Requires 4 * ncols > 4 * rank +
    extra, so that the rank stays below the column count."""
    leads = sorted(rng.sample(range(ncols), rank))
    base = [[0] * lead + [rng.choice((1, -1)) * rng.randint(2, bound)
                          for _ in range(ncols - lead)] for lead in leads]
    rows = base[:]
    for k in range(extra):
        coeffs = [rng.randint(-3, 3) or 1 for _ in base]
        row = [sum(c * r[j] for c, r in zip(coeffs, base)) for j in range(ncols)]
        if k % 4 == 3:
            row = [x + rng.randint(-bound, bound) for x in row]
        rows.append(row)
    return rows


class TestStress:
    """Streams on which the in-place reduction rescales and divides: pivot
    leads that are not units, long reduction chains, huge entries, explicit
    zeros and ``stop_at`` reached mid-stream, all against dense Bareiss.
    Each has planted dependent rows, which reduce to zero only if every
    step is exact."""

    PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

    def test_prime_leads_rescale_every_step(self):
        # every independent row opens with a distinct prime, so no lead
        # divides another and each step scales the row by a non-unit p/g
        rng = random.Random(61)
        for _ in range(40):
            ncols = rng.randint(4, 9)
            base = [[p] + [rng.choice(self.PRIMES) * rng.choice((1, -1, 0))
                           for _ in range(ncols - 1)]
                    for p in rng.sample(self.PRIMES, rng.randint(2, ncols - 1))]
            m = plant_dependent(rng, base, rng.randint(1, 6))
            assert echelon_rank(with_zeros(rng, m)) == rank_int(m) == rank_int(base), m

    def test_leads_two_power_times_odd(self):
        # entries 2^k * odd share a factor g with 1 < g < p on many steps, so
        # both p/g and f/g differ from p and f
        rng = random.Random(67)
        for _ in range(40):
            ncols = rng.randint(4, 9)
            base = [[rng.choice((1, -1)) * 2 ** rng.randint(0, 6) * rng.choice((1, 3, 5, 9, 15))
                     if rng.random() < 0.7 else 0 for _ in range(ncols)]
                    for _ in range(rng.randint(2, ncols - 1))]
            m = plant_dependent(rng, base, rng.randint(1, 6))
            assert echelon_rank(with_zeros(rng, m)) == rank_int(m) == rank_int(base), m

    @pytest.mark.parametrize("bound", [7, 10**30])
    def test_long_chains(self, bound):
        rng = random.Random(71)
        for rank, ncols, extra in ((30, 36, 16), (34, 44, 24)):
            m = chain_matrix(rng, rank, ncols, extra, bound)
            expected = rank_int(m)
            assert 30 <= expected < ncols
            assert echelon_rank(with_zeros(rng, m)) == expected

    def test_stop_at_mid_stream(self):
        rng = random.Random(73)
        reached = 0
        for bound in (5, 10**30):
            for _ in range(8):
                m = chain_matrix(rng, rng.randint(3, 8), 12, rng.randint(2, 12), bound)
                rng.shuffle(m)
                rows = with_zeros(rng, m)
                full = rank_int(m)
                for stop_at in range(1, full + 2):
                    # the first prefix whose rank reaches stop_at, else all
                    read = next((i for i in range(1, len(m) + 1)
                                 if rank_int(m[:i]) >= stop_at), len(m))
                    assert consumed(echelon_rank, rows, stop_at) == \
                        (min(stop_at, full), read), (m, stop_at)
                    reached += read < len(m)
        assert reached > 20


class TestAgainstReference:
    def test_oracle_streams(self, monkeypatch):
        # every row stream the two elimination oracles feed the kernel on the
        # unimodular suite at m = 1, 2 (hilbert inside ORACLE_GUARD, as in
        # verify): the in-place kernel and the rebuilding reference agree on
        # the rank and on the rows read under the same stop_at
        streams = []

        def record(rows, stop_at=None):
            rows = list(rows)
            streams.append((rows, stop_at))
            return echelon_rank(rows, stop_at)

        monkeypatch.setattr(zonalg, "echelon_rank", record)
        monkeypatch.setattr(harmonic, "echelon_rank", record)
        for m in (1, 2):
            for M in unimodular_suite():
                if M.d >= 1 and M.n * m <= ORACLE_GUARD:
                    hilbert(external_spec(M, m))
                    hilbert(internal_spec(M, m))
                try:
                    graded_hilbert(M, m)
                except GuardExceeded:  # R10 and K5 at m = 2: 3^10 box columns
                    pass
        assert len(streams) > 3000
        for rows, stop_at in streams:
            assert consumed(echelon_rank, rows, stop_at) == \
                consumed(reference_echelon_rank, rows, stop_at)


def kernel_cases():
    """(rows, ncols): seeded random matrices, wide, tall and square, many
    rank-deficient, entries up to 5 or 10**6, plus zero-row and empty
    matrices."""
    cases = [([], 0), ([], 3), ([[0, 0, 0]], 3), ([[0], [0]], 1),
             ([[0, 0], [0, 0], [0, 0]], 2), ([[2, 4, 6]], 3)]
    rng = random.Random(43)
    for bound in (5, 10**6):
        for _ in range(150):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            m = random_matrix(rng, nrows, ncols, bound, rng.choice((1.0, 0.5)))
            if rng.random() < 0.5:
                m = plant_dependent(rng, m[:max(1, nrows // 2)], nrows // 2)
            cases.append((m, ncols))
    return cases


def primitive_reference(vec):
    """A nonzero rational vector scaled to a primitive integer vector with
    first nonzero entry positive."""
    lcm = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * lcm) for x in vec]
    g = math.gcd(*ints)
    if next(x for x in ints if x) < 0:
        g = -g
    return tuple(x // g for x in ints)


class TestDenseKernels:
    def test_rref_int_is_scaled_rref(self):
        shapes = set()
        for rows, ncols in kernel_cases():
            pivots, R = rref_int(rows)
            ref_pivots, ref = fraction_rref(rows, ncols)
            assert pivots == ref_pivots, rows
            D = R[0][pivots[0]] if pivots else 1
            assert D != 0
            assert R == [[D * x for x in row] for row in ref], rows
            shapes.add((len(pivots) < len(rows), len(rows) < ncols))
        assert shapes == {(False, False), (False, True), (True, False),
                          (True, True)}

    def test_nullspace_matches_fraction_kernel(self):
        for rows, ncols in kernel_cases():
            assert nullspace_primitive(*rref_int(rows), ncols) == \
                [primitive_reference(v) for v in fraction_kernel(rows, ncols)], rows

    def test_kernel_vectors_are_primitive(self):
        for rows, ncols in kernel_cases():
            for vec in nullspace_primitive(*rref_int(rows), ncols):
                assert math.gcd(*vec) == 1
                assert next(x for x in vec if x) > 0
                assert all(sum(a * x for a, x in zip(row, vec)) == 0
                           for row in rows)

    def test_rref_int_on_sweep_matrices_divides_by_non_units(self, monkeypatch):
        # unit pivots skip the division; every other pivot still divides
        # exactly, so both routes must meet the Fraction reference
        matrices = sweep_matrices()
        assert not from_matrix(matrices[0]).is_unimodular()
        divisors = []
        exact_div = linalg._exact_div
        monkeypatch.setattr(linalg, "_exact_div",
                            lambda a, b: divisors.append(b) or exact_div(a, b))
        for rows in matrices:
            pivots, R = rref_int(rows)
            ref_pivots, ref = fraction_rref(rows, len(rows[0]))
            assert pivots == ref_pivots, rows
            D = R[0][pivots[0]]
            assert R == [[D * x for x in row] for row in ref], rows
        assert divisors and all(abs(b) > 1 for b in divisors)

    def test_rref_int_leaves_input_unchanged(self):
        rows = [[0, 2, 4], [3, 1, 1]]
        rref_int(rows)
        assert rows == [[0, 2, 4], [3, 1, 1]]


def primitive_by_gcd(vec):
    """Divide by the gcd of the entries, then negate if the first nonzero
    entry is negative; the zero vector as is."""
    g = math.gcd(*vec)
    if not g:
        return tuple(vec)
    out = [v // g for v in vec]
    if next(v for v in out if v) < 0:
        out = [-v for v in out]
    return tuple(out)


class TestPrimitiveVector:
    def test_against_gcd_reference(self):
        rng = random.Random(53)
        seen = set()
        for _ in range(600):
            n = rng.randint(0, 6)
            scale = rng.choice((1, -1, 2, -3, 6, 10**6))
            vec = [scale * v for v in random_matrix(
                rng, 1, n, rng.choice((1, 3)), rng.choice((1.0, 0.5, 0.0)))[0]]
            if rng.random() < 0.5:
                vec = tuple(vec)
            got = primitive_vector(vec)
            assert type(got) is tuple, vec  # callers hash it
            assert got == primitive_by_gcd(vec), vec
            g = math.gcd(*vec)
            seen.add("zero" if not g else
                      ("gcd>1" if g > 1 else "gcd=1",
                       next(v for v in vec if v) < 0, type(vec).__name__))
        assert seen == {"zero"} | {(g, neg, kind) for g in ("gcd>1", "gcd=1")
                                   for neg in (False, True)
                                   for kind in ("list", "tuple")}


def leibniz(m):
    n = len(m)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for a, b in itertools.combinations(perm, 2) if a > b)
        total += (-1) ** inversions * math.prod(m[i][perm[i]] for i in range(n))
    return total


class TestDeterminant:
    def test_against_leibniz(self):
        rng = random.Random(47)
        singular = 0
        for _ in range(400):
            n = rng.randint(0, 5)  # n = 0: the empty product, 1
            m = random_matrix(rng, n, n, rng.choice((2, 10**6)),
                              rng.choice((1.0, 0.6, 0.3)))
            if n >= 2 and rng.random() < 0.3:
                m = plant_dependent(rng, m[:n - 1], 1)
            det = det_int(m)
            assert det == leibniz(m), m
            assert (rank_int(m) == n) == (det != 0)
            singular += det == 0
        assert singular > 50


def test_all_names_resolve():
    # a name moved out of the package must not stay exported
    assert [name for name in zonoq.__all__ if not hasattr(zonoq, name)] == []


def test_package_imports_no_fractions():
    src = os.path.dirname(os.path.dirname(zonoq.__file__))
    code = (f"import sys; sys.path.insert(0, {src!r}); import zonoq, zonoq.cli; "
            "print('fractions' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def cographic(vertices, edges):
    """Signed fundamental cycles of a BFS spanning tree: a basis of the
    cycle space, realizing the dual of the graphic matroid."""
    parent = {0: None}
    queue = [0]
    tree = set()
    while queue:
        v = queue.pop(0)
        for k, (a, b) in enumerate(edges):
            for x, y in ((a, b), (b, a)):
                if x == v and y not in parent:
                    parent[y] = (v, k)
                    tree.add(k)
                    queue.append(y)

    def root_path(v):  # signed edge vector of the tree path v -> root
        vec = [0] * len(edges)
        while parent[v] is not None:
            up, k = parent[v]
            vec[k] += 1 if edges[k] == (v, up) else -1
            v = up
        return vec

    rows = []
    for k, (a, b) in enumerate(edges):
        if k in tree:
            continue
        # edge a -> b, then the tree path b -> root -> a
        pb, pa = root_path(b), root_path(a)
        row = [x - y for x, y in zip(pb, pa)]
        row[k] += 1
        rows.append(row)
    return rows


WHEEL4 = (5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)])
K4_PLUS = (5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
K23_PLUS = (5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3)])
THETA = (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3), (1, 4)])

GENERATED = {
    "graphic_wheel4": graphic(*WHEEL4),
    "graphic_k4_pendant": graphic(*K4_PLUS),
    "graphic_k23_chord": graphic(*K23_PLUS),
    "cographic_k4_pendant": cographic(*K4_PLUS),
    "cographic_k23_chord": cographic(*K23_PLUS),
    "cographic_theta": cographic(*THETA),
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_matrix_shape(name):
    m = GENERATED[name]
    M = from_matrix(m)
    assert 7 <= M.n <= 8
    assert M.is_unimodular()


@pytest.mark.parametrize("graph", [K4_PLUS, K23_PLUS, THETA])
def test_cographic_is_dual(graph):
    T = from_matrix(graphic(*graph)).tutte()
    T_dual = from_matrix(cographic(*graph)).tutte()
    assert dict(T_dual.items()) == {(b, a): c for (a, b), c in T.items()}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_degree1_dim_is_t21(name):
    M = from_matrix(GENERATED[name])
    assert degree1_dim(M) == M.tutte().eval_int(2, 1)


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_zonotopal_oracle(name):
    assert verify_zonotopal(from_matrix(GENERATED[name]))
