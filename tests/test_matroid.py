"""Realized matroids: circuits, cocircuits, rank, minors, Tutte, thickening,
components."""

import collections
import copy
import itertools
import math
import operator
import os
import random

import pytest

import zonoq.linalg as linalg
import zonoq.matroid as matroid
from conftest import (CORPUS_MATRICES, DIAMOND, R10, change_of_basis, cographic, coloops,
                      contract, delete, det_int, fraction_kernel, graphic,
                      product_tutte_thickened, rank_int, reference_circuits,
                      reference_cocircuit_unimodular, reference_components,
                      reference_loops, reference_rank,
                      reference_sweep_eliminations, reference_tutte,
                      reference_tutte_solved, sweep_matrices, wheel)
from zonoq import GuardExceeded, NotUnimodular, from_matrix, graded_count, tutte_thickened
from zonoq.exact import BiPolyXY
from zonoq.harmonic import gorenstein_classify
from zonoq.linalg import nullspace_primitive, rref_int

K4 = graphic(4, list(itertools.combinations(range(4), 2)))
K5 = graphic(5, list(itertools.combinations(range(5), 2)))
K6 = graphic(6, list(itertools.combinations(range(6), 2)))
CUBE6X12 = [[int(i == j % 6) for j in range(12)] for i in range(6)]
BOOLEAN8 = [[int(i == j) for j in range(8)] for i in range(8)]
# d = 7, n = 12: the dual of a 6-vertex graph with 12 edges, a spanning path
# first
COGRAPHIC_7X12 = cographic(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2),
                               (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 5)])


def generated_graphic_cographic():
    """Graphic and cographic matrices of seeded random connected graphs on
    3-6 vertices, up to 12 edges, each under a random unimodular change of
    basis, with some columns negated."""
    rng = random.Random(22)
    mats = []
    while len(mats) < 24:
        v = rng.randint(3, 6)
        edges = [(rng.randrange(i), i) for i in range(1, v)]  # a spanning tree
        edges += [tuple(rng.sample(range(v), 2)) for _ in range(rng.randint(1, 12 - v))]
        for A in (graphic(v, edges), cographic(v, edges)):
            if len(A) > 1:
                flips = [rng.choice((1, -1)) for _ in edges]
                mats.append([[a * s for a, s in zip(row, flips)]
                             for row in change_of_basis(A, rng)])
    return mats


# fresh matroids per call, so no Tutte polynomial is cached on them yet
TUTTE_REFERENCE_CASES = {
    "sweep": lambda: [from_matrix(A) for A in sweep_matrices()],
    "corpus": lambda: [from_matrix(A) for A in CORPUS_MATRICES.values()],
    "R10_K4_K5": lambda: [from_matrix(A) for A in (R10, K4, K5)],
    "thickenings": lambda: [from_matrix(A).thicken(m)
                            for A in CORPUS_MATRICES.values()
                            for m in range(2, 16 // len(A[0]) + 1)],
    "generated": lambda: [from_matrix(A) for A in generated_graphic_cographic()],
}


def assert_memo_holds_cores():
    """Every ``_TUTTE_MEMO`` entry, rebuilt as the configuration its key
    describes, is that configuration's Tutte polynomial by the per-minor
    recursion, and no key holds a zero column (a loop) or a coloop."""
    for (d, cols), T in matroid._TUTTE_MEMO.items():
        assert d >= 1 and all(any(col) for col in cols), cols
        core = from_matrix([list(row) for row in zip(*cols)])
        assert coloops(core) == (), cols
        assert reference_tutte(core)[0] == T, cols


def brute_independent_sets(M) -> int:
    return sum(1 for r in range(M.n + 1)
               for S in itertools.combinations(range(M.n), r)
               if reference_rank(M, S) == r)


def reference_cocircuits(A):
    """(v, c, support size) per cocircuit, sorted by v: the normal of every
    (d-1)-subset of columns with a one-dimensional Fraction kernel, scaled to
    a primitive integer c with the first nonzero entry of v = c^T A positive."""
    d, n = len(A), len(A[0])
    found = {}
    for combo in itertools.combinations(range(n), d - 1):
        kernel = fraction_kernel([[A[i][j] for i in range(d)] for j in combo], d)
        if len(kernel) != 1:
            continue
        lcm = math.lcm(*(x.denominator for x in kernel[0]))
        c = [int(x * lcm) for x in kernel[0]]
        g = math.gcd(*c)
        v = [sum(c[i] * A[i][j] for i in range(d)) for j in range(n)]
        if next(x for x in v if x) < 0:
            g = -g
        v = tuple(x // g for x in v)
        found[v] = (v, tuple(x // g for x in c), sum(1 for x in v if x))
    return sorted(found.values())


def skip_matrices():
    """Seeded full-rank matrices, d 5-6 and n 8-11, with sparse entries so
    that many (d-1)-subsets of columns share a hyperplane, each holding a
    zero column, a doubled column and a sign-flipped column; then matrices
    with d = 1 and with d = n."""
    rng = random.Random(2026)
    mats = []
    while len(mats) < 26:
        d, n = rng.randint(5, 6), rng.randint(8, 11)
        cols = [[rng.choice((-1, 0, 0, 0, 1, 1, 2)) for _ in range(d)]
                for _ in range(n - 3)]
        cols += [[0] * d, [2 * x for x in rng.choice(cols)],
                 [-x for x in rng.choice(cols)]]
        rng.shuffle(cols)
        A = [list(row) for row in zip(*cols)]
        if rank_int(A) == d:
            mats.append(A)
    return mats + [[[0, 2, -2, 1, 0, 3]], [[-1]],
                   [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]],
                   [[2, 1, 0], [0, 1, 0], [1, 0, -1]]]


def rank_zero_minors():
    """The d = 0 contractions of three rank-1 matrices: loops only."""
    out = []
    for A in ([[1, 1]], [[1, 0, 1]], [[1, 1, 1]]):
        M = from_matrix(A)
        out += [contract(M, i) for i in range(M.n) if A[0][i]]
    return out


def reference_unimodular(M):
    """Every maximal minor in {-1, 0, 1}; true when d = 0, whose one maximal
    minor is the empty determinant 1."""
    A = M.realization.entries
    return all(abs(det_int([[A[i][j] for j in combo] for i in range(M.d)])) <= 1
               for combo in itertools.combinations(range(M.n), M.d))


def random_full_rank():
    """500 seeded full-rank matrices, d 1-4, n d..7, entries in -2..3: each
    draws from a range lo..hi with lo in {-2, -1} and hi in {1, 2, 3}, so
    that about a fifth are unimodular."""
    rng = random.Random(24)
    mats = []
    while len(mats) < 500:
        d = rng.randint(1, 4)
        n = rng.randint(d, 7)
        lo, hi = rng.choice((-2, -1)), rng.choice((1, 1, 2, 3))
        A = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(d)]
        if rank_int(A) == d:
            mats.append(A)
    return mats


class TestConstruction:
    def test_hexagon_circuits_and_cocircuits(self, hexagon):
        assert [(c.support, c.alpha) for c in hexagon.circuits] == \
            [((0, 1, 2), (1, 1, -1))]
        assert {c.v for c in hexagon.cocircuits} == \
            {(1, 0, 1), (0, 1, 1), (1, -1, 0)}
        # c^T A reproduces v exactly
        A = hexagon.realization.entries
        for cc in hexagon.cocircuits:
            v = tuple(sum(cc.c[i] * A[i][j] for i in range(2)) for j in range(3))
            assert v == cc.v

    def test_empty_matroid(self):
        M = from_matrix([])
        assert (M.d, M.n) == (0, 0)
        assert M.circuits == () and M.cocircuits == ()
        assert M.tutte() == BiPolyXY.one()

    def test_parallel_pair(self):
        M = from_matrix([[1, 1]])
        assert [(c.support, c.alpha) for c in M.circuits] == [((0, 1), (1, -1))]
        assert [c.v for c in M.cocircuits] == [(1, 1)]

    def test_loop_is_size_one_circuit(self):
        M = from_matrix([[1, 0, 1]])
        assert ((1,), (1,)) in [(c.support, c.alpha) for c in M.circuits]

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError):
            from_matrix([[1, 1], [1, 1]])

    def test_non_integral_entry_rejected(self):
        # a float is not truncated into a different matroid (1.5 -> 1 would
        # give the hexagon), nor is an integral one taken
        with pytest.raises(ValueError,
                           match=r"^matrix entry 1\.5 at row 0, column 0 is not an integer$"):
            from_matrix([[1.5, 0, 1], [0, 1, 1]])
        with pytest.raises(ValueError,
                           match=r"^matrix entry 1\.0 at row 1, column 2 is not an integer$"):
            from_matrix([[1, 0, 1], [0, 1, 1.0]])

    def test_ground_guard(self):
        with pytest.raises(GuardExceeded,
                           match=r"^ground set 17 exceeds guard GROUND_GUARD=16$"):
            from_matrix([[1] * 17])

    def test_circuits_match_subset_enumeration(self):
        # the dual sweep gives the same circuits, in the same order, as a
        # rank test on every subset of at most d+1 columns
        for M in [from_matrix(A) for A in sweep_matrices() + [R10]] + \
                rank_zero_minors():
            got = [(c.support, c.alpha) for c in M.circuits]
            assert got == reference_circuits(M.realization), M.realization

    def test_circuits_are_built_on_first_use(self, monkeypatch):
        import zonoq.matroid as matroid

        def no_circuits(pivots, R, n):
            raise RuntimeError("circuits enumerated")

        # construction, unimodularity, Tutte, thickening, connectivity and
        # the Gorenstein classification read no circuit (and unimodularity
        # no cocircuit either: see the test below)
        monkeypatch.setattr(matroid, "_find_circuits", no_circuits)
        M = from_matrix([[1, 0, 1], [0, 1, 1]])
        assert M.is_unimodular()
        assert M.tutte() == BiPolyXY({(2, 0): 1, (1, 0): 1, (0, 1): 1})
        assert M.thicken(2).tutte() == tutte_thickened(M.tutte(), M.d, 2)
        assert [(c.elements, c.is_circuit) for c in M.connected_components()] \
            == [((0, 1, 2), True)]
        assert gorenstein_classify(M).verdict == "circuit-components"
        with pytest.raises(RuntimeError, match="circuits enumerated"):
            M.circuits

    def test_closed_formula_path_reads_no_cocircuit(self, monkeypatch):
        import zonoq

        def no_cocircuits(rz):
            raise RuntimeError("cocircuits enumerated")

        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "bench"))
        import workloads
        monkeypatch.setattr(matroid, "_find_cocircuits", no_cocircuits)
        for A in (CORPUS_MATRICES["hexagon"], K5, R10):
            ok, _ = workloads.check_formula(zonoq, workloads.formula_item(zonoq, A))
            assert ok, A
        M = from_matrix(DIAMOND)
        assert not M.is_unimodular()
        with pytest.raises(NotUnimodular):
            graded_count(M, 1)
        with pytest.raises(RuntimeError, match="cocircuits enumerated"):
            M.cocircuits

    def test_circuit_minimality_and_relation(self, corpus):
        for M in corpus.values():
            supports = [frozenset(c.support) for c in M.circuits]
            for a, b in itertools.combinations(supports, 2):
                assert not (a < b or b < a)
            for c in M.circuits:
                for i in range(M.d):
                    total = sum(al * M.realization.entries[i][j]
                                for j, al in zip(c.support, c.alpha))
                    assert total == 0
                g = 0
                for al in c.alpha:
                    g = __import__("math").gcd(g, al)
                assert g == 1
                assert next(al for al in c.alpha if al) > 0


class TestR10:
    def test_regular_but_neither_graphic_nor_cographic(self):
        M = from_matrix(R10)
        assert M.is_unimodular()
        T = M.tutte()
        assert T.eval_int(1, 1) == 162 and T.eval_int(2, 1) == 533
        # all circuits and cocircuits even: no graph or cograph at rank 5
        assert len(M.circuits) == 30 and len(M.cocircuits) == 30
        assert {len(c.support) for c in M.circuits} == {4, 6}
        assert {cc.support_size for cc in M.cocircuits} == {4, 6}


class TestRank:
    def test_examples(self, hexagon):
        assert reference_rank(hexagon, {0, 1}) == 2
        assert reference_rank(hexagon, set()) == 0
        assert reference_rank(hexagon, {2}) == 1

    def test_monotone_submodular(self, corpus):
        rng = random.Random(3)
        for M in corpus.values():
            for _ in range(20):
                S = {j for j in range(M.n) if rng.random() < 0.5}
                T = {j for j in range(M.n) if rng.random() < 0.5}
                rS, rT = reference_rank(M, S), reference_rank(M, T)
                assert rS <= reference_rank(M, S | T)
                assert reference_rank(M, S | T) + reference_rank(M, S & T) <= rS + rT


class TestUnimodular:
    def test_examples(self, hexagon):
        assert hexagon.is_unimodular()
        assert not from_matrix(DIAMOND).is_unimodular()
        assert from_matrix([[1, 0], [0, 1]]).is_unimodular()

    def test_corpus_is_unimodular(self, corpus):
        for name, M in corpus.items():
            assert M.is_unimodular(), name

    def test_cocircuit_entries_in_unit_range(self, corpus):
        for M in corpus.values():
            for cc in M.cocircuits:
                assert all(x in (-1, 0, 1) for x in cc.v)
                assert cc.support_size == sum(1 for x in cc.v if x)

    def test_sweep_matches_brute_force(self):
        classes = set()
        for A in sweep_matrices():
            M = from_matrix(A)
            assert [(cc.v, cc.c, cc.support_size) for cc in M.cocircuits] == \
                reference_cocircuits(A), A
            assert M.is_unimodular() == reference_unimodular(M), A
            classes.add(M.is_unimodular())
        assert classes == {True, False}

    def test_matches_minor_and_cocircuit_rules(self):
        # det(A A^T) against T_M(1, 1) decides as every maximal minor in
        # {-1, 0, 1} and as every cocircuit vector in {0, +-1}^n
        mats = [*sweep_matrices(), *skip_matrices(), *CORPUS_MATRICES.values(), R10]
        cases = [from_matrix(A) for A in mats] + rank_zero_minors() + [from_matrix([])]
        cases += [from_matrix(A).thicken(m) for A in [*CORPUS_MATRICES.values(), DIAMOND]
                  for m in range(2, 16 // len(A[0]) + 1)]
        for M in cases:
            assert M.is_unimodular() == reference_unimodular(M) \
                == reference_cocircuit_unimodular(M), M.realization
        assert {M.is_unimodular() for M in cases} == {True, False}
        assert [M.is_unimodular() for M in cases if M.d == 0] == [True] * 8

    def test_matches_rules_on_random_matrices(self):
        verdicts = collections.Counter()
        for A in random_full_rank():
            M = from_matrix(A)
            verdicts[M.is_unimodular()] += 1
            assert M.is_unimodular() == reference_unimodular(M) \
                == reference_cocircuit_unimodular(M), A
        assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts

    def test_cocircuit_supports_are_minimal(self, corpus):
        # brute-force row-space scan over small integer combinations
        for M in corpus.values():
            if M.d == 0:
                continue
            A = M.realization.entries
            found = set()
            for c in itertools.product(range(-2, 3), repeat=M.d):
                v = tuple(sum(c[i] * A[i][j] for i in range(M.d))
                          for j in range(M.n))
                if any(v):
                    found.add(frozenset(j for j, x in enumerate(v) if x))
            minimal = {s for s in found
                       if not any(t < s for t in found)}
            assert {frozenset(cc.support) for cc in M.cocircuits} == minimal


class TestSweepSkip:
    """The hyperplane sweep where most (d-1)-subsets lie in a hyperplane
    found before them, so the skip test decides most of the work."""

    @pytest.mark.parametrize("A", [K5, K6, R10, CUBE6X12, BOOLEAN8],
                             ids=["K5", "K6", "R10", "cube6x12", "boolean8"])
    def test_fixed_matrices_match_brute_force(self, A):
        M = from_matrix(A)
        assert [(cc.v, cc.c, cc.support_size) for cc in M.cocircuits] == \
            reference_cocircuits(A)
        assert [(c.support, c.alpha) for c in M.circuits] == \
            reference_circuits(M.realization)

    def test_seeded_matrices_match_brute_force(self):
        for A in skip_matrices():
            M = from_matrix(A)
            assert [(cc.v, cc.c, cc.support_size) for cc in M.cocircuits] == \
                reference_cocircuits(A), A
            assert [(c.support, c.alpha) for c in M.circuits] == \
                reference_circuits(M.realization), A

    @pytest.mark.parametrize("A", [K6, COGRAPHIC_7X12], ids=["K6", "cographic7x12"])
    def test_eliminations_match_zero_set_rule(self, A, monkeypatch):
        # a weaker skip makes extra eliminations, a stronger one misses
        # hyperplanes; either changes the count
        calls = []

        def counted(pivots, R, ncols):
            calls.append(ncols)
            return nullspace_primitive(pivots, R, ncols)

        monkeypatch.setattr(matroid, "nullspace_primitive", counted)
        rz = from_matrix(A).realization
        matroid._find_cocircuits(rz)
        expected = reference_sweep_eliminations(rz)
        assert len(calls) == expected < math.comb(rz.n, rz.d - 1)
        kernel = nullspace_primitive(*rref_int(rz.entries), rz.n)
        dual = matroid.Realization(len(kernel), rz.n, tuple(kernel))
        calls.clear()
        matroid._find_circuits(*rref_int(rz.entries), rz.n)
        expected = 1 + reference_sweep_eliminations(dual)
        assert len(calls) == expected < 1 + math.comb(dual.n, dual.d - 1)


class TestTutte:
    def test_hexagon(self, hexagon):
        assert hexagon.tutte() == BiPolyXY({(2, 0): 1, (1, 0): 1, (0, 1): 1})

    def test_single_coloop(self):
        assert from_matrix([[1]]).tutte() == BiPolyXY({(1, 0): 1})

    def test_direct_sum_of_circuits_product_formula(self, corpus):
        # T of a direct sum of circuits of ranks d_i is prod(y + x + ... + x^d_i)
        def circuit_factor(rank):
            return BiPolyXY({(0, 1): 1, **{(a, 0): 1 for a in range(1, rank + 1)}})

        assert corpus["two_circuits"].tutte() == \
            circuit_factor(1) * circuit_factor(2)
        assert corpus["two_digons"].tutte() == \
            circuit_factor(1) * circuit_factor(1)
        assert corpus["hexagon"].tutte() == circuit_factor(2)

    def test_independent_set_count(self, corpus):
        matroids = dict(corpus)
        matroids["hexagon_thick2"] = corpus["hexagon"].thicken(2)
        matroids["u12_thick4"] = corpus["u12"].thicken(4)
        for name, M in matroids.items():
            assert M.tutte().eval_int(2, 1) == brute_independent_sets(M), name

    def test_corank_nullity_normalization(self, corpus):
        for name, M in corpus.items():
            assert M.tutte().eval_int(2, 2) == 2**M.n, name

    def test_sweep_matches_corank_nullity(self):
        # T(x, y) = sum over S of (x-1)^(d - r(S)) (y-1)^(|S| - r(S)).
        # One process, no memo reset: minors of different matroids share
        # memo entries, so a key that merged two configurations would show.
        for A in sweep_matrices():
            M = from_matrix(A)
            corank_nullity = collections.Counter(
                (M.d - reference_rank(M, S), size - reference_rank(M, S))
                for size in range(M.n + 1)
                for S in itertools.combinations(range(M.n), size))
            terms = collections.Counter()
            for (a, b), count in corank_nullity.items():
                for i in range(a + 1):
                    for j in range(b + 1):
                        terms[i, j] += (count * math.comb(a, i) * math.comb(b, j)
                                        * (-1) ** (a - i + b - j))
            assert M.tutte() == BiPolyXY(terms), A

    def test_sweep_coloops_match_rank_drop(self):
        counts = set()
        for A in sweep_matrices():
            M = from_matrix(A)
            everything = set(range(M.n))
            assert coloops(M) == tuple(
                j for j in range(M.n) if reference_rank(M, everything - {j}) < M.d), A
            counts.add(min(len(coloops(M)), 2))
        assert counts == {0, 1, 2}

    @pytest.mark.parametrize("group", list(TUTTE_REFERENCE_CASES))
    def test_matches_reference(self, group, monkeypatch):
        # From a cold memo each: the polynomials of both references, and a
        # memo of loop- and coloop-free configurations whose entries are
        # their Tutte polynomials, whatever order the minors were visited in.
        for M in TUTTE_REFERENCE_CASES[group]():
            monkeypatch.setattr(matroid, "_TUTTE_MEMO", {})
            T, _ = reference_tutte(M)
            assert M.tutte() == T, M.realization
            assert reference_tutte_solved(*rref_int(M.realization.entries), M.n) == T
            assert_memo_holds_cores()

    def test_one_rref_per_matroid(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(1)
            return rref_int(rows)

        monkeypatch.setattr(matroid, "rref_int", counted)
        monkeypatch.setattr(matroid, "_TUTTE_MEMO", {})
        from_matrix(K5).tutte()
        assert len(calls) == 1
        # 31 loop- and coloop-free minors; keyed with their loops and
        # coloops, branching on the first row, the memo held 59
        assert len(matroid._TUTTE_MEMO) == 31

    def test_one_elimination_of_A_per_matroid(self, monkeypatch):
        # the rank check, tutte, the components and the circuits' kernel all
        # read the solved form cached at construction, and none writes to it
        seen = []

        def counted(rows):
            seen.append(rows)
            return rref_int(rows)

        monkeypatch.setattr(matroid, "rref_int", counted)
        monkeypatch.setattr(linalg, "rref_int", counted)
        for A in (K5, R10, [[1, 0, 1], [0, 1, 1]]):
            seen.clear()
            M = from_matrix(A)
            form = copy.deepcopy(M._solved)
            M.tutte()
            M.circuits
            M.connected_components()
            assert sum(rows is M.realization.entries for rows in seen) == 1, A
            assert M._solved == form, A

    @pytest.mark.parametrize("A, m, calls", [
        (K5, 1, 63), (wheel(8), 1, 85), (K4, 2, 43),
    ], ids=["K5", "wheel8", "K4_thick2"])
    def test_call_counts(self, A, m, calls, monkeypatch):
        # pins the branching rule: a change of row or column choice moves
        # them (branching on the first row, they were 91, 805 and 107)
        seen = []
        solved = matroid._tutte_solved

        def counted(*args):
            seen.append(1)
            return solved(*args)

        monkeypatch.setattr(matroid, "_tutte_solved", counted)
        monkeypatch.setattr(matroid, "_TUTTE_MEMO", {})
        from_matrix(A).thicken(m).tutte()
        assert len(seen) == calls

    @pytest.mark.parametrize("build, expected", [
        # a d = 0 minor: one loop
        (lambda: contract(from_matrix([[1, 1]]), 0), {(0, 1): 1}),
        # a loop in column 0
        (lambda: from_matrix([[0, 1, 1]]), {(1, 1): 1, (0, 2): 1}),
        # a coloop before the first element that is neither
        (lambda: from_matrix([[1, 0, 0], [0, 1, 1]]), {(2, 0): 1, (1, 1): 1}),
        # non-unimodular U_{2,3}, largest minors 2 and 4; the second divides
        # by D = 2 in its first deletion step
        (lambda: from_matrix([[1, 1, 1], [0, 1, 2]]),
         {(2, 0): 1, (1, 0): 1, (0, 1): 1}),
        (lambda: from_matrix([[2, 1, 0], [0, 1, 2]]),
         {(2, 0): 1, (1, 0): 1, (0, 1): 1}),
    ], ids=["rank_zero", "loop_first", "coloop_first", "u23_det2", "u23_det4"])
    def test_edge_cases(self, build, expected, monkeypatch):
        monkeypatch.setattr(matroid, "_TUTTE_MEMO", {})
        M = build()
        T, _ = reference_tutte(M)
        assert M.tutte() == T == BiPolyXY(expected)
        assert_memo_holds_cores()

    def test_deletion_contraction_identity(self, corpus):
        rng = random.Random(17)
        for M in corpus.values():
            loops, skip = set(reference_loops(M)), set(coloops(M))
            candidates = [j for j in range(M.n)
                          if j not in loops and j not in skip]
            if not candidates:
                continue
            i = rng.choice(candidates)
            assert M.tutte() == delete(M, i).tutte() + contract(M, i).tutte()


class TestTutteGuardScale:
    """Tutte polynomials past GROUND_GUARD, which is lifted here only."""

    @pytest.mark.parametrize("A", [
        wheel(8), wheel(9), wheel(10), wheel(11),
        graphic(7, list(itertools.combinations(range(7), 2))),
        graphic(8, list(itertools.combinations(range(8), 2))),
    ], ids=["wheel8", "wheel9", "wheel10", "wheel11", "K7", "K8"])
    def test_against_counts_and_reference(self, A, monkeypatch):
        monkeypatch.setattr(matroid, "GROUND_GUARD", 28)
        monkeypatch.setattr(matroid, "_TUTTE_MEMO", {})
        M = from_matrix(A)
        T = M.tutte()
        assert T.eval_int(2, 2) == 2**M.n
        # Kirchhoff: spanning trees = det of the reduced Laplacian A A^T
        laplacian = [[sum(map(operator.mul, u, v)) for v in A] for u in A]
        assert T.eval_int(1, 1) == det_int(laplacian)
        assert T == reference_tutte_solved(*rref_int(A), M.n)


class TestMinor:
    def test_delete(self, hexagon):
        assert delete(hexagon, 2).tutte() == BiPolyXY({(2, 0): 1})

    def test_contract(self, hexagon):
        got = contract(hexagon, 2)
        assert (got.d, got.n) == (1, 2)
        assert got.tutte() == BiPolyXY({(1, 0): 1, (0, 1): 1})

    def test_contract_loop_rejected(self):
        M = from_matrix([[1, 0]])
        with pytest.raises(ValueError):
            contract(M, 1)

    def test_delete_coloop_rejected(self):
        M = from_matrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            delete(M, 0)


class TestThicken:
    def test_duplicated_coloop(self):
        M = from_matrix([[1]]).thicken(2)
        assert M.realization.entries == ((1, 1),)
        assert M.tutte() == BiPolyXY({(1, 0): 1, (0, 1): 1})

    def test_identity_thickening(self, hexagon):
        assert hexagon.thicken(1).realization == hexagon.realization

    def test_column_order_copy_major(self, hexagon):
        M = hexagon.thicken(2)
        assert M.realization.entries == ((1, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 1))

    def test_guard(self, hexagon):
        with pytest.raises(
                GuardExceeded,
                match=r"^thickening by 6 would have 18 elements > GROUND_GUARD=16$"):
            hexagon.thicken(6)

    def test_reuses_the_rank(self, hexagon, monkeypatch):
        # repeating columns keeps the row space: thicken checks no rank and
        # eliminates nothing until the thickening's solved form is read, and
        # the guard is checked once, by thicken itself
        seen = []

        def counted(rows):
            seen.append(rows)
            return rref_int(rows)

        monkeypatch.setattr(matroid, "rref_int", counted)
        T = hexagon.tutte()
        for m in (1, 2, 5):
            thick = hexagon.thicken(m)
            assert seen == []
            assert thick.tutte() == tutte_thickened(T, 2, m)
            assert len(seen) == 1 and seen.pop() is thick.realization.entries
        with pytest.raises(GuardExceeded):
            hexagon.thicken(6)
        assert seen == []

    def test_preserves_unimodularity(self, corpus):
        for M in corpus.values():
            if 2 * M.n <= 16:
                assert M.thicken(2).is_unimodular()


class TestTutteThickened:
    def test_coloop(self):
        T = BiPolyXY({(1, 0): 1})
        assert tutte_thickened(T, 1, 2) == BiPolyXY({(1, 0): 1, (0, 1): 1})

    def test_m1_identity(self, hexagon):
        T = hexagon.tutte()
        assert tutte_thickened(T, 2, 1) == T

    def test_hexagon_m2_matches_recursion(self, hexagon):
        assert tutte_thickened(hexagon.tutte(), 2, 2) == \
            hexagon.thicken(2).tutte()

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            tutte_thickened(BiPolyXY({(2, 0): 1}), 1, 2)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_formula_on_corpus(self, corpus, m):
        for name, M in corpus.items():
            if m * M.n > 16:
                continue
            assert M.thicken(m).tutte() == \
                tutte_thickened(M.tutte(), M.d, m), (name, m)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_product_form(self, m):
        for name, A in [*CORPUS_MATRICES.items(), ("R10", R10)]:
            M = from_matrix(A)
            assert tutte_thickened(M.tutte(), M.d, m) == \
                product_tutte_thickened(M.tutte(), M.d, m), (name, m)


class TestComponents:
    def test_hexagon(self, hexagon):
        comps = hexagon.connected_components()
        assert [(c.elements, c.is_circuit) for c in comps] == [((0, 1, 2), True)]

    def test_boolean(self, corpus):
        comps = corpus["boolean2"].connected_components()
        assert [(c.elements, c.is_circuit) for c in comps] == \
            [((0,), False), ((1,), False)]

    def test_component_with_nested_circuit(self, corpus):
        comps = corpus["path_plus"].connected_components()
        assert [(c.elements, c.is_circuit) for c in comps] == \
            [((0, 1, 2, 3), False)]

    def test_loop_is_singleton_circuit(self, corpus):
        comps = corpus["loop_parallel"].connected_components()
        assert [(c.elements, c.is_circuit) for c in comps] == \
            [((0, 2), True), ((1,), True)]

    def test_match_circuit_cooccurrence(self):
        for M in [from_matrix(A) for A in sweep_matrices()] + rank_zero_minors():
            got = [(c.elements, c.is_circuit) for c in M.connected_components()]
            assert got == reference_components(
                M.n, reference_circuits(M.realization)), M.realization


class TestInvariant:
    def test_default_or_keyword_only_parameter_rejected(self):
        def with_default(M, m=1):
            return m

        def keyword_only(M, *, m):
            return m

        for build in (with_default, keyword_only):
            with pytest.raises(TypeError, match="default or keyword-only"):
                matroid.invariant(build)

    def test_one_entry_per_positional_value(self):
        calls = []

        @matroid.invariant
        def build(M, m):
            calls.append(m)
            return [m]

        M = from_matrix([[1, 0, 1], [0, 1, 1]])
        assert build(M, 2) is build(M, 2)
        assert build(M, 3) == [3] and calls == [2, 3]
        with pytest.raises(TypeError):
            build(M, m=2)
