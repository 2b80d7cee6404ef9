"""Realized matroids: circuits, cocircuits, rank, minors, Tutte, thickening,
components."""

import collections
import itertools
import math
import random

import pytest

import zonoq.matroid as matroid
from conftest import (CORPUS_MATRICES, DIAMOND, R10, cographic, fraction_kernel,
                      graphic, product_tutte_thickened, reference_circuits,
                      reference_components, reference_loops, reference_rank,
                      reference_sweep_eliminations, reference_tutte,
                      sweep_matrices)
from zonoq import GuardExceeded, from_matrix, tutte_thickened
from zonoq.exact import BiPolyXY
from zonoq.harmonic import gorenstein_classify
from zonoq.linalg import det_int, nullspace_primitive, rank_int, rref_int

K4 = graphic(4, list(itertools.combinations(range(4), 2)))
K5 = graphic(5, list(itertools.combinations(range(5), 2)))
K6 = graphic(6, list(itertools.combinations(range(6), 2)))
CUBE6X12 = [[int(i == j % 6) for j in range(12)] for i in range(6)]
BOOLEAN8 = [[int(i == j) for j in range(8)] for i in range(8)]
# d = 7, n = 12: the dual of a 6-vertex graph with 12 edges, a spanning path
# first
COGRAPHIC_7X12 = cographic(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 2),
                               (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 5)])

# fresh matroids per call, so no Tutte polynomial is cached on them yet
TUTTE_REFERENCE_CASES = {
    "sweep": lambda: [from_matrix(A) for A in sweep_matrices()],
    "corpus": lambda: [from_matrix(A) for A in CORPUS_MATRICES.values()],
    "R10_K4_K5": lambda: [from_matrix(A) for A in (R10, K4, K5)],
    "thickenings": lambda: [from_matrix(A).thicken(m)
                            for A in CORPUS_MATRICES.values()
                            for m in range(2, 16 // len(A[0]) + 1)],
}


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
        out += [M.contract(i) for i in range(M.n) if A[0][i]]
    return out


def reference_unimodular(A):
    """Every maximal minor in {-1, 0, 1}."""
    d, n = len(A), len(A[0])
    return all(abs(det_int([[A[i][j] for j in combo] for i in range(d)])) <= 1
               for combo in itertools.combinations(range(n), d))


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

        def no_circuits(rz):
            raise RuntimeError("circuits enumerated")

        # construction, unimodularity, Tutte, thickening, connectivity and
        # the Gorenstein classification read no circuit
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
            assert M.is_unimodular() == reference_unimodular(A), A
            classes.add(M.is_unimodular())
        assert classes == {True, False}

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

        def counted(rows, ncols):
            calls.append(ncols)
            return nullspace_primitive(rows, ncols)

        monkeypatch.setattr(matroid, "nullspace_primitive", counted)
        rz = from_matrix(A).realization
        matroid._find_cocircuits(rz)
        expected = reference_sweep_eliminations(rz)
        assert len(calls) == expected < math.comb(rz.n, rz.d - 1)
        kernel = nullspace_primitive(rz.entries, rz.n)
        dual = matroid.Realization(len(kernel), rz.n, tuple(kernel))
        calls.clear()
        matroid._find_circuits(rz)
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
            assert M.coloops() == tuple(
                j for j in range(M.n) if reference_rank(M, everything - {j}) < M.d), A
            counts.add(min(len(M.coloops()), 2))
        assert counts == {0, 1, 2}

    @pytest.mark.parametrize("group", list(TUTTE_REFERENCE_CASES))
    def test_matches_reference(self, group, monkeypatch):
        # From a cold memo each: equal polynomials and the same memo keys,
        # stored in the same order, so the solved-form recursion visits the
        # minors of the per-minor recursion in the same order.
        for M in TUTTE_REFERENCE_CASES[group]():
            monkeypatch.setattr(matroid, "_TUTTE_MEMO", {})
            T, memo = reference_tutte(M)
            assert M.tutte() == T, M.realization
            assert list(matroid._TUTTE_MEMO) == list(memo), M.realization

    def test_one_rref_per_matroid(self, monkeypatch):
        calls = []

        def counted(rows):
            calls.append(1)
            return rref_int(rows)

        monkeypatch.setattr(matroid, "rref_int", counted)
        monkeypatch.setattr(matroid, "_TUTTE_MEMO", {})
        from_matrix(K5).tutte()
        assert len(calls) == 1
        # the per-minor recursion made one per minor visited, and stored 59
        assert len(matroid._TUTTE_MEMO) == 59

    @pytest.mark.parametrize("build, expected", [
        # a d = 0 minor: one loop
        (lambda: from_matrix([[1, 1]]).contract(0), {(0, 1): 1}),
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
        T, memo = reference_tutte(M)
        assert M.tutte() == T == BiPolyXY(expected)
        assert list(matroid._TUTTE_MEMO) == list(memo)

    def test_deletion_contraction_identity(self, corpus):
        rng = random.Random(17)
        for M in corpus.values():
            loops, coloops = set(reference_loops(M)), set(M.coloops())
            candidates = [j for j in range(M.n)
                          if j not in loops and j not in coloops]
            if not candidates:
                continue
            i = rng.choice(candidates)
            assert M.tutte() == M.delete(i).tutte() + M.contract(i).tutte()


class TestMinor:
    def test_delete(self, hexagon):
        assert hexagon.delete(2).tutte() == BiPolyXY({(2, 0): 1})

    def test_contract(self, hexagon):
        got = hexagon.contract(2)
        assert (got.d, got.n) == (1, 2)
        assert got.tutte() == BiPolyXY({(1, 0): 1, (0, 1): 1})

    def test_contract_loop_rejected(self):
        M = from_matrix([[1, 0]])
        with pytest.raises(ValueError):
            M.contract(1)

    def test_delete_coloop_rejected(self):
        M = from_matrix([[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            M.delete(0)


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
