"""Geometry oracle: H-description and enumerated lattice counts."""

import ast
import itertools
import random
import re

import pytest

from conftest import (CORPUS_MATRICES, DIAMOND, R10, box_scan_count, change_of_basis,
                      graphic, reference_lattice_count, sweep_matrices, wheel)
from zonoq import GuardExceeded, NotUnimodular, from_matrix, h_rep, lattice_count, tutte_count
from zonoq import zonotope


class TestHRep:
    def test_hexagon_widths(self, hexagon):
        rep = h_rep(hexagon)
        assert sorted(f.alpha_max - f.alpha_min for f in rep.facets) == [2, 2, 2]

    def test_unit_segment(self):
        rep = h_rep(from_matrix([[1]]))
        assert [(f.c, f.alpha_min, f.alpha_max) for f in rep.facets] == [((1,), 0, 1)]

    def test_doubled_segment(self):
        rep = h_rep(from_matrix([[1, 1]]))
        assert [(f.c, f.alpha_min, f.alpha_max) for f in rep.facets] == [((1,), 0, 2)]

    def test_diamond_rejected(self):
        with pytest.raises(NotUnimodular, match=r"cocircuit vector \(0, 2\)"):
            h_rep(from_matrix(DIAMOND))

    def test_non_unimodular_names_a_cocircuit(self):
        # the verdict comes from det(A A^T) and T_M(1, 1), the witness from
        # the cocircuits: every non-unimodular matrix must have one to name
        rejected = 0
        for A in sweep_matrices():
            M = from_matrix(A)
            if M.is_unimodular():
                continue
            with pytest.raises(NotUnimodular) as info:
                h_rep(M)
            named = re.fullmatch(r"cocircuit vector (\(.*\)) has an entry outside "
                                 r"\{-1, 0, 1\}", str(info.value))
            v = ast.literal_eval(named.group(1))
            assert v in [cc.v for cc in M.cocircuits] and max(map(abs, v)) > 1, A
            rejected += 1
        assert rejected >= 50

    def test_d0_rejected(self):
        with pytest.raises(ValueError):
            h_rep(from_matrix([]))


class TestLatticeCount:
    def test_hexagon(self, hexagon):
        assert lattice_count(hexagon, 1) == 7
        assert lattice_count(hexagon, 1, interior=True) == 1

    def test_segment_interior(self):
        assert lattice_count(from_matrix([[1, 1]]), 1, interior=True) == 1

    def test_points_satisfy_facets(self, hexagon):
        # Stanley: 2^2 * T(3/2, 1) = 4 * (9/4 + 3/2 + 1) = 19
        assert lattice_count(hexagon, 2) == 19

    def test_point_zonotope(self):
        M = from_matrix([])
        assert lattice_count(M, 1) == 1
        assert lattice_count(M, 3, interior=True) == 1

    def test_m0_rejected(self, hexagon):
        with pytest.raises(ValueError):
            lattice_count(hexagon, 0)

    def test_truthy_interior(self, hexagon):
        # interior is read as a truth value, as graded_count reads it
        for m in (1, 2):
            assert lattice_count(hexagon, m, interior=2) == lattice_count(hexagon, m, True)

    def test_box_guard(self, corpus):
        with pytest.raises(GuardExceeded,
                           match=r"^bounding box volume 15813251 exceeds BOX_GUARD=10000000$"):
            lattice_count(corpus["boolean3"], 250)

    def test_diamond_rejected(self):
        with pytest.raises(NotUnimodular):
            lattice_count(from_matrix(DIAMOND), 1)


def random_graphic(rng):
    """A random connected graph on 2-5 vertices, parallel edges allowed,
    with its columns shuffled and some negated."""
    v = rng.randint(2, 5)
    edges = [(rng.randrange(i), i) for i in range(1, v)]  # a spanning tree
    edges += [tuple(rng.sample(range(v), 2)) for _ in range(rng.randint(0, 4))]
    rng.shuffle(edges)
    A = graphic(v, edges)
    flips = [rng.choice((1, -1)) for _ in edges]
    return [[a * s for a, s in zip(row, flips)] for row in A]


class TestIntervalCounting:
    """Interval counting against the scan of the whole bounding box."""

    @staticmethod
    def assert_matches_box_scan(A, ms=(1, 2, 3)):
        M = from_matrix(A)
        for m in ms:
            for interior in (False, True):
                assert lattice_count(M, m, interior) == \
                    box_scan_count(M, m, interior), (A, m, interior)

    def test_sweep(self):
        unimodular = [A for A in sweep_matrices()
                      if from_matrix(A).is_unimodular()]
        assert len(unimodular) > 100
        for A in unimodular:
            self.assert_matches_box_scan(A)

    def test_generated_unimodular(self):
        rng = random.Random(41)
        for _ in range(40):
            self.assert_matches_box_scan(random_graphic(rng))

    def test_d1_and_zero_columns(self):
        for A in ([[1]], [[1, 1, 1]], [[0, 1, 0, -1]], [[1, 0, 0, 1], [0, 0, 1, 1]]):
            self.assert_matches_box_scan(A)

    def test_facets_free_of_the_last_coordinate(self):
        # every facet of a box involves one coordinate only, so whichever
        # coordinate is counted by interval, the others give pass/fail tests
        for d in (2, 3):
            self.assert_matches_box_scan(
                [[int(i == j) for j in range(d)] for i in range(d)])

    def test_r10(self):
        self.assert_matches_box_scan(R10, ms=(1,))


K4 = graphic(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def steep(M):
    """Whether a facet of Z has a coefficient of absolute value >= 2 on the
    coordinate the walk counts by interval, the longest of the box."""
    rows = M.realization.entries
    last = max(range(M.d), key=lambda i: sum(map(abs, rows[i])))
    return any(abs(f.c[last]) >= 2 for f in h_rep(M).facets)


@pytest.fixture(params=[None, 1, 7], ids=["one-block", "block-1", "block-7"])
def block_entries(request, monkeypatch):
    """BLOCK_ENTRIES as shipped, and small enough that the walk runs its outer
    product over every prefix coordinate (1) or most of them (7)."""
    if request.param is not None:
        monkeypatch.setattr(zonotope, "BLOCK_ENTRIES", request.param)


class TestColumnWalk:
    """The column-wise walk against the per-prefix interval walk.  Each
    check builds its matroids afresh, so no count is read from a cache
    filled under another BLOCK_ENTRIES."""

    @staticmethod
    def assert_matches_reference(M, ms=(1, 2, 3)):
        for m in ms:
            for interior in (False, True):
                assert lattice_count(M, m, interior) == \
                    reference_lattice_count(M, m, interior), (M.realization, m, interior)

    def test_unimodular_sweep(self, block_entries):
        unimodular = [M for M in map(from_matrix, sweep_matrices()) if M.is_unimodular()]
        assert len(unimodular) > 100
        for M in unimodular:
            self.assert_matches_reference(M)

    def test_corpus_r10_k4(self, block_entries):
        for A in [*CORPUS_MATRICES.values(), R10, K4]:
            self.assert_matches_reference(from_matrix(A))

    def test_corpus_thickenings(self, block_entries):
        for A in CORPUS_MATRICES.values():
            for k in (2, 3):
                if k * len(A[0]) <= 16:
                    self.assert_matches_reference(from_matrix(A).thicken(k))

    def test_loops_coloops_and_d1(self, block_entries):
        for A in ([[1]], [[1, 1, 1]], [[0, 1, 0, -1]], [[1, 0, 0, 1], [0, 0, 1, 1]],
                  [[1, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]],
                  [[0, 1, 0, 1], [1, 0, 0, 0]]):
            self.assert_matches_reference(from_matrix(A))

    def test_steep_facets(self, block_entries):
        fixed = [[[1, 2], [1, 3]], [[1, 2, 0], [1, 3, 0], [0, 1, 1]],
                 [[1, 2, 0], [1, 3, 0], [0, 0, 1]]]
        rng = random.Random(7)
        graphs = (random_graphic(rng) for _ in range(100))
        generated = [change_of_basis(A, rng) for A in graphs if len(A) > 1]
        matroids = [from_matrix(A) for A in fixed + generated]
        assert all(steep(M) for M in matroids[:len(fixed)])
        assert sum(map(steep, matroids)) > 10
        for M in matroids:
            self.assert_matches_reference(M, ms=(1, 2))
        # R10 and wheel(5), three presentations each (seeded so that each
        # matroid has a steep one), at m = 1
        rng = random.Random(5)
        presented = [from_matrix(change_of_basis(A, rng)) for A in (R10, wheel(5))
                     for _ in range(3)]
        assert any(map(steep, presented[:3])) and any(map(steep, presented[3:]))
        for M in presented:
            self.assert_matches_reference(M, ms=(1,))

    def test_one_walk_per_dilate(self, monkeypatch):
        calls = []

        def counted(M):
            calls.append(M)
            return h_rep(M)
        monkeypatch.setattr(zonotope, "h_rep", counted)
        M = from_matrix(CORPUS_MATRICES["hexagon"])
        assert (lattice_count(M, 2), lattice_count(M, 2, True)) == (19, 7)
        assert lattice_count(M, 2, interior=False) == 19
        assert len(calls) == 1
        assert lattice_count(M, 3, True) == 19
        assert len(calls) == 2

    def test_box_guard_on_every_call(self):
        M = from_matrix(CORPUS_MATRICES["boolean3"])
        for interior in (False, True, False):
            with pytest.raises(GuardExceeded,
                               match=r"^bounding box volume 15813251 exceeds BOX_GUARD=10000000$"):
                lattice_count(M, 250, interior)


class TestSolvedFrame:
    """The walk runs on X = B^-1 A, B the pivot (greedy basis) columns of A,
    which every presentation U A of the same row space shares."""

    def test_guard_message_is_presentation_free(self, monkeypatch):
        monkeypatch.setattr(zonotope, "BOX_GUARD", 1)
        rng = random.Random(3)
        graphs = [A for A in (random_graphic(rng) for _ in range(8)) if len(A) > 1]
        cases = [(wheel(8), 2), (R10, 1)] + [(A, 1 + k % 3) for k, A in enumerate(graphs)]
        for A, m in cases:
            messages = []
            for B in (A, change_of_basis(A, rng)):
                with pytest.raises(GuardExceeded) as info:
                    lattice_count(from_matrix(B), m)
                messages.append(str(info.value))
            assert messages[0] == messages[1], (A, m)
        assert len(cases) > 5
        # 7^8: each spoke's fundamental cocircuit has three elements
        with pytest.raises(GuardExceeded,
                           match=r"^bounding box volume 5764801 exceeds BOX_GUARD=1$"):
            lattice_count(from_matrix(wheel(8)), 2)

    def test_wrong_solved_form_raises(self):
        # every one-entry change of R fails B * (D * R) = A, and the walk
        # must not count on it; unimodularity and cocircuits are read first
        for A in (CORPUS_MATRICES["hexagon"], K4):
            pivots, R = from_matrix(A)._solved
            for i, j in itertools.product(range(len(R)), range(len(A[0]))):
                M = from_matrix(A)
                assert M.is_unimodular() and M.cocircuits
                wrong = [list(row) for row in R]
                wrong[i][j] += 1
                M.__dict__["_solved"] = (pivots, wrong)
                with pytest.raises(ArithmeticError):
                    lattice_count(M, 1)


class TestStanleyCounts:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_corpus(self, corpus, m):
        # enumerated counts equal m^d T((m +- 1)/m, 1), cleared exactly
        for name, M in corpus.items():
            for interior in (False, True):
                assert lattice_count(M, m, interior) == \
                    tutte_count(M, m, interior), (name, m, interior)

    def test_interior_at_most_total(self, corpus):
        for M in corpus.values():
            for m in (1, 2):
                assert lattice_count(M, m, True) <= lattice_count(M, m)


class TestSymmetry:
    def test_column_permutation_and_negation(self, corpus):
        rng = random.Random(23)
        for name in ("hexagon", "k3_doubled", "two_circuits"):
            M = corpus[name]
            cols = [M.realization.column(j) for j in range(M.n)]
            rng.shuffle(cols)
            flip = rng.randrange(M.n)
            cols[flip] = tuple(-x for x in cols[flip])
            M2 = from_matrix([[col[i] for col in cols] for i in range(M.d)])
            for m in (1, 2):
                for interior in (False, True):
                    assert lattice_count(M, m, interior) == \
                        lattice_count(M2, m, interior)

    def test_thicken_as_geometry(self, corpus):
        # counting mZ via A equals counting the unit dilate of A(m)
        for name, M in corpus.items():
            for m in (2, 3):
                if m * M.n > 16:
                    continue
                thick = M.thicken(m)
                for interior in (False, True):
                    assert lattice_count(M, m, interior) == \
                        lattice_count(thick, 1, interior), (name, m)
