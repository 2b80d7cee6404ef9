"""Geometry oracle: H-description and enumerated lattice counts."""

import random

import pytest

from conftest import DIAMOND, R10, box_scan_count, graphic, sweep_matrices
from zonoq import GuardExceeded, NotUnimodular, from_matrix, h_rep, lattice_count, tutte_count


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
