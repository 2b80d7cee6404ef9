"""Zonotopal-algebra Hilbert series: the independent algebraic oracle."""

import itertools
import random

import pytest

from conftest import CORPUS_MATRICES, R10, graphic, reference_hilbert_dims, sweep_matrices
from zonoq import (
    GradedIdealSpec,
    GuardExceeded,
    external_spec,
    from_matrix,
    graded_count,
    hilbert,
    internal_spec,
    lattice_count,
    verify_zonotopal,
)
from zonoq.exact import LaurentQ
from zonoq.zonalg import _box_coordinates, _monomials


def reference_series(spec):
    return LaurentQ(dict(enumerate(reference_hilbert_dims(spec))))


class TestSpecs:
    def test_hexagon_external(self, hexagon):
        spec = external_spec(hexagon)
        assert spec.variables == 2
        assert sorted(spec.generators) == [((0, 1), 3), ((1, -1), 3), ((1, 0), 3)]

    def test_hexagon_internal(self, hexagon):
        spec = internal_spec(hexagon)
        assert sorted(e for _, e in spec.generators) == [1, 1, 1]
        assert hilbert(spec) == LaurentQ.one()

    def test_coloop_internal_is_zero_quotient(self):
        spec = internal_spec(from_matrix([[1]]))
        assert spec.generators == (((1,), 0),)
        assert hilbert(spec) == LaurentQ.zero()

    def test_d0_rejected(self):
        with pytest.raises(ValueError):
            external_spec(from_matrix([]))

    def test_generators_in_cocircuit_order(self, corpus):
        # hilbert reorders the generators it expands, never the spec
        for M in (corpus["k3_doubled"], from_matrix(K4)):
            assert external_spec(M).generators == tuple(
                (cc.c, cc.support_size + 1) for cc in M.cocircuits)
            assert internal_spec(M).generators == tuple(
                (cc.c, cc.support_size - 1) for cc in M.cocircuits)

    def test_multiplicity_is_the_thickening(self):
        # the m-thickening has M's hyperplanes, each cocircuit m times as
        # large: its specs are M's forms at exponents m|supp v| +- 1, in order
        mats = [*CORPUS_MATRICES.values(), R10, *sweep_matrices()]
        checked, unimodular = 0, set()
        for A in mats:
            M = from_matrix(A)
            for m in range(1, 16 // M.n + 1):
                thick = M.thicken(m)
                assert external_spec(M, m) == external_spec(thick), (A, m)
                assert internal_spec(M, m) == internal_spec(thick), (A, m)
                checked += 1
                unimodular.add(M.is_unimodular())
        assert checked > 1500 and unimodular == {True, False}

    @pytest.mark.parametrize("spec", [external_spec, internal_spec])
    def test_multiplicity_below_one_rejected(self, hexagon, spec):
        with pytest.raises(ValueError, match=r"^ideal specs require m >= 1$"):
            spec(hexagon, 0)
        with pytest.raises(ValueError):
            spec(hexagon, -1)


K4 = graphic(4, list(itertools.combinations(range(4), 2)))
# d = 4: a 4-cycle with a pendant vertex and two chords
GRAPHIC_D4 = graphic(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (3, 4)])


class TestHilbert:
    def test_hexagon_external(self, hexagon):
        hf = hilbert(external_spec(hexagon))
        assert hf == LaurentQ({0: 1, 1: 2, 2: 3, 3: 1})
        assert hf.eval_at_one() == 7

    def test_univariate_square(self):
        # C[x] / (x^2)
        spec = GradedIdealSpec(1, (((1,), 2),))
        assert hilbert(spec) == LaurentQ({0: 1, 1: 1})

    def test_generator_order_and_scaling_invariance(self, hexagon):
        spec = external_spec(hexagon)
        reordered = GradedIdealSpec(spec.variables,
                                    tuple(reversed(spec.generators)))
        scaled = GradedIdealSpec(
            spec.variables,
            tuple((tuple(-2 * x for x in c), e) for c, e in spec.generators))
        expected = hilbert(spec)
        assert hilbert(reordered) == expected
        assert hilbert(scaled) == expected

    @pytest.mark.parametrize("name", ["hexagon", "K4", "graphic_d4"])
    def test_dims_independent_of_generator_order(self, hexagon, name):
        M = {"hexagon": hexagon, "K4": from_matrix(K4),
             "graphic_d4": from_matrix(GRAPHIC_D4)}[name]
        rng = random.Random(61)
        for spec in (external_spec(M), internal_spec(M)):
            expected = hilbert(spec)
            for _ in range(4):
                gens = list(spec.generators)
                rng.shuffle(gens)
                shuffled = GradedIdealSpec(spec.variables, tuple(gens))
                assert hilbert(shuffled) == expected, name

    def test_monomial_guard_names_value(self):
        # x_1^3, ..., x_20^3: the box is the whole quotient, and its degree 6
        # is the first with more box monomials (the coefficient of q^6 in
        # [3]_q^20) than the guard admits
        spec = GradedIdealSpec(20, tuple(
            (tuple(int(i == j) for j in range(20)), 3) for i in range(20)))
        with pytest.raises(
                GuardExceeded,
                match=r"^degree 6 has 146490 box monomials > MONOMIAL_GUARD=50000$"):
            hilbert(spec)

    def test_external_starts_at_one_and_counts_points(self, corpus):
        for name, M in corpus.items():
            hf = hilbert(external_spec(M))
            assert hf.coeff(0) == 1, name
            assert hf.eval_at_one() == M.tutte().eval_int(2, 1), name
            assert hf.eval_at_one() == lattice_count(M, 1), name


class TestColumnCoding:
    """Box monomials y^a (a_i < bounds[i]) are columns -(exponents read in
    a base above the degree, in ``hilbert`` one past the box's top degree)."""

    def test_columns_ascend_in_graded_lex_order(self):
        for d in range(0, 5):
            for bounds in itertools.product((1, 2, 3, 7), repeat=d):
                for k, base in ((k, b) for k in range(7) for b in (k + 1, k + 4)):
                    cols = _monomials(list(bounds), k, base)
                    monos = [e for e in itertools.product(range(k, -1, -1), repeat=d)
                             if sum(e) == k and all(x < b for x, b in zip(e, bounds))]
                    assert cols == sorted(cols)
                    assert cols == [-sum(x * base ** (d - 1 - i) for i, x in enumerate(e))
                                    for e in monos], (bounds, k, base)

    def test_dims_match_tuple_indexed_reference(self, corpus):
        checked = 0
        for name, M in corpus.items():
            for m in (1, 2, 3):
                if M.d < 1 or M.n * m > 12:
                    continue
                thick = M.thicken(m)
                for spec in (external_spec(thick), internal_spec(thick)):
                    assert hilbert(spec) == reference_series(spec), (name, m)
                    checked += 1
        assert checked > 40


class TestBoxCoordinates:
    """d independent generators become pure powers y_i^(e_i); the others are
    rewritten in y and cut to the box."""

    def test_dependent_forms_are_passed_over(self):
        # (2, 2, 0) is parallel to (1, 1, 0), which comes first; in
        # y = (x1 + x2, x2, x3) the form (1, 0, 1) is y1 - y2 + y3
        gens = (((1, 1, 0), 2), ((0, 1, 0), 3), ((2, 2, 0), 2),
                ((1, 0, 1), 4), ((0, 0, 1), 3))
        assert _box_coordinates(3, gens) == (
            [2, 3, 3], [((1, 0, 0), 2), ((1, -1, 1), 4)])
        spec = GradedIdealSpec(3, gens)
        assert reference_hilbert_dims(spec) == (1, 3, 5, 5, 2)
        assert hilbert(spec) == reference_series(spec)

    def test_terms_outside_the_box_are_dropped(self):
        # Q[x, y, z] / (x^3, y^3, z^3, (x - y)^3): modulo the cubes, both
        # xz (x - y)^3 and yz (x - y)^3 are +-3 x^2 y^2 z, so degree 5 keeps
        # one dimension; rows that kept x^3 yz and x y^3 z would lose it
        spec = GradedIdealSpec(3, (((1, 0, 0), 3), ((0, 1, 0), 3), ((0, 0, 1), 3),
                                   ((1, -1, 0), 3)))
        assert reference_hilbert_dims(spec) == (1, 3, 6, 6, 4, 1)
        assert hilbert(spec) == reference_series(spec)

    @pytest.mark.parametrize("spec", [
        GradedIdealSpec(2, (((1, 1), 2), ((-2, -2), 3))),
        GradedIdealSpec(3, (((1, 0, 0), 2), ((0, 1, 0), 2), ((1, 1, 0), 1))),
        GradedIdealSpec(2, ()),
    ])
    def test_forms_that_do_not_span_never_vanish(self, spec):
        with pytest.raises(ArithmeticError,
                           match=r"^the forms do not span Q\^d: the quotient never vanishes$"):
            hilbert(spec)

    def test_sweep_subset_scaled_and_shuffled(self):
        # unimodular and not, each form times a non-unit, generators shuffled
        rng = random.Random(31)
        checked, unimodular = 0, set()
        for A in rng.sample(sweep_matrices(), 60):
            M = from_matrix(A)
            for m in range(1, 8 // M.n + 1):
                thick = M.thicken(m)
                for spec in (external_spec(thick), internal_spec(thick)):
                    gens = [(tuple(s * x for x in c), e) for (c, e), s in zip(
                        spec.generators, rng.choices((-3, -2, 2, 3), k=len(spec.generators)))]
                    rng.shuffle(gens)
                    spec = GradedIdealSpec(spec.variables, tuple(gens))
                    assert hilbert(spec) == reference_series(spec), (A, m)
                    checked += 1
                    unimodular.add(M.is_unimodular())
        assert checked > 150 and unimodular == {True, False}


class TestVersusTutte:
    def test_hexagon(self, hexagon):
        assert verify_zonotopal(hexagon)

    def test_boolean2(self, corpus):
        M = corpus["boolean2"]
        assert hilbert(external_spec(M)) == LaurentQ({0: 1, 1: 2, 2: 1})
        assert verify_zonotopal(M)

    def test_u12(self, corpus):
        M = corpus["u12"]
        assert hilbert(external_spec(M)) == LaurentQ({0: 1, 1: 1, 2: 1})
        assert hilbert(internal_spec(M)) == LaurentQ.one()
        assert verify_zonotopal(M)

    def test_corpus(self, corpus):
        for name, M in corpus.items():
            if M.d >= 1:
                assert verify_zonotopal(M), name


class TestR10:
    def test_m1_matches_graded_count(self):
        # the regular matroid that is neither graphic nor cographic
        M = from_matrix(R10)
        assert hilbert(external_spec(M)) == graded_count(M, 1).value
        assert hilbert(internal_spec(M)) == \
            graded_count(M, 1, interior=True).value


class TestOrbitHarmonicsOracle:
    """The q-refined cross-check: the Hilbert series of the (internal)
    external zonotopal algebra of the m-thickening equals the graded
    (interior) lattice-point count of the dilate mZ."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_external(self, corpus, m):
        for name, M in corpus.items():
            if M.n * m > 12 or M.d < 1:
                continue
            got = hilbert(external_spec(M.thicken(m)))
            assert got == graded_count(M, m).value, (name, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_internal(self, corpus, m):
        for name, M in corpus.items():
            if M.n * m > 12 or M.d < 1:
                continue
            got = hilbert(internal_spec(M.thicken(m)))
            assert got == graded_count(M, m, interior=True).value, (name, m)

    def test_random_unimodular_matrices(self):
        # the oracle must agree beyond the curated corpus
        rng = random.Random(97)
        checked = 0
        while checked < 15:
            d = rng.randint(1, 2)
            n = rng.randint(d, 4)
            entries = [[rng.choice((-1, 0, 1)) for _ in range(n)]
                       for _ in range(d)]
            try:
                M = from_matrix(entries)
            except ValueError:
                continue
            if not M.is_unimodular():
                continue
            checked += 1
            for m in (1, 2):
                thick = M.thicken(m)
                assert hilbert(external_spec(thick)) == \
                    graded_count(M, m).value, entries
                assert hilbert(internal_spec(thick)) == \
                    graded_count(M, m, interior=True).value, entries
                assert graded_count(M, m).value.eval_at_one() == \
                    lattice_count(M, m), entries
