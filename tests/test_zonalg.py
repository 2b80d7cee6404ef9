"""Zonotopal-algebra Hilbert series: the independent algebraic oracle."""

import random

import pytest

from zonoq import (
    GradedIdealSpec,
    external_spec,
    from_matrix,
    graded_count,
    hilbert,
    internal_spec,
    lattice_count,
    verify_zonotopal,
)
from zonoq.exact import LaurentQ


class TestSpecs:
    def test_hexagon_external(self, hexagon):
        spec = external_spec(hexagon)
        assert spec.variables == 2 and spec.degree_cap == 4
        assert sorted(spec.generators) == [((0, 1), 3), ((1, -1), 3), ((1, 0), 3)]

    def test_hexagon_internal(self, hexagon):
        spec = internal_spec(hexagon)
        assert sorted(e for _, e in spec.generators) == [1, 1, 1]
        assert hilbert(spec).dims == (1,)

    def test_coloop_internal_is_zero_quotient(self):
        spec = internal_spec(from_matrix([[1]]))
        assert spec.generators == (((1,), 0),)
        hf = hilbert(spec)
        assert hf.dims == () and hf.as_laurent == LaurentQ.zero()

    def test_d0_rejected(self):
        with pytest.raises(ValueError):
            external_spec(from_matrix([]))


class TestHilbert:
    def test_hexagon_external(self, hexagon):
        hf = hilbert(external_spec(hexagon))
        assert hf.dims == (1, 2, 3, 1)
        assert hf.as_laurent == LaurentQ({0: 1, 1: 2, 2: 3, 3: 1})
        assert hf.total == 7

    def test_univariate_square(self):
        # C[x] / (x^2)
        spec = GradedIdealSpec(1, (((1,), 2),), 3)
        assert hilbert(spec).dims == (1, 1)

    def test_generator_order_and_scaling_invariance(self, hexagon):
        spec = external_spec(hexagon)
        reordered = GradedIdealSpec(spec.variables,
                                    tuple(reversed(spec.generators)),
                                    spec.degree_cap)
        scaled = GradedIdealSpec(
            spec.variables,
            tuple((tuple(-2 * x for x in c), e) for c, e in spec.generators),
            spec.degree_cap)
        expected = hilbert(spec).dims
        assert hilbert(reordered).dims == expected
        assert hilbert(scaled).dims == expected

    def test_external_starts_at_one_and_counts_points(self, corpus):
        for name, M in corpus.items():
            hf = hilbert(external_spec(M))
            assert hf.dims[0] == 1, name
            assert hf.total == M.tutte().eval_int(2, 1), name
            assert hf.total == lattice_count(M, 1), name


class TestVersusTutte:
    def test_hexagon(self, hexagon):
        assert verify_zonotopal(hexagon)

    def test_boolean2(self, corpus):
        M = corpus["boolean2"]
        assert hilbert(external_spec(M)).as_laurent == LaurentQ({0: 1, 1: 2, 2: 1})
        assert verify_zonotopal(M)

    def test_u12(self, corpus):
        M = corpus["u12"]
        assert hilbert(external_spec(M)).as_laurent == LaurentQ({0: 1, 1: 1, 2: 1})
        assert hilbert(internal_spec(M)).as_laurent == LaurentQ.one()
        assert verify_zonotopal(M)

    def test_corpus(self, corpus):
        for name, M in corpus.items():
            if M.d >= 1:
                assert verify_zonotopal(M), name


class TestOrbitHarmonicsOracle:
    """The q-refined cross-check: the Hilbert series of the (internal)
    external zonotopal algebra of the m-thickening equals the graded
    (interior) lattice-point count of the dilate mZ."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_external(self, corpus, m):
        for name, M in corpus.items():
            if M.n * m > 12 or M.d < 1:
                continue
            got = hilbert(external_spec(M.thicken(m))).as_laurent
            assert got == graded_count(M, m).value, (name, m)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_internal(self, corpus, m):
        for name, M in corpus.items():
            if M.n * m > 12 or M.d < 1:
                continue
            got = hilbert(internal_spec(M.thicken(m))).as_laurent
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
                assert hilbert(external_spec(thick)).as_laurent == \
                    graded_count(M, m).value, entries
                assert hilbert(internal_spec(thick)).as_laurent == \
                    graded_count(M, m, interior=True).value, entries
                assert graded_count(M, m).value.eval_at_one() == \
                    lattice_count(M, m), entries
