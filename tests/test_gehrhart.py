"""The analytic core: graded counts, quantum Ehrhart polynomials, series."""

import itertools
import random

import pytest

from conftest import (
    CORPUS_MATRICES,
    DIAMOND,
    R10,
    eval_qint,
    eval_qivp,
    graphic,
    is_polynomial,
    power,
    product_bar_eval,
    product_ehr_tpower,
    product_eval_t,
    product_graded_count,
    qdifference_interpolation,
    tails_bar_series_numerator,
    tails_series_numerator,
    triangular_interpolation,
    unimodular_suite,
)
from zonoq import (
    NotUnimodular,
    QIVP,
    bar_eval,
    ehr_poly,
    ehr_tpower,
    expand,
    from_matrix,
    graded_count,
    interior_series,
    lattice_count,
    qivp_bar_series,
    qivp_series,
    reciprocity_check,
    series,
    tutte_count,
)
from zonoq import gehrhart
from zonoq.exact import BiPolyXY, LaurentQ, PolyTQ, RatSeries
from zonoq.gehrhart import (GradedCount, _bar_terms, _bar_values, _over_denominator,
                            _qbinomial_coeffs)

HEX_COUNT_M1 = LaurentQ({0: 1, 1: 2, 2: 3, 3: 1})
HEX_NUMERATOR = PolyTQ({
    0: LaurentQ.one(),
    1: LaurentQ({1: 1, 2: 2}),
    2: LaurentQ({2: -2, 3: -1}),
    3: LaurentQ({4: -1}),
})


def rand_laurent(rng: random.Random) -> LaurentQ:
    return LaurentQ({rng.randint(-3, 4): rng.randint(-5, 5)
                     for _ in range(rng.randint(0, 4))})


def rand_qivp(rng: random.Random, max_degree: int = 4) -> QIVP:
    deg = rng.randint(0, max_degree)
    return QIVP(tuple(rand_laurent(rng) for _ in range(deg + 1)), deg)


class TestGradedCount:
    def test_hexagon_m1(self, hexagon):
        assert graded_count(hexagon, 1).value == HEX_COUNT_M1

    def test_hexagon_m1_interior(self, hexagon):
        assert graded_count(hexagon, 1, interior=True).value == LaurentQ.one()

    def test_hexagon_m2(self, hexagon):
        # cross-checked against the zonotopal Hilbert oracle in test_zonalg
        assert graded_count(hexagon, 2).value == \
            LaurentQ({0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 3, 6: 1})

    def test_m0(self, hexagon):
        assert graded_count(hexagon, 0).value == LaurentQ.one()
        with pytest.raises(ValueError):
            graded_count(hexagon, 0, interior=True)

    def test_non_unimodular_rejected(self):
        with pytest.raises(NotUnimodular):
            graded_count(from_matrix(DIAMOND), 1)

    def test_q1_specializes_to_lattice_counts(self, corpus):
        for name, M in corpus.items():
            for m in (1, 2, 3):
                for interior in (False, True):
                    assert graded_count(M, m, interior).value.eval_at_one() == \
                        lattice_count(M, m, interior), (name, m, interior)

    def test_coefficients_non_negative(self, corpus):
        for M in corpus.values():
            for m in (1, 2):
                gc = graded_count(M, m)
                assert is_polynomial(gc.value)
                assert all(c > 0 for c in gc.value.terms.values())

    def test_boolean_is_qint_power(self, corpus):
        for name in ("boolean1", "boolean2", "boolean3"):
            M = corpus[name]
            for m in (1, 2, 3):
                assert graded_count(M, m).value == power(LaurentQ.q_int(m + 1), M.n)

    def test_symmetry_under_column_ops(self, hexagon):
        rng = random.Random(5)
        cols = [hexagon.realization.column(j) for j in range(3)]
        rng.shuffle(cols)
        cols[1] = tuple(-x for x in cols[1])
        M2 = from_matrix([[col[i] for col in cols] for i in range(2)])
        for m in (1, 2):
            assert graded_count(M2, m).value == graded_count(hexagon, m).value


class TestEhrPoly:
    def test_hexagon_tpower(self, hexagon):
        assert ehr_tpower(hexagon) == PolyTQ({
            3: LaurentQ({3: 1, 1: -1}),
            2: LaurentQ({2: 3}),
            1: LaurentQ({1: 3}),
            0: LaurentQ.one(),
        })

    def test_hexagon_basis_coeffs(self, hexagon):
        P = ehr_poly(hexagon)
        assert P.degree == 3
        assert P.basis_coeffs[0] == LaurentQ.one()
        assert P.basis_coeffs[1] == LaurentQ({3: 1, 2: 3, 1: 2})
        assert P.basis_coeffs[2] == LaurentQ({6: 1, 5: 3, 4: 4, 2: -2})
        assert P.basis_coeffs[3] == \
            LaurentQ({9: 1, 8: 2, 7: 1, 6: -1, 5: -2, 4: -1})

    def test_unit_segment(self):
        P = ehr_poly(from_matrix([[1]]))
        assert P.basis_coeffs == (LaurentQ.one(), LaurentQ.q_power(1))
        for m in range(5):
            assert eval_qivp(P, m) == LaurentQ.q_int(m + 1)

    def test_basis_coeffs_are_polynomials(self, corpus):
        # membership in the positive part: every f_k lies in Z[q]
        for name, M in corpus.items():
            assert all(is_polynomial(f)
                       for f in ehr_poly(M).basis_coeffs), name

    def test_values_match_graded_counts(self, corpus):
        for name, M in corpus.items():
            P = ehr_poly(M)
            for m in range(4):
                assert eval_qivp(P, m) == graded_count(M, m).value, (name, m)


class TestEvalQivp:
    def test_m0_gives_f0(self):
        P = QIVP((LaurentQ({2: 5}), LaurentQ.one()), 1)
        assert eval_qivp(P, 0) == LaurentQ({2: 5})

    def test_hexagon_m1(self, hexagon):
        assert eval_qivp(ehr_poly(hexagon), 1) == HEX_COUNT_M1


class TestBarEval:
    def test_bar_of_t_is_minus_qt(self):
        # the degree-1 basis polynomial evaluates under bar to -q [m]_q
        P = QIVP((LaurentQ.zero(), LaurentQ.one()), 1)
        for m in range(1, 6):
            assert bar_eval(P, m) == -LaurentQ.q_int(m).shift(1)

    def test_hexagon_reciprocity_m1(self, hexagon):
        P = ehr_poly(hexagon)
        assert bar_eval(P, 1).shift(-2) == LaurentQ.one()

    def test_hexagon_reciprocity_m2(self, hexagon):
        P = ehr_poly(hexagon)
        assert bar_eval(P, 2).shift(-2) == \
            graded_count(hexagon, 2, interior=True).value

    def test_m0_rejected(self, hexagon):
        with pytest.raises(ValueError):
            bar_eval(ehr_poly(hexagon), 0)


class TestSeries:
    def test_hexagon_numerator(self, hexagon):
        s = series(hexagon)
        assert s.order == 3 and s.numerator == HEX_NUMERATOR

    def test_unit_segment(self):
        s = series(from_matrix([[1]]))
        assert s.order == 1 and s.numerator == PolyTQ.one()

    def test_boolean2(self, corpus):
        # S_2 descent/major-index statistics give 1 + qt
        s = series(corpus["boolean2"])
        assert s.numerator == PolyTQ({0: LaurentQ.one(), 1: LaurentQ.q_power(1)})

    def test_expansion_matches_counts(self, corpus):
        for name, M in corpus.items():
            coeffs = expand(series(M), 4)
            for m in range(5):
                assert coeffs[m] == graded_count(M, m).value, (name, m)


class TestInteriorSeries:
    def test_hexagon_is_t_times_numerator(self, hexagon):
        assert interior_series(hexagon).numerator == \
            PolyTQ({1: 1}) * HEX_NUMERATOR

    def test_unit_segment(self):
        s = interior_series(from_matrix([[1]]))
        assert s.numerator == PolyTQ({2: 1})
        coeffs = expand(s, 5)
        assert coeffs[0] == LaurentQ.zero()
        for m in range(1, 6):
            assert coeffs[m] == LaurentQ.q_int(m - 1)

    def test_expansion_matches_interior_counts(self, corpus):
        for name, M in corpus.items():
            coeffs = expand(interior_series(M), 4)
            assert coeffs[0] == LaurentQ.zero()
            for m in range(1, 5):
                assert coeffs[m] == \
                    graded_count(M, m, interior=True).value, (name, m)

    def test_hexagon_expansion_prefix(self, hexagon):
        coeffs = expand(interior_series(hexagon), 2)
        assert coeffs == [LaurentQ.zero(), LaurentQ.one(), HEX_COUNT_M1]


class TestReciprocity:
    def test_examples(self, corpus):
        assert reciprocity_check(corpus["hexagon"], 3)
        assert reciprocity_check(corpus["u12"], 4)
        assert reciprocity_check(corpus["boolean3"], 2)

    def test_corpus(self, corpus):
        for name, M in corpus.items():
            assert reciprocity_check(M, 3), name


class TestReciprocityCanFail:
    """Both sides of each identity read the shared bar terms h_k; a wrong
    count or a wrong numerator on the other side must still be caught."""

    def test_bumped_interior_count(self, corpus, monkeypatch):
        count = gehrhart.graded_count

        def bumped(M, m, interior=False):
            gc = count(M, m, interior)
            return GradedCount(gc.value + 1, m, interior) if interior and m == 2 else gc

        monkeypatch.setattr(gehrhart, "graded_count", bumped)
        for name, M in corpus.items():
            assert reciprocity_check(M, 1), name
            assert not reciprocity_check(M, 2), name

    def test_perturbed_interior_numerator(self, corpus, monkeypatch):
        interior = gehrhart.interior_series

        def perturbed(M):
            S = interior(M)
            return RatSeries(S.numerator + PolyTQ({S.order + 1: LaurentQ.one()}),
                             S.order, interior=True)

        monkeypatch.setattr(gehrhart, "interior_series", perturbed)
        for name, M in corpus.items():
            assert not reciprocity_check(M, 0), name


class TestQuantumReciprocityFormal:
    """Formal reciprocity for arbitrary quantum integer-valued polynomials:
    the bar generating function equals -E(1/t, 1/q), checked at the
    numerator level and by series expansion."""

    def test_random_qivps(self):
        rng = random.Random(41)
        for _ in range(30):
            P = rand_qivp(rng)
            D = P.degree
            N = qivp_series(P).numerator
            Nbar = qivp_bar_series(P).numerator
            sign = -1 if D % 2 else 1
            flipped = N.t_reverse_bar(D + 1)
            expected = PolyTQ({k: g.shift(D * (D + 1) // 2) * sign
                               for k, g in flipped.coeffs.items()})
            assert Nbar == expected

    def test_expansions_match_values(self):
        rng = random.Random(43)
        for _ in range(10):
            P = rand_qivp(rng)
            coeffs = expand(qivp_series(P), 6)
            for m in range(7):
                assert coeffs[m] == eval_qivp(P, m)
            bar_coeffs = expand(qivp_bar_series(P), 6)
            assert bar_coeffs[0] == LaurentQ.zero()
            for m in range(1, 7):
                assert bar_coeffs[m] == bar_eval(P, m)


class TestAgainstProductReferences:
    """The Horner basis conversion and the Horner numerators against the
    q-difference table, triangular interpolation of product-evaluated values
    and the sums of tails products, on the corpus, R10, K4, K5 and the
    unimodular sweep matrices."""

    @pytest.fixture(scope="class")
    def matroids(self):
        suite = unimodular_suite()
        assert len(suite) > 100
        return {repr(M.realization): M for M in suite}

    def test_ehr_poly_is_triangular_interpolation(self, matroids):
        for name, M in matroids.items():
            tp = ehr_tpower(M)
            values = [product_eval_t(tp, LaurentQ.q_int(m)) for m in range(M.n + 1)]
            assert ehr_poly(M).basis_coeffs == triangular_interpolation(values), name

    def test_series_numerators_match_tails(self, matroids):
        for name, M in matroids.items():
            P = ehr_poly(M)
            assert series(M).numerator == tails_series_numerator(P), name
            assert qivp_bar_series(P).numerator == tails_bar_series_numerator(P), name

    def test_random_qivps(self):
        rng = random.Random(47)
        zero_coeffs = negative_exponents = 0
        for degree in range(11):
            for _ in range(4):
                coeffs = tuple(LaurentQ.zero() if rng.random() < 0.25
                               else rand_laurent(rng) for _ in range(degree + 1))
                zero_coeffs += sum(1 for f in coeffs if not f)
                negative_exponents += sum(1 for f in coeffs if not is_polynomial(f))
                P = QIVP(coeffs, degree)
                values = [eval_qivp(P, m) for m in range(degree + 1)]
                assert qdifference_interpolation(values) == P
                assert triangular_interpolation(values) == coeffs
                assert qivp_series(P).numerator == tails_series_numerator(P)
                assert qivp_bar_series(P).numerator == tails_bar_series_numerator(P)
        assert zero_coeffs > 10 and negative_exponents > 10

    def test_qbinomial_coeffs_random_polytqs(self):
        rng = random.Random(53)
        gaps = negative_exponents = 0
        for D in range(13):
            for _ in range(4):
                top = rng.randint(-1, D)
                p = PolyTQ({k: LaurentQ.zero() if rng.random() < 0.3 else rand_laurent(rng)
                            for k in range(top + 1)})
                gaps += sum(1 for k in range(p.t_degree()) if not p.coeff(k))
                negative_exponents += sum(1 for g in p.c if g.lo < 0)
                values = [product_eval_t(p, LaurentQ.q_int(m)) for m in range(D + 1)]
                assert _qbinomial_coeffs(p, D) == triangular_interpolation(values), (D, p)
        assert gaps > 10 and negative_exponents > 10

    def test_over_denominator_high_first_exponent(self):
        # a first term above the later ones: the live prefix reaches t^(e_0) at once
        g = LaurentQ.q_power(-1, 3)
        expected = PolyTQ({3: g}) * PolyTQ({0: LaurentQ.one(), 1: LaurentQ.q_power(1, -1)}) \
            + PolyTQ.one()
        assert _over_denominator([(3, g), (0, LaurentQ.one())]) == expected


class TestAgainstQintProductReferences:
    """The q-integer kernel forms against the power-table and product forms
    they replaced."""

    @pytest.fixture(scope="class")
    def matroids(self, corpus):
        return {**corpus, "R10": from_matrix(R10)}

    @pytest.fixture(scope="class")
    def suite(self):
        """The corpus, R10, K4, K5 and the unimodular sweep matrices."""
        return {repr(M.realization): M for M in unimodular_suite()}

    def test_graded_count(self, suite):
        for name, M in suite.items():
            for m in range(1, 5):
                for interior in (False, True):
                    assert graded_count(M, m, interior).value == \
                        product_graded_count(M, m, interior), (name, m, interior)

    def test_ehr_tpower(self, suite):
        for name, M in suite.items():
            assert ehr_tpower(M) == product_ehr_tpower(M), name

    @pytest.mark.parametrize("A", [[], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0]],
                                   [[1, 1, 0], [0, 0, 1]]],
                             ids=["n0", "d_eq_n", "loop", "coloop"])
    def test_ehr_tpower_edge_shapes(self, A):
        # the t-power grid is (n+1) x (n+1): its shifts must stay in bounds
        # at n = 0 and lose no row when d = n or a column is a loop or coloop
        M = from_matrix(A)
        assert ehr_tpower(M) == product_ehr_tpower(M)

    def test_ehr_poly_values(self, matroids):
        for name, M in matroids.items():
            tp, P = ehr_tpower(M), ehr_poly(M)
            for m in range(M.n + 3):
                value = product_eval_t(tp, LaurentQ.q_int(m))
                assert eval_qint(tp, m) == value, (name, m)
                assert eval_qivp(P, m) == value, (name, m)

    def test_bar_eval(self, matroids):
        for name, M in matroids.items():
            P = ehr_poly(M)
            for m in range(1, 6):
                assert bar_eval(P, m) == product_bar_eval(P, m), (name, m)

    def test_bar_values_in_one_call(self, matroids):
        # the values at m = 1..6 from one pass, with and without the
        # (-1)^d q^(-d) factor that reciprocity folds into the terms
        for name, M in matroids.items():
            P = ehr_poly(M)
            expected = [product_bar_eval(P, m) for m in range(1, 7)]
            assert _bar_values(_bar_terms(P), 6) == expected, name
            assert _bar_values(_bar_terms(P, M.d), 6) == \
                [v.shift(-M.d) * (-1) ** M.d for v in expected], name
            assert _bar_values(_bar_terms(P), 0) == []

    def test_bar_eval_random_qivps(self):
        rng = random.Random(67)
        zero_coeffs = negative_exponents = 0
        for degree in range(11):
            for _ in range(4):
                coeffs = tuple(LaurentQ.zero() if rng.random() < 0.25
                               else rand_laurent(rng) for _ in range(degree + 1))
                zero_coeffs += sum(1 for f in coeffs if not f)
                negative_exponents += sum(1 for f in coeffs if not is_polynomial(f))
                P = QIVP(coeffs, degree)
                for m in range(1, 6):
                    assert bar_eval(P, m) == product_bar_eval(P, m), (P, m)
        assert zero_coeffs > 10 and negative_exponents > 10


class TestCachedPerMatroid:
    def test_second_call_returns_the_same_object(self, corpus):
        for M in corpus.values():
            for build in (ehr_tpower, ehr_poly, series, interior_series):
                assert build(M) is build(M)

    def test_cached_value_equals_a_fresh_build(self, corpus):
        for name, M in corpus.items():
            fresh = from_matrix(CORPUS_MATRICES[name])
            for build in (ehr_tpower, ehr_poly, series, interior_series):
                assert build(M) == build(fresh), name

    def test_graded_count_keyed_on_m_and_interior(self, corpus):
        for M in corpus.values():
            for m in (1, 2):
                closed = graded_count(M, m)
                assert graded_count(M, m, False) is closed
                assert graded_count(M, m, interior=False) is closed
                inner = graded_count(M, m, interior=True)
                assert graded_count(M, m, True) is inner
                assert inner.interior and not closed.interior

    def test_closed_and_interior_share_one_tutte_evaluation(self, monkeypatch):
        calls = []
        q_eval = BiPolyXY.q_eval

        def counted(T, *args):
            calls.append(args)
            return q_eval(T, *args)

        monkeypatch.setattr(BiPolyXY, "q_eval", counted)
        M = from_matrix(CORPUS_MATRICES["hexagon"])
        for m in (1, 3):
            closed, inner = graded_count(M, m), graded_count(M, m, interior=True)
            assert graded_count(M, m) is closed
            assert graded_count(M, m, True) is inner
            assert closed.value == product_graded_count(M, m)
            assert inner.value == product_graded_count(M, m, True)
        assert calls == [((2, 0), 1, 2, -1), ((4, 2), 3, 2, -3)]

    def test_bad_calls_raise_with_a_warm_cache(self, hexagon):
        closed = graded_count(hexagon, 1)
        assert graded_count(hexagon, m=1) is closed
        assert graded_count(hexagon, interior=False, m=1) is closed
        for args, kwargs in [((1,), {"interir": True}), ((1,), {"m": 1}), ((), {}),
                             ((1, False, 0), {})]:
            with pytest.raises(TypeError):
                graded_count(hexagon, *args, **kwargs)
        hexagon.tutte()
        with pytest.raises(TypeError):
            hexagon.tutte(1)

    def test_non_integral_dilate_rejected_cold_and_warm(self):
        for warm in (False, True):
            M = from_matrix(CORPUS_MATRICES["hexagon"])
            if warm:
                for count in (graded_count, lattice_count, tutte_count):
                    count(M, 2)
            for count in (graded_count, lattice_count, tutte_count):
                for m in (2.0, 1.5):
                    with pytest.raises(ValueError, match=rf"^dilate {m!r} is not an integer$"):
                        count(M, m)
        assert graded_count(M, 1, interior=1).interior is True
        assert graded_count(M, 1, interior=1) is graded_count(M, 1, True)
        assert graded_count(M, 1, interior=2) is graded_count(M, 1, True)
        assert graded_count(M, 0) is graded_count(from_matrix(R10), 0)

    def test_reciprocity_after_cached_reads(self):
        for mat in CORPUS_MATRICES.values():
            M = from_matrix(mat)
            for build in (series, interior_series, ehr_poly):
                build(M)
            assert reciprocity_check(M, 3)


# the ground-set guard: the wheel with 8 spokes (d = 8, n = 16), and K6
WHEEL8 = graphic(9, [(0, i) for i in range(1, 9)]
                 + [(i, i % 8 + 1) for i in range(1, 9)])
K6 = graphic(6, list(itertools.combinations(range(6), 2)))


class TestGuardScale:
    @pytest.fixture(scope="class", params=["wheel8", "K6"])
    def big(self, request):
        return from_matrix({"wheel8": WHEEL8, "K6": K6}[request.param])

    def test_unimodular(self, big):
        assert big.is_unimodular()

    @pytest.mark.parametrize("interior", [False, True])
    def test_q1_is_stanley_count(self, big, interior):
        for m in (1, 2):
            assert graded_count(big, m, interior).value.eval_at_one() == \
                tutte_count(big, m, interior)

    def test_series_expansions_match_counts(self, big):
        coeff = expand(series(big), 2)
        coeff_int = expand(interior_series(big), 2)
        assert all(coeff[m] == graded_count(big, m).value for m in range(3))
        assert all(coeff_int[m] == graded_count(big, m, interior=True).value
                   for m in (1, 2))
        assert not coeff_int[0]

    def test_reciprocity(self, big):
        assert reciprocity_check(big, 2)

    @pytest.mark.parametrize("interior", [False, True])
    def test_lattice_count_is_stanley_count(self, big, interior):
        assert lattice_count(big, 1, interior) == tutte_count(big, 1, interior)
