"""Exact-arithmetic layer: Laurent/t polynomials, q-binomials, expansion."""

import random
from operator import add, sub

import pytest

from conftest import (
    CORPUS_MATRICES,
    bar_q,
    bipoly_from_json,
    dict_add,
    dict_bar,
    dict_eval_t,
    dict_mul,
    dict_pow,
    dict_shift,
    dict_t_reverse_bar,
    eval_qint,
    is_polynomial,
    laurent_from_json,
    pascal_qbinom,
    polytq_from_json,
    power,
    qbinom,
    reference_expand,
    reference_q_eval,
    reference_x_coeffs,
    unimodular_suite,
    y_degree,
)
from zonoq import (
    bar_eval,
    ehr_poly,
    external_spec,
    from_matrix,
    graded_hilbert,
    hilbert,
    internal_spec,
    reciprocity_check,
    series,
    tutte_thickened,
)
from zonoq.exact import (
    BiPolyXY,
    LaurentQ,
    PolyTQ,
    RatSeries,
    bipoly_to_json,
    expand,
    laurent_to_json,
    polytq_to_json,
    _add_row,
    _times_qint,
)


def qbinom_subset_oracle(m: int, k: int) -> LaurentQ:
    """Independent brute force: sum of q^(sum(S) - C(k,2)) over k-subsets of
    {0, ..., m-1}."""
    import itertools

    terms = {}
    base = k * (k - 1) // 2
    for S in itertools.combinations(range(m), k):
        e = sum(S) - base
        terms[e] = terms.get(e, 0) + 1
    return LaurentQ(terms)


def rand_laurent(rng: random.Random, nterms: int = 4) -> LaurentQ:
    return LaurentQ({rng.randint(-3, 4): rng.randint(-5, 5)
                     for _ in range(rng.randint(0, nterms))})


class TestBar:
    def test_negates_exponents(self):
        p = LaurentQ({0: 1, 1: 2, 2: 3, 3: 1})
        assert bar_q(p) == LaurentQ({0: 1, -1: 2, -2: 3, -3: 1})

    def test_zero(self):
        assert bar_q(LaurentQ.zero()) == LaurentQ.zero()

    def test_involution(self):
        p = LaurentQ({-1: 2, 4: -5})
        assert bar_q(bar_q(p)) == p

    def test_multiplicative(self):
        rng = random.Random(7)
        for _ in range(50):
            p, r = rand_laurent(rng), rand_laurent(rng)
            assert bar_q(p * r) == bar_q(p) * bar_q(r)


class TestQbinom:
    def test_two_choose_one(self):
        assert qbinom(2, 1) == LaurentQ({0: 1, 1: 1})

    def test_four_choose_two(self):
        # frozen from the subset-statistic oracle
        expected = LaurentQ({0: 1, 1: 1, 2: 2, 3: 1, 4: 1})
        assert qbinom_subset_oracle(4, 2) == expected
        assert qbinom(4, 2) == expected

    def test_out_of_range(self):
        assert qbinom(3, 5) == LaurentQ.zero()
        assert qbinom(3, -1) == LaurentQ.zero()

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            qbinom(-1, 0)

    @pytest.mark.parametrize("m", range(8))
    def test_matches_subset_oracle(self, m):
        for k in range(m + 1):
            assert qbinom(m, k) == qbinom_subset_oracle(m, k)

    def test_coefficients_non_negative(self):
        for m in range(9):
            for k in range(m + 1):
                p = qbinom(m, k)
                assert is_polynomial(p)
                assert all(c > 0 for c in p.terms.values())

    def test_matches_q_pascal(self):
        for m in range(15):
            for k in range(-1, m + 2):
                assert qbinom(m, k) == pascal_qbinom(m, k), (m, k)


class TestQintKernel:
    """times_qint and over_qint against the schoolbook product by q_int(k)."""

    @staticmethod
    def values(rng):
        yield LaurentQ.zero()
        yield LaurentQ.one()
        for _ in range(200):
            length = rng.choice((1, 2, 5, 12, 40, 57))
            lo = rng.randint(-30, 10)
            yield LaurentQ({lo + i: rng.randint(-4, 4) for i in range(length)})

    def test_times_qint_is_the_product(self):
        rng = random.Random(53)
        long_values = 0
        for p in self.values(rng):
            long_values += len(p.c) >= 40
            for k in (0, 1, rng.randint(2, 6), rng.randint(7, 60)):
                assert p.times_qint(k) == p * LaurentQ.q_int(k), (p, k)
        assert long_values > 20

    def test_over_qint_inverts_times_qint(self):
        rng = random.Random(59)
        for p in self.values(rng):
            for k in (1, rng.randint(2, 6), rng.randint(7, 60)):
                assert (p * LaurentQ.q_int(k)).over_qint(k) == p, (p, k)

    def test_over_qint_raises_on_non_multiples(self):
        rng = random.Random(61)
        for p in self.values(rng):
            if not p:
                continue
            for k in (2, rng.randint(3, 6), rng.randint(7, 60)):
                # p [k]_q + q^e is a multiple of [k]_q iff q^e is, and
                # [k]_q (k >= 2) divides no monomial
                e = rng.randint(-40, 80)
                with pytest.raises(ArithmeticError):
                    (p * LaurentQ.q_int(k) + LaurentQ.q_power(e)).over_qint(k)
        with pytest.raises(ArithmeticError):
            LaurentQ({0: 1, 1: 1}).over_qint(3)

    def test_list_kernel_is_the_product(self):
        rng = random.Random(71)
        for p in self.values(rng):
            for k in (0, 1, rng.randint(2, 6), rng.randint(7, 60)):
                out = _times_qint(p.c, k)
                assert len(out) == len(p.c) + k, (p, k)
                assert LaurentQ._make(p.lo, out) == p * LaurentQ.q_int(k), (p, k)
        assert _times_qint([], 0) == [] and _times_qint((), 3) == [0, 0, 0]
        assert _times_qint([2, -1], 0) == [0, 0]

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            LaurentQ.one().times_qint(-1)
        with pytest.raises(ValueError):
            LaurentQ.one().over_qint(-1)

    @pytest.mark.parametrize("p", [LaurentQ.zero(), LaurentQ.one(),
                                   LaurentQ({-2: 3, 4: -1})])
    def test_division_by_qint_zero_rejected(self, p):
        # [0]_q = 0: not even the zero polynomial has a quotient by it
        with pytest.raises(ValueError, match=r"^over_qint requires k >= 1$"):
            p.over_qint(0)


class TestAddRow:
    """The row kernel op(a, q^k b) on (q-offset, integer list) rows."""

    def test_matches_laurent_sum(self):
        rng = random.Random(89)
        below = 0
        for _ in range(400):
            a, b = rand_laurent(rng, 6), rand_laurent(rng, 6)
            k = rng.randint(-4, 4)
            op = rng.choice((add, sub))
            b_row = (b.lo, list(b.c))
            lo, c = _add_row((a.lo, list(a.c)), b_row, k, op)
            assert LaurentQ._make(lo, c) == op(a, b.shift(k)), (a, b, k)
            assert b_row == (b.lo, list(b.c))
            below += bool(a and b) and b.lo + k < a.lo
        assert below > 50

    def test_reuses_the_list_of_a(self):
        row = [1, 2, 3]
        b = [4, 5]
        assert _add_row((0, row), (0, b), 1, add) == (0, [1, 6, 8])
        assert row == [1, 6, 8] and b == [4, 5]
        assert _add_row((0, row), (2, b), 1, add)[1] is row
        assert row == [1, 6, 8, 4, 5] and b == [4, 5]

    def test_b_below_the_offset_of_a(self):
        row, b = [1, 1], [7]
        assert _add_row((2, row), (-1, b), 1, add) == (0, [7, 0, 1, 1])
        assert row == [1, 1] and b == [7]

    def test_a_empty(self):
        row, b = [], [2, 3]
        assert _add_row((5, row), (-1, b), 2, add) == (1, [2, 3])
        assert row == [2, 3] and b == [2, 3]
        assert _add_row((0, []), (4, b), 0, sub) == (4, [-2, -3])
        assert b == [2, 3]

    def test_b_empty(self):
        a = (3, [1, 2])
        assert _add_row(a, (-9, []), 4, sub) is a
        assert a == (3, [1, 2])
        assert _add_row((0, []), (0, ()), 0, add) == (0, [])

    def test_ring_zero_fill(self):
        # rows over LaurentQ: every gap, front and back, holds the fill value
        z, one, q = LaurentQ.zero(), LaurentQ.one(), LaurentQ.q_power(1)
        row = [one]
        assert _add_row((3, row), (0, [q]), 0, add, z) == (0, [q, z, z, one])
        assert row == [one]
        lo, c = _add_row((0, [one]), (1, (q, one)), 2, sub, z)
        assert (lo, c) == (0, [one, z, z, -q, -one])
        assert all(isinstance(g, LaurentQ) for g in c)

    def test_sub(self):
        row, b = [1], [1, 1]
        assert _add_row((0, row), (0, b), 1, sub) == (0, [1, -1, -1])
        assert _add_row((0, [1, 1]), (0, (1, 1)), 0, sub) == (0, [0, 0])


class TestExpand:
    def test_matches_laurent_recurrence(self):
        rng = random.Random(97)
        zero_coeffs = negative = 0
        for _ in range(150):
            order = rng.randint(0, 6)
            num = PolyTQ({k: rand_laurent(rng) for k in range(rng.randint(0, order + 1) + 1)
                          if rng.random() < 0.75})
            zero_coeffs += sum(1 for g in num.c if not g)
            negative += any(e < 0 for _, e, _ in num.to_triples())
            s = RatSeries(num, order)
            for up_to in range(9):
                assert expand(s, up_to) == reference_expand(s, up_to), (num, order, up_to)
        assert zero_coeffs > 20 and negative > 50

    def test_geometric_order1(self):
        s = RatSeries(PolyTQ.one(), 1)
        assert expand(s, 2) == [LaurentQ.one(), LaurentQ.q_int(2), LaurentQ.q_int(3)]

    def test_hexagon_numerator(self):
        num = PolyTQ({
            0: LaurentQ.one(),
            1: LaurentQ({2: 2, 1: 1}),
            2: LaurentQ({3: -1, 2: -2}),
            3: LaurentQ({4: -1}),
        })
        out = expand(RatSeries(num, 3), 1)
        assert out == [LaurentQ.one(), LaurentQ({0: 1, 1: 2, 2: 3, 3: 1})]

    def test_order0(self):
        s = RatSeries(PolyTQ.one(), 0)
        assert expand(s, 3) == [LaurentQ.one()] * 4

    @pytest.mark.parametrize("n", range(1, 6))
    def test_negative_q_binomial_theorem(self, n):
        # 1 / prod_{i=0}^{n-1} (1 - t q^i) has t^k coefficient binom(n+k-1, k)_q
        out = expand(RatSeries(PolyTQ.one(), n - 1), 6)
        for k, coeff in enumerate(out):
            assert coeff == qbinom(n + k - 1, k)

    @pytest.mark.parametrize("k", range(5))
    def test_qbinom_generating_function(self, k):
        # t^k / prod_{i=0}^{k} (1 - t q^i) has t^m coefficient binom(m, k)_q
        out = expand(RatSeries(PolyTQ({k: 1}), k), 8)
        for m, coeff in enumerate(out):
            assert coeff == qbinom(m, k)


class TestRingAxioms:
    def test_laurent(self):
        rng = random.Random(11)
        for _ in range(40):
            a, b, c = (rand_laurent(rng) for _ in range(3))
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a - a == LaurentQ.zero()

    def test_polytq(self):
        rng = random.Random(13)

        def rand_poly():
            return PolyTQ({rng.randint(0, 3): rand_laurent(rng)
                           for _ in range(rng.randint(0, 3))})

        for _ in range(25):
            a, b, c = rand_poly(), rand_poly(), rand_poly()
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)

    def test_powers(self):
        p = LaurentQ({1: 1, 0: 1})
        assert power(p, 0) == LaurentQ.one()
        assert power(p, 3) == p * p * p


class TestRatSeries:
    def test_numerator_degree_bound(self):
        with pytest.raises(ValueError):
            RatSeries(PolyTQ({3: 1}), 1)

    def test_degree_order_plus_one_allowed(self):
        RatSeries(PolyTQ({2: 1}), 1, interior=True)

    def test_interior_needs_zero_constant(self):
        with pytest.raises(ValueError):
            RatSeries(PolyTQ.one(), 1, interior=True)


class TestSerialization:
    def test_laurent_roundtrip(self):
        p = LaurentQ({-2: 3, 0: -7, 5: 10**30})
        data = laurent_to_json(p)
        assert data == [[-2, "3"], [0, "-7"], [5, str(10**30)]]
        assert laurent_from_json(data) == p

    def test_laurent_accepts_ints(self):
        assert laurent_from_json([[0, 1], [1, 2]]) == LaurentQ({0: 1, 1: 2})

    def test_polytq_roundtrip(self):
        p = PolyTQ({0: LaurentQ.one(), 2: LaurentQ({-1: 4, 3: -2})})
        assert polytq_from_json(polytq_to_json(p)) == p

    def test_bipoly_roundtrip(self):
        T = BiPolyXY({(2, 0): 1, (1, 0): 1, (0, 1): 1})
        assert bipoly_from_json(bipoly_to_json(T)) == T


def x_rows(T, top, e, j):
    """``T._x_rows`` as ``LaurentQ`` values."""
    return [LaurentQ._make(lo, c) for lo, c in T._x_rows(top, e, j)]


class TestBiPolyQEval:
    """The x-coefficient rows and q_eval against term-by-term references
    from items()."""

    # x^2 + 2x + 2y + y^2, the Tutte polynomial of [[1, 0, 1, 1], [0, 1, 1, -1]]
    T = BiPolyXY({(2, 0): 1, (1, 0): 2, (0, 1): 2, (0, 2): 1})

    def test_example(self):
        assert from_matrix([[1, 0, 1, 1], [0, 1, 1, -1]]).tutte() == self.T
        assert x_rows(self.T, 2, 0, 1) == [LaurentQ.const(3), LaurentQ.const(2),
                                           LaurentQ.one()]
        assert self.T.q_eval(2, 1, 2, 0) == LaurentQ({0: 6, 1: 4, 2: 1})  # T(1+q, 1)
        assert x_rows(self.T, 3, -2, 1) == [LaurentQ({-2: 2, -4: 1}), LaurentQ.const(2),
                                            LaurentQ.one(), LaurentQ.zero()]
        # times [2]_q^(3-a): (1+q)^3, (1+q)^2, 1+q and 1 in turn
        assert x_rows(self.T, 3, -2, 2) == [LaurentQ({-4: 1, -3: 3, -2: 5, -1: 7, 0: 6, 1: 2}),
                                            LaurentQ({0: 2, 1: 4, 2: 2}),
                                            LaurentQ({0: 1, 1: 1}), LaurentQ.zero()]

    def test_top_below_x_degree_rejected(self):
        with pytest.raises(ValueError, match="x-degree"):
            self.T.q_eval(2, 1, 1, -1)
        with pytest.raises(ValueError, match="x-degree"):
            BiPolyXY.one().q_eval(2, 1, -1, 0)

    def test_zero_polynomial(self):
        for top in range(3):
            for j in range(4):
                assert x_rows(BiPolyXY.zero(), top, 2, j) == [LaurentQ.zero()] * (top + 1)
            assert BiPolyXY.zero().q_eval(2, 3, top, -1) == LaurentQ.zero()

    def test_suite(self):
        for M in unimodular_suite():
            T = M.tutte()
            for top in (T.x_degree(), T.x_degree() + 2):
                for e in range(-3, 4):
                    ref = reference_x_coeffs(T, top, e)
                    assert x_rows(T, top, e, 1) == ref, (T, top, e)
                    for j in (0, 2, 3):
                        assert x_rows(T, top, e, j) == [
                            g * power(LaurentQ.q_int(j), top - a) for a, g in enumerate(ref)
                        ], (T, top, e, j)
                    for k in range(4):
                        for j in range(4):
                            assert T.q_eval(k, j, top, e) == \
                                reference_q_eval(T, k, j, top, e), (T, k, j, top, e)

    def test_several_k_match_single_evaluations(self):
        # one call with a tuple of k equals the reference at each k, on
        # random polynomials, with j = 1, e = 0 and top above the x-degree
        rng = random.Random(71)
        ks = (0, 1, 2, 3, 5)
        for _ in range(40):
            T = BiPolyXY({(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-5, 5)
                          for _ in range(rng.randint(0, 6))})
            for top in (T.x_degree(), T.x_degree() + 2):
                for j in (0, 1, 2, 3):
                    for e in (-2, 0, 3):
                        values = T.q_eval(ks, j, top, e)
                        assert values == tuple(reference_q_eval(T, k, j, top, e)
                                               for k in ks), (T, j, top, e)
                        assert values[2] == T.q_eval(2, j, top, e)
        assert BiPolyXY.one().q_eval((), 2, 0, 1) == ()


class TestBiPoly:
    def test_eval(self):
        T = BiPolyXY({(2, 0): 1, (1, 0): 1, (0, 1): 1})
        assert T.eval_int(2, 1) == 7
        assert T.eval_int(2, 2) == 8
        assert T.x_degree() == 2 and y_degree(T) == 1

    def test_canonical_zero_stripping(self):
        a = BiPolyXY({(1, 1): 2})
        b = BiPolyXY({(1, 1): -2})
        assert (a + b) == BiPolyXY.zero()
        assert not (a + b)


# -- the dense core against the term-map reference -----------------------------

BIG = 10**30


def rand_coeff(rng: random.Random) -> int:
    return rng.choice([rng.randint(-3, 3), rng.randint(-BIG, BIG)])


def rand_map(rng: random.Random, kind: str) -> dict:
    """A random term map: Laurent exponents in -5..6; PolyTQ t-exponents
    from {0, 1, 4, 5, 6} (so sums and products have t-gaps); BiPolyXY
    exponents in 0..4."""
    def key():
        if kind == "laurent":
            return rng.randint(-5, 6)
        if kind == "polytq":
            return rng.choice([0, 1, 4, 5, 6]), rng.randint(-3, 4)
        return rng.randint(0, 4), rng.randint(0, 4)

    out = {key(): rand_coeff(rng) for _ in range(rng.randint(0, 6))}
    return {e: c for e, c in out.items() if c}


def cancelling(rng: random.Random, p: dict) -> dict:
    """A random map that, added to p, clears p's first or last term (for
    pairs: its first or last outer coefficient, or a single end term)."""
    if not p:
        return {}
    keys = sorted(p)
    pick = rng.choice(["first", "last", "first outer", "last outer"])
    if pick == "first":
        chosen = keys[:1]
    elif pick == "last":
        chosen = keys[-1:]
    else:
        outer = keys[0] if pick == "first outer" else keys[-1]
        outer = outer[0] if isinstance(outer, tuple) else outer
        chosen = [e for e in keys if (e[0] if isinstance(e, tuple) else e) == outer]
    return {e: -p[e] for e in chosen}


def build(kind: str, terms: dict):
    if kind == "laurent":
        return LaurentQ(terms)
    if kind == "bipoly":
        return BiPolyXY(terms)
    rows: dict[int, dict[int, int]] = {}
    for (k, e), c in terms.items():
        rows.setdefault(k, {})[e] = c
    return PolyTQ({k: LaurentQ(row) for k, row in rows.items()})


def flat(kind: str, value) -> list:
    """Sorted (exponent, coefficient) items of a core value."""
    if kind == "laurent":
        return value.to_pairs()
    return [((a, b), c) for a, b, c in value.to_triples()]


def assert_matches(kind: str, value, terms: dict):
    """value is the canonical core form of the term map: ends nonzero,
    coefficients of the right ring (LaurentQ gaps, not int 0), same terms."""
    assert flat(kind, value) == sorted(terms.items())
    assert value == build(kind, terms)
    assert bool(value) == bool(terms)
    ring = int if kind == "laurent" else LaurentQ
    assert all(type(x) is ring for x in value.c)
    assert not value.c or (value.c[0] and value.c[-1])
    assert value.c or value.lo == 0
    if ring is LaurentQ:
        for g in value.c:
            assert not g.c or (g.c[0] and g.c[-1])
            assert all(type(x) is int for x in g.c)


KINDS = ["laurent", "polytq", "bipoly"]
UNIT = {"laurent": 0, "polytq": (0, 0), "bipoly": (0, 0)}


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4))
class TestDenseCoreAgainstDicts:
    def pairs(self, kind, seed, n=60):
        rng = random.Random(f"{kind}:{seed}")
        for _ in range(n):
            p = rand_map(rng, kind)
            q = rand_map(rng, kind) if rng.random() < 0.7 else {}
            if rng.random() < 0.6:
                q.update(cancelling(rng, p))
            yield rng, p, q

    def test_ring_operations(self, kind, seed):
        for rng, p, q in self.pairs(kind, seed):
            a, b = build(kind, p), build(kind, q)
            assert_matches(kind, a + b, dict_add(p, q))
            assert_matches(kind, a - b, dict_add(p, q, -1))
            assert_matches(kind, a - (-b), dict_add(p, q))
            assert_matches(kind, b - a, dict_add(q, p, -1))
            assert_matches(kind, -a, {e: -c for e, c in p.items()})
            assert_matches(kind, a * b, dict_mul(p, q))
            k = rand_coeff(rng)
            unit = UNIT[kind]
            assert_matches(kind, a * k, dict_mul(p, {unit: k} if k else {}))
            assert_matches(kind, k * a, dict_mul(p, {unit: k} if k else {}))
            assert_matches(kind, a + k, dict_add(p, {unit: k} if k else {}))
            assert_matches(kind, k - a, dict_add({unit: k} if k else {}, p, -1))
            assert (a == b) == (p == q)
            assert a == build(kind, dict(reversed(list(p.items()))))

    def test_powers(self, kind, seed):
        rng = random.Random(f"pow:{kind}:{seed}")
        for _ in range(8):
            p = rand_map(rng, kind)
            a = build(kind, p)
            for n in range(5):
                assert_matches(kind, power(a, n), dict_pow(p, n, UNIT[kind]))

    def test_transforms(self, kind, seed):
        rng = random.Random(f"tr:{kind}:{seed}")
        for _ in range(40):
            p = rand_map(rng, kind)
            a = build(kind, p)
            if kind == "laurent":
                assert_matches(kind, a.bar(), dict_bar(p))
                k = rng.randint(-7, 7)
                assert_matches(kind, a.shift(k), dict_shift(p, k))
                assert laurent_from_json(laurent_to_json(a)) == a
                assert laurent_to_json(a) == [[e, str(c)] for e, c in sorted(p.items())]
            elif kind == "polytq":
                top = max(a.t_degree(), 0) + rng.randint(0, 2)
                assert_matches(kind, a.t_reverse_bar(top), dict_t_reverse_bar(p, top))
                m = rng.randint(0, 6)
                assert_matches("laurent", eval_qint(a, m),
                               dict_eval_t(p, LaurentQ.q_int(m).terms))
                assert polytq_from_json(polytq_to_json(a)) == a
                assert polytq_to_json(a) == [[k, e, str(c)] for (k, e), c in sorted(p.items())]
            else:
                assert bipoly_from_json(bipoly_to_json(a)) == a
                assert bipoly_to_json(a) == [[x, y, str(c)] for (x, y), c in sorted(p.items())]


class TestDenseCoreEdges:
    def test_t_gap_sum_keeps_laurent_zeros(self):
        p = PolyTQ({0: 1}) + PolyTQ({5: 1})
        assert p.to_triples() == [(0, 0, 1), (5, 0, 1)]
        assert all(isinstance(g, LaurentQ) for g in p.c)
        assert p.coeff(3) == LaurentQ.zero() and p.t_degree() == 5
        # b below a (a front fill), a difference, and a gap in x
        below = PolyTQ({5: 1}) + PolyTQ({1: LaurentQ.q_power(-2)})
        diff = PolyTQ({2: 1}) - PolyTQ({6: LaurentQ.q_power(3, 4)})
        xgap = BiPolyXY({(4, 1): 1}) + BiPolyXY({(0, 0): 2})
        assert below.to_triples() == [(1, -2, 1), (5, 0, 1)]
        assert diff.to_triples() == [(2, 0, 1), (6, 3, -4)]
        assert xgap.to_triples() == [(0, 0, 2), (4, 1, 1)]
        for v in (below, diff, xgap):
            assert len(v.c) == 5 and all(isinstance(g, LaurentQ) for g in v.c), v

    def test_cancelled_ends_are_trimmed(self):
        a = LaurentQ({-2: BIG, 0: 1, 3: -BIG})
        assert a + LaurentQ({-2: -BIG}) == LaurentQ({0: 1, 3: -BIG})
        assert (a - LaurentQ({3: -BIG, -2: BIG})).c == (1,)
        assert not (a - a) and (a - a).lo == 0

    def test_read_only_views_are_fresh(self):
        a = LaurentQ({1: 2})
        a.terms[5] = 1
        assert a == LaurentQ({1: 2})
        p = PolyTQ({2: a})
        p.coeffs[0] = LaurentQ.one()
        assert p == PolyTQ({2: a})

    def test_zero_degrees(self):
        assert PolyTQ.zero().t_degree() == -1
        z = BiPolyXY.zero()
        assert z.x_degree() == 0 and y_degree(z) == 0
        assert repr(z) == repr(LaurentQ.zero()) == repr(PolyTQ.zero()) == "0"

    def test_reprs(self):
        assert repr(LaurentQ({-1: -1, 0: 3, 1: 1, 2: -2})) == "-q^-1 + 3 + q - 2*q^2"
        assert repr(PolyTQ({0: LaurentQ.one(), 2: LaurentQ({1: -1})})) == "1 + (-q)*t^2"
        assert repr(BiPolyXY({(0, 0): 2, (1, 0): -1, (2, 1): 1, (0, 3): -4})) \
            == "2 - 4*y^3 - x + x^2y"

    def test_bipoly_items_and_coeff(self):
        T = BiPolyXY({(2, 0): 1, (1, 0): 1, (0, 1): 1})
        assert dict(T.items()) == {(0, 1): 1, (1, 0): 1, (2, 0): 1}
        assert T.coeff(2, 0) == 1 and T.coeff(7, 7) == 0

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            PolyTQ({-1: LaurentQ.one()})
        with pytest.raises(ValueError):
            BiPolyXY({(0, -1): 1})
        with pytest.raises(ValueError):
            power(LaurentQ.one(), -1)


class TestNonIntegralRejected:
    """Exponents and coefficients are taken by ``operator.index``: a float,
    even an integral one, raises instead of being truncated."""

    @pytest.mark.parametrize("build, value", [
        (lambda: LaurentQ({0: 1.5, 2.9: 3}), "1.5"),
        (lambda: LaurentQ.const(2.7), "2.7"),
        (lambda: LaurentQ.q_power(1.5, 2.2), "1.5"),
        (lambda: BiPolyXY({(1.5, 0): 2}), "1.5"),
        (lambda: PolyTQ({1.7: LaurentQ.one()}), "1.7"),
    ], ids=["LaurentQ", "const", "q_power", "BiPolyXY", "PolyTQ"])
    def test_raises_naming_the_value(self, build, value):
        with pytest.raises(ValueError, match=rf"{value} is not an integer"):
            build()

    @pytest.mark.parametrize("call, what", [
        (lambda M, T: M.thicken(2.0), "multiplicity"),
        (lambda M, T: tutte_thickened(T, 2, 2.0), "multiplicity"),
        (lambda M, T: tutte_thickened(T, 2.0, 2), "rank"),
        (lambda M, T: hilbert(internal_spec(M, 2.0)), "multiplicity"),
        (lambda M, T: external_spec(M, 2.0), "multiplicity"),
        (lambda M, T: graded_hilbert(M, 2.0), "degree"),
        (lambda M, T: bar_eval(ehr_poly(M), 2.0), "dilate"),
        (lambda M, T: reciprocity_check(M, 2.0), "m_max"),
        (lambda M, T: expand(series(M), 2.0), "up_to"),
        (lambda M, T: T.q_eval(2.0, 1, 2, 0), "k"),
        (lambda M, T: T.q_eval((3, 2.0), 1, 2, 0), "k"),
        (lambda M, T: T.q_eval(2, 2.0, 2, 0), "j"),
    ], ids=["thicken", "tutte_thickened-m", "tutte_thickened-d", "internal_spec",
            "external_spec", "graded_hilbert", "bar_eval", "reciprocity_check",
            "expand", "q_eval-k", "q_eval-k-tuple", "q_eval-j"])
    def test_public_integer_arguments(self, call, what):
        M = from_matrix(CORPUS_MATRICES["hexagon"])
        T = M.tutte()
        for _ in range(2):  # cold, then with the values at 2 cached
            with pytest.raises(ValueError, match=rf"^{what} 2\.0 is not an integer$"):
                call(M, T)
            M.thicken(2), tutte_thickened(T, 2, 2), external_spec(M, 2)
            graded_hilbert(M, 2), reciprocity_check(M, 2), expand(series(M), 2)

    def test_zero_float_rejected_and_ints_accepted(self):
        # a float zero coefficient is refused, not dropped as a zero term
        with pytest.raises(ValueError, match="coefficient 0.0"):
            LaurentQ({2: 0.0})
        with pytest.raises(ValueError, match="coefficient 0.0"):
            BiPolyXY({(1, 2): 0.0})
        assert LaurentQ({True: 2}) == LaurentQ.q_power(1, 2)
        assert PolyTQ({1: 3}) == PolyTQ({1: LaurentQ.const(3)})
        assert BiPolyXY({(1, 2): -1}).coeff(1, 2) == -1
