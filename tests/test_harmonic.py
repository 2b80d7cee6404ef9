"""Harmonic-algebra presentation, Gorenstein classification, palindromicity."""

import itertools
import math
import random
from collections import Counter

import pytest

from conftest import (
    EXPECTED_VERDICT,
    R10,
    contract,
    euler_mahonian,
    graphic,
    rank_int,
    reference_box_graded_hilbert,
    reference_circuit_points,
    reference_degree1_dim,
    reference_graded_hilbert,
    sweep_matrices,
    unimodular_suite,
)
from zonoq import (
    GuardExceeded,
    degree1_dim,
    expand,
    from_matrix,
    gorenstein_classify,
    graded_count,
    graded_hilbert,
    interior_series,
    palindrome_check,
    segre_generators,
    series,
)
from zonoq import harmonic, zonalg
from zonoq.exact import LaurentQ, PolyTQ
from zonoq.linalg import echelon_rank
from zonoq.harmonic import (
    BOOLEAN,
    CIRCUIT_COMPONENTS,
    NOT_GORENSTEIN,
    numerator_palindrome,
    presentation_lines,
)


K4 = graphic(4, list(itertools.combinations(range(4), 2)))


def _column(point, bounds):
    """A box point read in mixed radix, the first coordinate lowest."""
    col = 0
    for x, b in reversed(list(zip(point, bounds))):
        col = col * (b + 1) + x
    return col


def _digit_sum(col, bounds):
    """The q-weight |b| of the box point of a mixed-radix column."""
    total = 0
    for b in bounds:
        col, x = divmod(col, b + 1)
        total += x
    return total


def _box_rows(R, bounds):
    """R's circuit rows over the box prod_j {0..bounds[j]}, point by point."""
    for circ in R.circuits:
        ranges = [range(b if j in circ.support else b + 1) for j, b in enumerate(bounds)]
        for point in itertools.product(*ranges):
            yield frozenset(
                (_column([x + (j == i) for j, x in enumerate(point)], bounds), co)
                for i, co in zip(circ.support, circ.alpha))


def _with_duplicates(rng):
    """A full-rank matrix whose columns repeat up to sign, often not
    unimodular, with a zero column now and then."""
    while True:
        d = rng.randint(1, 3)
        cols = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(rng.randint(d, 4))]
        while len(cols) < 7:
            cols.append([rng.choice((1, -1)) * x for x in rng.choice(cols)])
        rng.shuffle(cols)
        A = [list(row) for row in zip(*cols[:rng.randint(d + 1, 7)])]
        if rank_int(A) == d:
            return A


class TestSegreGenerators:
    def test_hexagon_single_linear(self, hexagon):
        gens = segre_generators(hexagon)
        assert len(gens.linear) == 1
        g = gens.linear[0]
        assert g.circuit == (0, 1, 2) and g.a_set == ()
        assert g.terms == ((1, 1), (2, 1), (4, -1))

    def test_boolean_has_none(self, corpus):
        assert segre_generators(corpus["boolean3"]).linear == ()

    def test_parallel_pair(self):
        gens = segre_generators(from_matrix([[1, 1]]))
        assert [g.terms for g in gens.linear] == [((1, 1), (2, -1))]

    def test_generators_are_q_homogeneous(self, corpus):
        for M in corpus.values():
            for g in segre_generators(M).linear:
                sizes = {mask.bit_count() for mask, _ in g.terms}
                assert len(sizes) == 1

    def test_count_one_per_circuit_and_subset(self, corpus):
        for M in corpus.values():
            gens = segre_generators(M)
            expected = sum(2 ** (M.n - len(c.support)) for c in M.circuits)
            assert len(gens.linear) == expected

    def test_presentation_lines(self, corpus, hexagon):
        assert presentation_lines(segre_generators(hexagon)) == \
            ["z_{1} + z_{2} - z_{3}"]
        # circuit by circuit, then by subset size
        assert presentation_lines(segre_generators(corpus["two_digons"])) == [
            "z_{1} - z_{2}", "z_{1,3} - z_{2,3}", "z_{1,4} - z_{2,4}",
            "z_{1,3,4} - z_{2,3,4}", "z_{3} - z_{4}", "z_{1,3} - z_{1,4}",
            "z_{2,3} - z_{2,4}", "z_{1,2,3} - z_{1,2,4}"]

    def test_variable_guard_names_value(self):
        with pytest.raises(GuardExceeded,
                           match=r"^15 ground-set elements > VARIABLE_GUARD=14$"):
            segre_generators(from_matrix([[1] * 15]))


class TestDegree1Dim:
    def test_examples(self, corpus, hexagon):
        assert degree1_dim(hexagon) == 7
        assert degree1_dim(corpus["boolean2"]) == 4
        assert degree1_dim(from_matrix([[1, 1]])) == 3

    def test_equals_tutte_21(self, corpus, hexagon):
        matroids = dict(corpus)
        matroids["hexagon_thick2"] = hexagon.thicken(2)
        matroids["boolean8"] = from_matrix(
            [[1 if i == j else 0 for j in range(8)] for i in range(8)])
        for name, M in matroids.items():
            assert degree1_dim(M) == M.tutte().eval_int(2, 1), name

    def test_eliminates_the_linear_generators(self, corpus, monkeypatch):
        """One elimination per q-block of the sign-class box: every row of a
        call has its columns in one weight (the mixed-radix digit sum), and
        over all calls the rows are the circuit rows of R over the box; with
        no column repeated up to sign, they are the generators as bitmasks."""
        seen = []

        def recording_rank(rows, stop_at=None):
            rows = list(rows)
            seen.append(rows)
            return echelon_rank(rows, stop_at=stop_at)

        monkeypatch.setattr(harmonic, "echelon_rank", recording_rank)
        matroids = {**corpus, "R10": from_matrix(R10), "K4": from_matrix(K4)}
        for name, M in matroids.items():
            R, sizes = harmonic._sign_classes(M)
            seen.clear()
            degree1_dim(M)
            assert len(seen) == M.n + 1, name
            for rows in seen:
                assert len({_digit_sum(col, sizes) for row in rows for col in row}) <= 1, name
            got = Counter(frozenset(row.items()) for rows in seen for row in rows)
            assert got == Counter(_box_rows(R, sizes)), name
            if sizes == (1,) * M.n:
                assert got == Counter(frozenset(g.terms)
                                      for g in segre_generators(M).linear), name
        assert {"hexagon", "R10", "K4"} <= {
            name for name, M in matroids.items() if max(harmonic._sign_classes(M)[1]) == 1}

    def test_matches_reference(self):
        for M in unimodular_suite():
            assert degree1_dim(M) == reference_degree1_dim(M), M.realization

    def test_variable_guard_names_value(self):
        with pytest.raises(GuardExceeded,
                           match=r"^15 ground-set elements > VARIABLE_GUARD=14$"):
            degree1_dim(from_matrix([[1] * 15]))


class TestGradedHilbert:
    def test_hexagon_m1(self, hexagon):
        assert graded_hilbert(hexagon, 1) == LaurentQ({0: 1, 1: 2, 2: 3, 3: 1})

    def test_m0_is_one(self, hexagon):
        assert graded_hilbert(hexagon, 0) == LaurentQ.one()

    def test_parallel_pair_m2(self):
        got = graded_hilbert(from_matrix([[1, 1]]), 2)
        assert got == LaurentQ({0: 1, 1: 1, 2: 1, 3: 1, 4: 1})

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_graded_count(self, m):
        for M in unimodular_suite():
            if m == 1 or M.n <= 7:
                assert graded_hilbert(M, m) == graded_count(M, m).value, \
                    (M.realization, m)

    @pytest.mark.parametrize("m", [1, 2])
    def test_matches_reference(self, corpus, m):
        for name, M in corpus.items():
            if M.n <= 4:
                assert graded_hilbert(M, m) == reference_graded_hilbert(M, m), (name, m)

    def test_degree_guard_names_value(self, corpus, monkeypatch):
        def no_elimination(*args, **kwargs):
            raise AssertionError("elimination ran past the column guard")

        monkeypatch.setattr(harmonic, "echelon_rank", no_elimination)
        with pytest.raises(GuardExceeded,
                           match=r"^degree 25 has 17576 box columns > COLUMN_GUARD=16384$"):
            graded_hilbert(corpus["boolean3"], 25)
        monkeypatch.undo()
        assert graded_hilbert(corpus["boolean3"], 24).eval_at_one() == 25 ** 3

    def test_column_guard_counts_the_class_box(self):
        """Ten parallel columns at m = 2 build 21 columns, not 3^10."""
        M = from_matrix([[1] * 10])
        assert graded_hilbert(M, 2) == graded_count(M, 2).value

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_graded_count_on_thickenings(self, corpus, m):
        for name, M in {**corpus, "K4": from_matrix(K4)}.items():
            for t in (1, 2, 3):
                if M.n * t > harmonic.VARIABLE_GUARD:
                    continue
                T = M.thicken(t)
                if math.prod(m * p + 1 for p in harmonic._sign_classes(T)[1]) <= 5000:
                    assert graded_hilbert(T, m) == graded_count(T, m).value, (name, t, m)


class TestSignClasses:
    """The sign-class box against the uniform box of the parent design and,
    for n <= 4, against the 2^n-variable presentation."""

    CASES = {
        "ten_parallel": [[1] * 10],
        "loop_class": [[0, 0, 1, 1]],
        "loops_and_flips": [[0, 1, 0, -1, 1]],
        "flipped_pair": [[1, -1, 0, 1], [0, 0, 1, 1]],
        "flipped_k3": [[1, 0, -1, 1, 0, -1], [0, 1, 0, 1, -1, -1]],
        "non_unit_parallel": [[1, 2, 0], [0, 0, 1]],
        "mixed_parallel": [[1, 2, -1, -2, 0], [0, 0, 0, 0, 1]],
    }

    @staticmethod
    def check(M, label):
        for m in (1, 2):
            if (m + 1) ** M.n <= 1024:
                got = graded_hilbert(M, m)
                assert got == reference_box_graded_hilbert(M, m), (label, m)
                if M.n <= 4:
                    assert got == reference_graded_hilbert(M, m), (label, m)

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_edge_cases(self, name):
        self.check(from_matrix(self.CASES[name]), name)

    def test_d0_minor(self):
        M = contract(from_matrix([[1, 1]]), 0)
        assert (M.d, M.n) == (0, 1)
        assert harmonic._sign_classes(M)[1] == (1,)
        self.check(M, "d0")
        assert graded_hilbert(M, 2) == LaurentQ.one()

    @pytest.mark.parametrize("t", [2, 3])
    def test_corpus_thickenings(self, corpus, t):
        for name, M in corpus.items():
            if M.n * t <= 16:
                self.check(M.thicken(t), (name, t))

    def test_random_with_duplicates(self):
        rng = random.Random(14)
        for _ in range(40):
            A = _with_duplicates(rng)
            self.check(from_matrix(A), A)

    def test_classes(self):
        M = from_matrix([[1, 0, -1, 0, 2, 1], [0, 1, 0, 0, 0, 0]])
        R, sizes = harmonic._sign_classes(M)
        assert R.realization.columns() == [(1, 0), (0, 1), (0, 0), (2, 0)]
        assert sizes == (3, 1, 1, 1)
        assert harmonic._sign_classes(M)[0] is R  # one R and circuit sweep per M
        assert harmonic._sign_classes(from_matrix([[1, 2, 0], [0, 0, 1]]))[1] == (1, 1, 1)

    def test_class_invariants(self):
        rng = random.Random(41)
        for A in [*self.CASES.values(), *(_with_duplicates(rng) for _ in range(40))]:
            M = from_matrix(A)
            R, sizes = harmonic._sign_classes(M)
            assert sum(sizes) == M.n and len(sizes) == R.n, A
            assert R.d == M.d == rank_int(R.realization.entries), A
            cols = M.realization.columns()
            first = [next(i for i, c in enumerate(cols)
                          if c in (r, tuple(-x for x in r)))
                     for r in R.realization.columns()]
            assert first == sorted(set(first)), A
            assert [cols[i] for i in first] == R.realization.columns(), A

    def test_ten_parallel_feeds_few_rows(self, monkeypatch):
        fed = []

        def counting_rank(rows, stop_at=None):
            rows = list(rows)
            fed.extend(rows)
            return echelon_rank(rows, stop_at=stop_at)

        monkeypatch.setattr(harmonic, "echelon_rank", counting_rank)
        assert degree1_dim(from_matrix([[1] * 10])) == 11
        assert len(fed) <= 11


class TestBoxPoints:
    """Each circuit's box points, as ``rows`` reads them off its two
    ``box_table`` halves, against the level-set walk: a row determines its
    circuit and point, so equal row multisets are equal point multisets."""

    @staticmethod
    def check(M, label, limit=harmonic.COLUMN_GUARD):
        R, sizes = harmonic._sign_classes(M)
        for m in (1, 2, 3):
            bounds = tuple(m * p for p in sizes)
            if math.prod(b + 1 for b in bounds) > limit:
                continue
            place = [math.prod(b + 1 for b in bounds[:j]) for j in range(R.n)]
            rows = segre_generators(R).rows(bounds)
            for k in range(sum(bounds) + 2):
                got = Counter(frozenset(row.items()) for row in rows(k))
                want = Counter(
                    frozenset((b + place[i], co) for i, co in zip(circ.support, circ.alpha))
                    for circ in R.circuits
                    for b in reference_circuit_points(bounds, circ.support, k - 1))
                assert got == want, (label, m, k)

    def test_sweep(self):
        # boxes of at most 1024 columns: 1035 of the 1200 (matrix, m) pairs;
        # the 165 larger ones, also under COLUMN_GUARD, add about 30 s
        for A in sweep_matrices():
            self.check(from_matrix(A), A, limit=1024)

    def test_corpus_thickenings_k4_and_r10(self, corpus):
        matroids = {(name, t): M.thicken(t) for name, M in corpus.items() for t in (1, 2, 3)}
        for label, M in {**matroids, "K4": from_matrix(K4), "R10": from_matrix(R10)}.items():
            self.check(M, label)

    @pytest.mark.parametrize("name", sorted(TestSignClasses.CASES))
    def test_classes(self, name):
        self.check(from_matrix(TestSignClasses.CASES[name]), name)


class TestTracedEntryPoints:
    """The benchmark's tracer rebinds module attributes: it sees the kernel
    only where an oracle looks ``echelon_rank`` up in its own module, and it
    counts the generators once per ``degree1_dim`` call."""

    def test_degree1_dim_builds_the_generators_once(self, corpus, monkeypatch):
        calls = []

        def counting(M):
            calls.append(M)
            return segre_generators(M)

        monkeypatch.setattr(harmonic, "segre_generators", counting)
        for name, M in {**corpus, "K4": from_matrix(K4)}.items():
            calls.clear()
            degree1_dim(M)
            assert len(calls) == 1, name

    @pytest.mark.parametrize("module, oracle", [
        (zonalg, lambda M: zonalg.hilbert(zonalg.external_spec(M))),
        (harmonic, degree1_dim)])
    def test_oracles_call_the_module_kernel(self, module, oracle, monkeypatch):
        calls = []

        def counting(rows, stop_at=None):
            calls.append(stop_at)
            return echelon_rank(rows, stop_at)

        monkeypatch.setattr(module, "echelon_rank", counting)
        oracle(from_matrix(K4))
        assert calls


class TestGorenstein:
    def test_corpus_verdicts(self, corpus):
        for name, M in corpus.items():
            assert gorenstein_classify(M).verdict == EXPECTED_VERDICT[name], name

    def test_witness(self, corpus):
        v = gorenstein_classify(corpus["path_plus"])
        assert v.verdict == NOT_GORENSTEIN and v.witness == (0, 1, 2, 3)

    def test_empty_matroid_is_boolean(self):
        assert gorenstein_classify(from_matrix([])).verdict == BOOLEAN


class TestPalindrome:
    def test_hexagon_coefficients(self, hexagon):
        # g_1 = -q^4 g_2(1/q) with the pairing k <-> n-k
        num = series(hexagon).numerator
        assert num.coeff(1) == -num.coeff(2).bar().shift(4)
        assert num.coeff(0) == -num.coeff(3).bar().shift(4)
        assert palindrome_check(hexagon)

    def test_boolean2(self, corpus):
        num = series(corpus["boolean2"]).numerator
        assert num.coeff(0) == num.coeff(1).bar().shift(1)
        assert palindrome_check(corpus["boolean2"])

    def test_boolean3_middle(self, corpus):
        num = series(corpus["boolean3"]).numerator
        assert num.coeff(1) == LaurentQ({1: 2, 2: 2})
        assert num.coeff(1) == num.coeff(1).bar().shift(3)
        assert palindrome_check(corpus["boolean3"])

    def test_gorenstein_members(self, corpus):
        for name, M in corpus.items():
            if EXPECTED_VERDICT[name] != NOT_GORENSTEIN:
                assert palindrome_check(M), name

    def test_point_zonotope(self):
        # the 0-cube: numerator A_0 = 1 over 1 - t, palindromic in degree 0
        M = from_matrix([])
        assert series(M).numerator == PolyTQ.one()
        assert numerator_palindrome(PolyTQ.one(), 0, 0, boolean=True)
        assert palindrome_check(M)

    def test_precondition(self, corpus):
        with pytest.raises(ValueError):
            palindrome_check(corpus["u13"])

    def test_some_non_gorenstein_violates_both(self, corpus):
        hit = False
        for name, M in corpus.items():
            if EXPECTED_VERDICT[name] != NOT_GORENSTEIN:
                continue
            num = series(M).numerator
            if not numerator_palindrome(num, M.n, M.d, boolean=False) and \
               not numerator_palindrome(num, M.n, M.d, boolean=True):
                hit = True
        assert hit


class TestEulerMahonian:
    def test_small(self):
        assert euler_mahonian(0) == PolyTQ.one()
        assert euler_mahonian(1) == PolyTQ.one()
        assert euler_mahonian(2) == PolyTQ({0: LaurentQ.one(), 1: LaurentQ.q_power(1)})
        assert euler_mahonian(3) == PolyTQ({
            0: LaurentQ.one(),
            1: LaurentQ({1: 2, 2: 2}),
            2: LaurentQ({3: 1}),
        })

    def test_factorial_total(self):
        import math
        for n in range(7):
            total = sum(g.eval_at_one()
                        for g in euler_mahonian(n).coeffs.values())
            assert total == math.factorial(n)

    def test_factorial_guard_names_value(self):
        with pytest.raises(GuardExceeded, match=r"^n = 9 exceeds FACTORIAL_GUARD=8$"):
            euler_mahonian(9)

    @pytest.mark.parametrize("n", range(6))
    def test_equals_cube_numerator(self, n):
        cube = from_matrix([[1 if i == j else 0 for j in range(n)]
                            for i in range(n)])
        assert euler_mahonian(n) == series(cube).numerator


class TestInteriorTrichotomy:
    """Minimal nonzero interior coefficient: circuit components start at
    m=1 with a single point, Boolean at m=2 with a single point, and every
    other shape starts with more than one point."""

    def test_corpus(self, corpus):
        for name, M in corpus.items():
            coeffs = expand(interior_series(M), 4)
            m0 = next(m for m, c in enumerate(coeffs) if c)
            c = coeffs[m0].eval_at_one()
            verdict = EXPECTED_VERDICT[name]
            if verdict == CIRCUIT_COMPONENTS:
                assert (m0, c) == (1, 1), name
            elif verdict == BOOLEAN:
                assert (m0, c) == (2, 1), name
            else:
                assert c > 1, name
