"""Acceptance suite.

One test per criterion; every comparison is an exact integer or
Laurent-polynomial equality (tolerance zero).  Each test prints a single
``[acceptance] criterion N ...: PASS/FAIL`` line (visible with ``pytest -s``
or in the failure report).
"""

import random

import pytest

from conftest import CORPUS_MATRICES, EXPECTED_VERDICT, euler_mahonian, qbinom, unimodular_suite
from zonoq import (
    QIVP,
    bar_eval,
    degree1_dim,
    ehr_poly,
    ehr_tpower,
    expand,
    external_spec,
    from_matrix,
    gorenstein_classify,
    graded_count,
    graded_hilbert,
    hilbert,
    interior_series,
    internal_spec,
    lattice_count,
    palindrome_check,
    qivp_bar_series,
    qivp_series,
    reciprocity_check,
    series,
    tutte_count,
    tutte_thickened,
)
from zonoq.cli import ORACLE_GUARD
from zonoq.exact import BiPolyXY, LaurentQ, PolyTQ
from zonoq.harmonic import BOOLEAN, CIRCUIT_COMPONENTS, NOT_GORENSTEIN, numerator_palindrome


def check(label: str, failures: list):
    status = "PASS" if not failures else f"FAIL ({len(failures)}: {failures[:3]})"
    print(f"[acceptance] {label}: {status}")
    assert not failures, f"{label}: {failures}"


@pytest.fixture(scope="module")
def corpus():
    return {name: from_matrix(mat) for name, mat in CORPUS_MATRICES.items()}


def test_criterion_1_hexagon_golden_run():
    failures = []
    M = from_matrix([[1, 0, 1], [0, 1, 1]])

    if M.tutte() != BiPolyXY({(2, 0): 1, (1, 0): 1, (0, 1): 1}):
        failures.append("tutte")
    if graded_count(M, 1).value != LaurentQ({0: 1, 1: 2, 2: 3, 3: 1}):
        failures.append("i(1;q)")
    if graded_count(M, 1, interior=True).value != LaurentQ.one():
        failures.append("interior i(1;q)")

    expected_tpower = PolyTQ({3: LaurentQ({3: 1, 1: -1}), 2: LaurentQ({2: 3}),
                              1: LaurentQ({1: 3}), 0: LaurentQ.one()})
    if ehr_tpower(M) != expected_tpower:
        failures.append("ehr t-power form")
    P = ehr_poly(M)
    expected_basis = (
        LaurentQ.one(),
        LaurentQ({3: 1, 2: 3, 1: 2}),
        LaurentQ({6: 1, 5: 3, 4: 4, 2: -2}),
        LaurentQ({9: 1, 8: 2, 7: 1, 6: -1, 5: -2, 4: -1}),
    )
    if P.basis_coeffs != expected_basis:
        failures.append("q-binomial coefficients")

    N = PolyTQ({0: LaurentQ.one(), 1: LaurentQ({1: 1, 2: 2}),
                2: LaurentQ({2: -2, 3: -1}), 3: LaurentQ({4: -1})})
    s = series(M)
    if not (s.order == 3 and s.numerator == N):
        failures.append("series numerator")
    if interior_series(M).numerator != PolyTQ({1: 1}) * N:
        failures.append("interior numerator t*N")
    if not reciprocity_check(M, 3):
        failures.append("reciprocity q^2 E~ = -E(1/t,1/q)")
    if degree1_dim(M) != 7:
        failures.append("degree-1 dimension")
    verdict = gorenstein_classify(M)
    if verdict.verdict != CIRCUIT_COMPONENTS:
        failures.append("gorenstein verdict")
    if not palindrome_check(M):
        failures.append("palindrome")
    check("criterion 1 (hexagon golden run)", failures)


def test_criterion_2_stanley_count_oracle(corpus):
    failures = []
    assert len(corpus) >= 10
    for name, M in corpus.items():
        for m in (1, 2, 3):
            for interior in (False, True):
                if lattice_count(M, m, interior) != tutte_count(M, m, interior):
                    failures.append((name, m, interior))
    check("criterion 2 (Stanley count oracle, m<=3)", failures)


def test_criterion_3_zonotopal_oracle(corpus):
    failures = []
    for name, M in corpus.items():
        if M.d < 1:
            continue
        for m in (1, 2, 3):
            if M.n * m > ORACLE_GUARD:
                continue
            thick = M.thicken(m)
            if hilbert(external_spec(thick)) != graded_count(M, m).value:
                failures.append((name, m, "external"))
            if hilbert(internal_spec(thick)) != \
                    graded_count(M, m, interior=True).value:
                failures.append((name, m, "internal"))
    check("criterion 3 (zonotopal/orbit-harmonics oracle)", failures)


def test_criterion_4_thickening_formula(corpus):
    failures = []
    for name, M in corpus.items():
        for m in (1, 2, 3):
            if M.n * m > 16:
                continue
            if M.thicken(m).tutte() != tutte_thickened(M.tutte(), M.d, m):
                failures.append((name, m))
    check("criterion 4 (thickening formula, m<=3)", failures)


def test_criterion_5_series_consistency(corpus):
    failures = []
    for name, M in corpus.items():
        coeffs = expand(series(M), 4)
        for m in range(5):
            if coeffs[m] != graded_count(M, m).value:
                failures.append((name, m, "series"))
        interior = expand(interior_series(M), 4)
        if interior[0]:
            failures.append((name, 0, "interior nonzero at 0"))
        for m in range(1, 5):
            if interior[m] != graded_count(M, m, interior=True).value:
                failures.append((name, m, "interior"))
        # numerator reciprocity identity, exactly
        n, d = M.n, M.d
        flipped = series(M).numerator.t_reverse_bar(n + 1)
        sign = -1 if (n + d) % 2 else 1
        expected = PolyTQ({k: g.shift(n * (n + 1) // 2 - d) * sign
                           for k, g in flipped.coeffs.items()})
        if interior_series(M).numerator != expected:
            failures.append((name, "numerator reciprocity"))
    check("criterion 5 (series consistency + reciprocity)", failures)


def test_criterion_6_quantum_reciprocity_random_qivps():
    failures = []
    rng = random.Random(2024)

    def rand_laurent():
        return LaurentQ({rng.randint(-3, 4): rng.randint(-5, 5)
                         for _ in range(rng.randint(0, 4))})

    for trial in range(20):
        deg = rng.randint(0, 4)
        P = QIVP(tuple(rand_laurent() for _ in range(deg + 1)), deg)
        N = qivp_series(P).numerator
        Nbar = qivp_bar_series(P).numerator
        sign = -1 if deg % 2 else 1
        expected = PolyTQ({k: g.shift(deg * (deg + 1) // 2) * sign
                           for k, g in N.t_reverse_bar(deg + 1).coeffs.items()})
        if Nbar != expected:
            failures.append(trial)
        # spot-check the expansions against direct (bar) evaluation
        vals = expand(qivp_series(P), 3)
        bar_vals = expand(qivp_bar_series(P), 3)
        for m in range(1, 4):
            if bar_vals[m] != bar_eval(P, m):
                failures.append((trial, m))
        if vals[2] != sum((f * qbinom(2, k) for k, f in enumerate(P.basis_coeffs)),
                          LaurentQ.zero()):
            failures.append((trial, "eval"))
    check("criterion 6 (quantum reciprocity on 20 random QIVPs)", failures)


def test_criterion_7_presentation_theorems(corpus):
    failures = []
    for name, M in corpus.items():
        if degree1_dim(M) != M.tutte().eval_int(2, 1):
            failures.append((name, "degree-1"))
        if M.n <= 4:
            for m in (1, 2):
                if graded_hilbert(M, m) != graded_count(M, m).value:
                    failures.append((name, m, "graded hilbert"))
    check("criterion 7 (presentation theorems)", failures)


def test_criterion_8_gorenstein_suite(corpus):
    failures = []
    for name, M in corpus.items():
        verdict = gorenstein_classify(M)
        if verdict.verdict != EXPECTED_VERDICT[name]:
            failures.append((name, "verdict"))
        if verdict.verdict != NOT_GORENSTEIN and not palindrome_check(M):
            failures.append((name, "palindrome"))

    # the converse: the numerator form matching the verdict holds and the
    # other fails; a non-Gorenstein numerator breaks both
    forms = {BOOLEAN: (True, False), CIRCUIT_COMPONENTS: (False, True),
             NOT_GORENSTEIN: (False, False)}
    verdicts = set()
    for M in unimodular_suite():
        verdict = gorenstein_classify(M).verdict
        verdicts.add(verdict)
        num = series(M).numerator
        got = (numerator_palindrome(num, M.n, M.d, boolean=True),
               numerator_palindrome(num, M.n, M.d, boolean=False))
        if got != forms[verdict]:
            failures.append((M.realization, verdict, got))
    if verdicts != set(forms):
        failures.append(("verdicts seen", verdicts))

    # interior minimal-degree trichotomy
    for name, M in corpus.items():
        coeffs = expand(interior_series(M), 4)
        m0 = next(m for m, c in enumerate(coeffs) if c)
        c = coeffs[m0].eval_at_one()
        verdict = EXPECTED_VERDICT[name]
        if verdict == CIRCUIT_COMPONENTS and (m0, c) != (1, 1):
            failures.append((name, "trichotomy circuit"))
        elif verdict == BOOLEAN and (m0, c) != (2, 1):
            failures.append((name, "trichotomy boolean"))
        elif verdict == NOT_GORENSTEIN and c <= 1:
            failures.append((name, "trichotomy other"))

    for n in range(6):
        cube = from_matrix([[1 if i == j else 0 for j in range(n)]
                            for i in range(n)])
        if euler_mahonian(n) != series(cube).numerator:
            failures.append((n, "euler-mahonian"))
    check("criterion 8 (Gorenstein suite)", failures)
