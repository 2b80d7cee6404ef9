"""Tests of the benchmark's own code.

    python3 -m pytest bench/test_bench.py

The generator tests check total unimodularity by brute force with their own
determinant, independently of zonoq.
"""

import itertools
import json
import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gen  # noqa: E402
import workloads  # noqa: E402


def det(rows):
    """Bareiss determinant of a square integer matrix."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def maximal_minors(A):
    d, n = len(A), len(A[0])
    for cols in itertools.combinations(range(n), d):
        yield det([[A[i][j] for j in cols] for i in range(d)])


def assert_unimodular(A):
    minors = set(maximal_minors(A))
    assert minors <= {-1, 0, 1}
    assert minors & {-1, 1}, "rank deficient"


SMALL_SHAPES = [("graphic", 2, 3), ("graphic", 3, 5), ("graphic", 3, 6),
                ("graphic", 4, 8), ("cographic", 2, 5), ("cographic", 3, 6),
                ("cographic", 3, 8), ("cographic", 4, 9)]


@pytest.mark.parametrize("family,d,n", SMALL_SHAPES)
def test_generated_matrices_are_unimodular(family, d, n):
    rng = random.Random(f"test:{family}:{d}:{n}")
    for _ in range(10):
        A = gen.make(family, rng, rng, d, n)
        assert len(A) == d and all(len(r) == n for r in A)
        assert_unimodular(A)


def test_det_agrees_with_known_values():
    assert det([[1, 1], [-1, 1]]) == 2
    assert det([[0, 1], [1, 0]]) == -1
    assert det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24


@pytest.mark.parametrize("name", ["hexagon", "K4", "K5", "cube6x12", "boolean8"])
def test_fixed_corpus_is_unimodular(name):
    assert_unimodular(gen.fixed_corpus()[name])


def test_fixed_corpus_shapes():
    shapes = {k: (len(A), len(A[0])) for k, A in gen.fixed_corpus().items()}
    assert shapes == {"hexagon": (2, 3), "K4": (3, 6), "K5": (4, 10),
                      "K6": (5, 15), "cube6x12": (6, 12), "boolean8": (8, 8)}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_bytes(workload):
    first = json.dumps(workloads.items(workload, 3, 1)).encode()
    again = json.dumps(workloads.items(workload, 3, 1)).encode()
    assert first == again
    assert first != json.dumps(workloads.items(workload, 4, 1)).encode()
    assert first != json.dumps(workloads.items(workload, 3, 2)).encode()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_passes_present_the_same_matrices(workload):
    a = workloads.items(workload, 3, 0)
    b = workloads.items(workload, 3, 1)
    assert [label for label, _ in a] == [label for label, _ in b]
    for (_, A), (_, B) in zip(a, b):
        assert (len(A), len(A[0])) == (len(B), len(B[0]))
        # a presentation keeps the matroid, so its number of bases (nonzero
        # maximal minors) too
        assert (sum(1 for v in maximal_minors(A) if v)
                == sum(1 for v in maximal_minors(B) if v))


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_items_are_distinct_and_enough_for_a_tail(workload):
    mats = [json.dumps(m) for _, m in workloads.items(workload, 0)]
    assert len(set(mats)) == len(mats)
    # item_tail_ms needs at least 10 items beyond a percentile above p50
    assert len(mats) >= 20


# -- tracer -------------------------------------------------------------------


def test_tracer_rebinds_every_lookup_and_restores():
    import zonoq
    import zonoq.cli
    import tracer as tracer_mod

    original = zonoq.matroid.from_matrix
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        assert zonoq.cli.from_matrix is zonoq.matroid.from_matrix
        assert zonoq.from_matrix is not original
        assert zonoq.exact.LaurentQ.__rmul__ is zonoq.exact.LaurentQ.__mul__
        tr.item = 0
        M = zonoq.cli.from_matrix([[1, 0, 1], [0, 1, 1]])
        zonoq.series(M)
        2 * zonoq.LaurentQ.q_int(2)
        tr.item = None
    finally:
        tr.uninstall()
    assert zonoq.from_matrix is original and zonoq.cli.from_matrix is original
    assert tr.absent == []
    layers = tr.layer_times()
    assert layers["matroid.from_matrix"]["calls"] == 1
    assert layers["gehrhart.ehr_poly"]["calls"] == 1
    assert tr.counters["matroid.circuits"] == 1
    assert tr.counters["exact.laurent_mul.term_pairs"] > 0
    for agg in layers.values():
        assert 0 <= agg["self"] <= agg["total"] + 1e-9
    roots = sum(r[tracer_mod.END] - r[tracer_mod.START]
                for r in tr.spans if r[tracer_mod.PARENT] < 0)
    assert sum(a["self"] for a in layers.values()) == pytest.approx(roots)


def test_tracer_counts_rows_and_marks_missing_targets(monkeypatch):
    import zonoq
    import tracer as tracer_mod

    targets = tracer_mod.TARGETS + [
        ("linalg.renamed_kernel", "zonoq.linalg", None, "no_such_kernel", None)]
    monkeypatch.setattr(tracer_mod, "TARGETS", targets)
    tr = tracer_mod.Tracer()
    tr.install()
    try:
        tr.item = 0
        dim = zonoq.degree1_dim(zonoq.from_matrix([[1, 0, 1], [0, 1, 1]]))
        tr.item = None
    finally:
        tr.uninstall()
    assert dim == 7  # T(2, 1) of the hexagon, x^2 + x + y
    assert tr.absent == ["linalg.renamed_kernel"]
    assert tr.counters["linalg.echelon_rank.rows"] == tr.counters[
        "harmonic.linear_generators"]
    assert tr.counters["linalg.echelon_rank.rank"] == 8 - dim


def test_host_scale_cancels_a_slowdown():
    import probe
    import run

    assert probe.probe() > 0
    ref = probe.REF_S
    # the host runs at full speed for the first item and at 2/3 speed for
    # the second; the probes around each item show it
    p = {"latencies_s": [0.2, 0.3], "probes_s": [ref, ref, 1.5 * ref],
         "setup_s": 0.1, "wall_s": 0.5, "maxrss_kb": 1024}
    assert run.scaled_latencies(p) == pytest.approx([0.2, 0.3 / 1.25])
    assert run.host_scale(p) == pytest.approx((0.2 + 0.24) / 0.5)
    values = run.end_to_end_values([p], scaled=True)
    assert values["setup_s"] == pytest.approx(0.1)
    assert values["wall_s"] == pytest.approx(0.44)


def test_benchmark_json_matches_run():
    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
