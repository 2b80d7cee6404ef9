"""The benchmark's workloads: seeded item lists, the timed call sequence of
one item, and the untimed checks and serialisation of its outputs.

Only the public API of ``zonoq`` is used, always looked up at call time as an
attribute of the package or of ``zonoq.cli``, so that the tracer's rebinding
is seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import gen

M_MAX = 3

# (family, d, n) of the generated items of each workload.  Item costs spread
# over two orders of magnitude, so each list puts several items of one cost
# class in the middle of the batch: the median item latency then comes from
# a cluster of like items, not from whichever item lands in a gap.
# report: the closed-formula path, d 3-7 and n 6-12.
_REPORT_SHAPES = [
    ("graphic", 3, 6), ("cographic", 3, 6), ("cographic", 3, 7),
    ("graphic", 4, 7), ("graphic", 4, 8),
    ("graphic", 5, 10), ("cographic", 5, 10), ("graphic", 5, 10),
    ("cographic", 5, 10), ("graphic", 5, 10), ("cographic", 5, 10),
    ("graphic", 5, 10), ("cographic", 5, 10),
    ("graphic", 5, 12), ("cographic", 5, 12), ("graphic", 6, 12),
    ("cographic", 7, 12),
]
# verify: tall items (d 3-4, n 5-7), where form-power rows of the zonotopal
# elimination dominate, and wide items (d 2-3, n 8-10), where the 2^n-column
# rows of degree1_dim dominate.  d = 4, n = 6 is left out: one such item
# takes several seconds, more than a third of the batch.
_VERIFY_SHAPES = [
    ("graphic", 3, 5), ("graphic", 3, 5), ("graphic", 3, 6), ("graphic", 3, 6),
    ("cographic", 3, 6), ("cographic", 3, 6), ("cographic", 3, 7),
    ("cographic", 3, 7), ("graphic", 4, 5), ("graphic", 4, 7), ("graphic", 4, 7),
    ("cographic", 2, 8), ("cographic", 2, 8), ("cographic", 2, 9),
    ("cographic", 2, 9), ("cographic", 2, 10), ("cographic", 3, 8),
    ("cographic", 3, 8), ("cographic", 3, 9), ("cographic", 3, 9),
    ("cographic", 3, 10),
]

WORKLOADS = {
    "report": (("hexagon", "K4", "K5", "K6", "cube6x12", "boolean8"), _REPORT_SHAPES),
    "verify": (("hexagon", "K4"), _VERIFY_SHAPES),
}


def items(workload: str, seed: int, pass_index: int = 0
          ) -> list[tuple[str, list[list[int]]]]:
    """(label, matrix) pairs; the same workload, seed and pass index give
    the same list.

    The graph of each generated item is fixed by the workload and the item's
    position; the seed and the pass index draw its presentation (vertex
    labels, column order and signs).  The outputs do not depend on the
    presentation, but the cost of an item can: the elimination work of a
    d = 4, n = 5 graphic item varies over 5x between presentations.  A run
    therefore draws fresh presentations for every pass, so that its medians
    average over presentations instead of resting on one draw.
    """
    fixed, shapes = WORKLOADS[workload]
    corpus = gen.fixed_corpus()
    out = [(name, corpus[name]) for name in fixed]
    label_rng = random.Random(f"{workload}:{seed}:{pass_index}")
    for k, (family, d, n) in enumerate(shapes):
        graph_rng = random.Random(f"{workload}:graph:{k}")
        out.append((f"{family}-{d}x{n}-{k}",
                    gen.make(family, graph_rng, label_rng, d, n)))
    return out


# -- report -------------------------------------------------------------


def formula_item(zq, matrix):
    """The closed-formula path behind ``zonoq tutte/qcount/ehrpoly/series``."""
    M = zq.from_matrix(matrix)
    unimodular = M.is_unimodular()
    T = M.tutte()
    counts = [zq.graded_count(M, m, interior).value
              for m in range(1, M_MAX + 1) for interior in (False, True)]
    tpower = zq.ehr_tpower(M)
    P = zq.ehr_poly(M)
    S = zq.series(M)
    S_int = zq.interior_series(M)
    recip = zq.reciprocity_check(M, M_MAX)
    return M, unimodular, T, counts, tpower, P, S, S_int, recip


def check_formula(zq, out) -> tuple[bool, object]:
    """(ok, serialised outputs).  Checks the graded count at q = 1 against
    Stanley's count, the series expansion against the graded counts, and
    reciprocity."""
    M, unimodular, T, counts, tpower, P, S, S_int, recip = out
    closed = {m: counts[2 * (m - 1)] for m in range(1, M_MAX + 1)}
    interior = {m: counts[2 * (m - 1) + 1] for m in range(1, M_MAX + 1)}
    ok = unimodular is True and recip is True
    for m in range(1, M_MAX + 1):
        ok = ok and closed[m].eval_at_one() == zq.tutte_count(M, m)
        ok = ok and interior[m].eval_at_one() == zq.tutte_count(M, m, True)
    coeff = zq.expand(S, M_MAX)
    coeff_int = zq.expand(S_int, M_MAX)
    ok = ok and coeff[0] == zq.LaurentQ.one() and not coeff_int[0]
    ok = ok and all(coeff[m] == closed[m] and coeff_int[m] == interior[m]
                    for m in range(1, M_MAX + 1))
    serial = {
        "tutte": T.to_triples(),
        "counts": [c.to_pairs() for c in counts],
        "tpower": tpower.to_triples(),
        "qbinom_basis": [f.to_pairs() for f in P.basis_coeffs],
        "series": [S.order, S.numerator.to_triples()],
        "interior_series": [S_int.order, S_int.numerator.to_triples()],
        "reciprocity": recip,
    }
    return ok, serial


# -- verify -------------------------------------------------------------------


def verify_item(zq, path):
    """``zonoq verify <path> --m-max 3`` in-process, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = zq.cli.run(["verify", path, "--m-max", str(M_MAX)])
    return code, buf.getvalue()


def check_verify(zq, out) -> tuple[bool, object]:
    code, text = out
    try:
        status = json.loads(text).get("status")
    except ValueError:
        status = None
    return code == 0 and status == "pass", text


def prepare(workload: str, seed: int, pass_index: int, workdir: str):
    """(labels, item function, check function, per-item arguments).  For
    ``verify`` the matrices are written as CLI input documents."""
    pairs = items(workload, seed, pass_index)
    labels = [label for label, _ in pairs]
    if workload != "verify":
        return labels, formula_item, check_formula, [m for _, m in pairs]
    paths = []
    for k, (label, matrix) in enumerate(pairs):
        path = os.path.join(workdir, f"{k:03d}-{label}.json")
        with open(path, "w") as fh:
            json.dump({"name": label, "matrix": matrix}, fh)
        paths.append(path)
    return labels, verify_item, check_verify, paths
