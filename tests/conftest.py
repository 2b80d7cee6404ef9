"""Shared corpus of unimodular test matrices (and one non-unimodular), and
the Fraction references that the integer kernels are tested against."""

from fractions import Fraction

import pytest

from zonoq import from_matrix

# name -> matrix.  Covers Boolean ranks 1-3, uniform U_{1,2} / U_{2,3},
# a graphic K_3 with a doubled edge, a matroid with a loop, direct sums of
# circuits, and several non-Gorenstein shapes.  All unimodular, n <= 6, d <= 3.
CORPUS_MATRICES = {
    "boolean1": [[1]],
    "boolean2": [[1, 0], [0, 1]],
    "boolean3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "u12": [[1, 1]],
    "hexagon": [[1, 0, 1], [0, 1, 1]],
    "k3_doubled": [[1, 1, 0, 1], [-1, 0, 1, -1]],
    "loop_parallel": [[1, 0, 1]],
    "two_circuits": [[1, 1, 0, 0, 0], [0, 0, 1, 0, 1], [0, 0, 0, 1, 1]],
    "coloop_digon": [[1, 1, 0], [0, 0, 1]],
    "u13": [[1, 1, 1]],
    "path_plus": [[1, 0, 1, 1], [0, 1, 1, 0]],
    "two_digons": [[1, 1, 0, 0], [0, 0, 1, 1]],
}

# the non-unimodular diamond (det 2); negative example only
DIAMOND = [[1, 1], [-1, 1]]


def graphic(vertices, edges):
    """Directed incidence matrix with the last vertex's row deleted
    (connected graph: full row rank, totally unimodular)."""
    return [[(1 if u == v else -1 if w == v else 0) for u, w in edges]
            for v in range(vertices - 1)]


def fraction_rref(rows, ncols):
    """(pivot columns, reduced row echelon form over Fractions), the
    rational reference for the integer kernels."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for col in range(ncols):
        piv = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if piv is None:
            continue
        r = len(pivots)
        m[r], m[piv] = m[piv], m[r]
        m[r] = [x / m[r][col] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                m[i] = [a - m[i][col] * b for a, b in zip(m[i], m[r])]
        pivots.append(col)
    return pivots, m


def fraction_kernel(rows, ncols):
    """Basis of the right kernel of a rational matrix, by reduced row
    echelon form over Fractions."""
    pivots, m = fraction_rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][free]
        basis.append(vec)
    return basis


EXPECTED_VERDICT = {
    "boolean1": "boolean",
    "boolean2": "boolean",
    "boolean3": "boolean",
    "u12": "circuit-components",
    "hexagon": "circuit-components",
    "k3_doubled": "not-gorenstein",
    "loop_parallel": "circuit-components",
    "two_circuits": "circuit-components",
    "coloop_digon": "not-gorenstein",
    "u13": "not-gorenstein",
    "path_plus": "not-gorenstein",
    "two_digons": "circuit-components",
}


@pytest.fixture(scope="session")
def corpus():
    return {name: from_matrix(mat) for name, mat in CORPUS_MATRICES.items()}


@pytest.fixture(scope="session")
def hexagon(corpus):
    return corpus["hexagon"]
