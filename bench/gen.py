"""Seeded generator of totally unimodular input matrices.

Two families, both totally unimodular by construction:

* graphic: the reduced incidence matrix of a connected graph (one vertex row
  dropped, one column per edge, +1 at the tail and -1 at the head);
* cographic: ``[-D^T | I]``, where ``D`` is the fundamental-cycle matrix of a
  spanning tree (the graphic matroid is ``[I | D]`` in the tree basis, and
  ``[-D^T | I]`` realizes its dual).

A matrix is drawn with two generators: one picks the graph, the other its
presentation (vertex labels, column order and column signs), none of which
changes total unimodularity.  The same seed strings give byte-identical
matrices on every run and platform: only ``random.Random`` seeded by a string
is used.

Stdlib only; this module never imports ``zonoq``.
"""

from __future__ import annotations

import itertools
import random

Matrix = list[list[int]]

def _complete_edges(v: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(v), 2))


def incidence(vertices: int, edges: list[tuple[int, int]]) -> Matrix:
    """Reduced incidence matrix: rows for vertices 1..V-1, one column per
    edge (tail, head) with +1 at the tail and -1 at the head."""
    rows = [[0] * len(edges) for _ in range(vertices - 1)]
    for j, (tail, head) in enumerate(edges):
        if tail:
            rows[tail - 1][j] = 1
        if head:
            rows[head - 1][j] = -1
    return rows


def fixed_corpus() -> dict[str, Matrix]:
    """Fixed members of the ROADMAP corpus; ``cube6x12`` is [I_6 | I_6], the
    zonotope 2 * [0, 1]^6."""
    return {
        "hexagon": [[1, 0, 1], [0, 1, 1]],
        "K4": incidence(4, _complete_edges(4)),
        "K5": incidence(5, _complete_edges(5)),
        "K6": incidence(6, _complete_edges(6)),
        "cube6x12": [[int(i == j % 6) for j in range(12)] for i in range(6)],
        "boolean8": [[int(i == j) for j in range(8)] for i in range(8)],
    }


def random_connected_graph(rng: random.Random, vertices: int, edges: int
                           ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """A simple connected graph as (spanning-tree edges, other edges): a
    random recursive tree plus a uniform sample of the remaining pairs."""
    if not vertices - 1 <= edges <= vertices * (vertices - 1) // 2:
        raise ValueError(f"no simple connected graph with {vertices} vertices "
                         f"and {edges} edges")
    tree = [(i, rng.randrange(i)) for i in range(1, vertices)]
    used = {frozenset(e) for e in tree}
    free = [e for e in _complete_edges(vertices) if frozenset(e) not in used]
    return tree, rng.sample(free, edges - (vertices - 1))


def _shuffle_columns(rng: random.Random, rows: Matrix) -> Matrix:
    n = len(rows[0])
    order = list(range(n))
    rng.shuffle(order)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[k] * r[order[k]] for k in range(n)] for r in rows]


def _tree_path(tree: list[tuple[int, int]], start: int, goal: int
               ) -> list[tuple[int, int]]:
    """(tree edge index, +1 or -1) along the tree path start -> goal; the sign
    is +1 where the edge is traversed from its tail to its head."""
    adj: dict[int, list[tuple[int, int, int]]] = {}
    for k, (a, b) in enumerate(tree):
        adj.setdefault(a, []).append((b, k, 1))
        adj.setdefault(b, []).append((a, k, -1))
    back = {start: None}
    stack = [start]
    while stack:
        u = stack.pop()
        for w, k, s in adj.get(u, ()):
            if w not in back:
                back[w] = (u, k, s)
                stack.append(w)
    path = []
    u = goal
    while back[u] is not None:
        prev, k, s = back[u]
        path.append((k, s))
        u = prev
    return path


def cocycle_rows(tree: list[tuple[int, int]], extra: list[tuple[int, int]]) -> Matrix:
    """[-D^T | I]: one row per non-tree edge; columns are the tree edges, then
    the non-tree edges."""
    # column of edge f in the tree basis: e_tail - e_head is the sum of the
    # tree edges along the path tail -> head, signed by orientation
    D = [[0] * len(extra) for _ in tree]
    for j, (tail, head) in enumerate(extra):
        for k, s in _tree_path(tree, tail, head):
            D[k][j] = s
    return [[-D[k][j] for k in range(len(tree))] + [int(i == j) for i in range(len(extra))]
            for j in range(len(extra))]


def make(family: str, graph_rng: random.Random, label_rng: random.Random,
         d: int, n: int) -> Matrix:
    """A d x n matrix of the family; the graph comes from ``graph_rng`` and
    its presentation from ``label_rng``.

    graphic: the reduced incidence matrix of a graph with d + 1 vertices and
    n edges.  cographic: [-D^T | I] for a graph with n - d + 1 vertices and n
    edges, whose cycle space has dimension d.
    """
    if family == "graphic":
        vertices = d + 1
    elif family == "cographic":
        vertices = n - d + 1
    else:
        raise ValueError(f"unknown matrix family {family!r}")
    tree, extra = random_connected_graph(graph_rng, vertices, n)
    label = list(range(vertices))
    label_rng.shuffle(label)
    tree = [(label[a], label[b]) for a, b in tree]
    extra = [(label[a], label[b]) for a, b in extra]
    if family == "graphic":
        rows = incidence(vertices, tree + extra)
    else:
        rows = cocycle_rows(tree, extra)
    return _shuffle_columns(label_rng, rows)
