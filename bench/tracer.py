"""Outside-in tracer for zonoq.

The tracer never edits a file of the program.  It rebinds public functions
and methods from the benchmark's own code: for a module-level function, every
name in every loaded ``zonoq`` module that refers to it (so
``zonoq.cli.from_matrix`` as well as ``zonoq.matroid.from_matrix``); for a
method or operator, the class attribute, including aliases such as
``__rmul__ = __mul__``.

Each call becomes a span ``[name, start, end, parent, item, gen]`` kept in
memory.  ``gen`` is the time a wrapped row iterator spent producing rows
inside ``echelon_rank``: that code belongs to the caller, so it is charged to
the parent span's self time, not to the elimination kernel's.

A target that cannot be found (a later version renames a kernel) is recorded
as absent rather than failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
from time import perf_counter

# span record fields
NAME, START, END, PARENT, ITEM, GEN = range(6)


def _nterms(x) -> int:
    """Number of nonzero terms of a LaurentQ operand (an int counts as one)."""
    if isinstance(x, int):
        return 1
    terms = getattr(x, "terms", None)
    if isinstance(terms, dict):
        return len(terms)
    return len(x.to_pairs())


class _RowCounter:
    """Iterator wrapper counting the rows ``echelon_rank`` consumes and the
    time spent producing them."""

    def __init__(self, rows):
        self._it = iter(rows)
        self.n = 0
        self.gen = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        t = perf_counter()
        try:
            row = next(self._it)
        finally:
            self.gen += perf_counter() - t
        self.n += 1
        return row


# -- counting hooks: (tracer, args, kwargs, result) -> None --------------------

def _count_matroid(tr, args, kwargs, M):
    tr.count("matroid.circuits", len(M.circuits))
    tr.count("matroid.cocircuits", len(M.cocircuits))


def _count_linear(tr, args, kwargs, gens):
    tr.count("harmonic.linear_generators", len(gens.linear))


def _count_term_pairs(tr, args, kwargs, result):
    a, b = args[0], args[1]
    tr.count("exact.laurent_mul.term_pairs", _nterms(a) * _nterms(b))


def _count_lattice(tr, args, kwargs, result):
    M = args[0]
    m = args[1] if len(args) > 1 else kwargs["m"]
    if M.d == 0:
        return
    box = 1
    for row in M.realization.entries:
        box *= m * sum(abs(a) for a in row) + 1
    tr.count("zonotope.box_points", box)
    tr.count("zonotope.points", result[1] if isinstance(result, tuple) else result)


def _count_rank(tr, args, kwargs, rank):
    tr.count("linalg.echelon_rank.rank", rank)


# (span name, module, class or None, attribute, counting hook or None)
TARGETS = [
    ("matroid.from_matrix", "zonoq.matroid", None, "from_matrix", _count_matroid),
    ("matroid.is_unimodular", "zonoq.matroid", "RealizedMatroid", "is_unimodular", None),
    ("matroid.tutte", "zonoq.matroid", "RealizedMatroid", "tutte", None),
    ("matroid.thicken", "zonoq.matroid", "RealizedMatroid", "thicken", _count_matroid),
    ("matroid.tutte_thickened", "zonoq.matroid", None, "tutte_thickened", None),
    ("gehrhart.graded_count", "zonoq.gehrhart", None, "graded_count", None),
    ("gehrhart.ehr_tpower", "zonoq.gehrhart", None, "ehr_tpower", None),
    ("gehrhart.ehr_poly", "zonoq.gehrhart", None, "ehr_poly", None),
    ("gehrhart.series", "zonoq.gehrhart", None, "series", None),
    ("gehrhart.interior_series", "zonoq.gehrhart", None, "interior_series", None),
    ("gehrhart.reciprocity_check", "zonoq.gehrhart", None, "reciprocity_check", None),
    ("exact.laurent_mul", "zonoq.exact", "LaurentQ", "__mul__", _count_term_pairs),
    ("exact.polytq_mul", "zonoq.exact", "PolyTQ", "__mul__", None),
    ("exact.expand", "zonoq.exact", None, "expand", None),
    ("zonalg.hilbert", "zonoq.zonalg", None, "hilbert", None),
    ("harmonic.degree1_dim", "zonoq.harmonic", None, "degree1_dim", None),
    ("harmonic.segre_generators", "zonoq.harmonic", None, "segre_generators", _count_linear),
    ("linalg.echelon_rank", "zonoq.linalg", None, "echelon_rank", _count_rank),
    ("zonotope.lattice_count", "zonoq.zonotope", None, "lattice_count", _count_lattice),
    ("zonotope.h_rep", "zonoq.zonotope", None, "h_rep", None),
    ("zonotope.tutte_count", "zonoq.zonotope", None, "tutte_count", None),
    ("cli.load_matroid", "zonoq.cli", None, "load_matroid", None),
    ("cli.cmd_verify", "zonoq.cli", None, "cmd_verify", None),
]

ROWS_TARGET = "linalg.echelon_rank"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.absent: list[str] = []
        self.item = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        for name, module, cls, attr, hook in TARGETS:
            try:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, hook)
            if cls is not None:
                # the attribute and every alias of it, e.g. __rmul__ = __mul__
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._rebind(owner, key, wrapper)
            else:
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name != "zonoq" and not mod_name.startswith("zonoq."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def _rebind(self, owner, key: str, wrapper) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn, hook):
        spans = self.spans
        stack = self._stack
        counts_rows = name == ROWS_TARGET

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, 0.0]
            counter = None
            if counts_rows:
                if args:
                    counter = _RowCounter(args[0])
                    args = (counter,) + args[1:]
                else:
                    counter = kwargs["rows"] = _RowCounter(kwargs["rows"])
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if counter is not None:
                rec[GEN] = counter.gen
                self.count("linalg.echelon_rank.rows", counter.n)
            if hook is not None:
                try:
                    hook(self, args, kwargs, result)
                except Exception:  # a renamed field must not fail the item
                    self.absent.append(f"{name} (counter)")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reduction ------------------------------------------------------------

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds, over spans
        that belong to an item.  Self time is the span's duration minus its
        wrapped children's, minus the rows it consumed, plus the rows its
        children consumed (those were produced by this span's code)."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            p = rec[PARENT]
            if p >= 0:
                child[p] += (rec[END] - rec[START]) - rec[GEN]
        out: dict[str, dict[str, float]] = {}
        for i, rec in enumerate(self.spans):
            if rec[ITEM] is None:
                continue
            dur = rec[END] - rec[START]
            agg = out.setdefault(rec[NAME], {"calls": 0, "total": 0.0, "self": 0.0})
            agg["calls"] += 1
            agg["total"] += dur
            agg["self"] += dur - rec[GEN] - child[i]
        return out

    def write(self, path) -> None:
        """Write every span as one JSON array per line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec))
                fh.write("\n")
