"""Command-line front end.

Reads a matrix description from a JSON file, runs one computation or the
full cross-oracle verification suite, and prints a JSON report on stdout
(sorted keys, deterministic).  Diagnostics go to stderr.  Exit codes:
0 success / all checks pass, 1 verification failure, 2 input error or
guard violation.

Input document:

    {"name": "hexagon", "d": 2, "n": 3, "matrix": [[1, 0, 1], [0, 1, 1]]}

``name`` (a string), ``d`` and ``n`` (integers) are optional; entries may be
integers or decimal strings (arbitrary precision).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

from . import gehrhart, harmonic, zonalg, zonotope
from .errors import GuardExceeded, NotUnimodular
from .exact import bipoly_to_json, expand, laurent_to_json, polytq_to_json
from .matroid import RealizedMatroid, from_matrix, tutte_thickened

ORACLE_GUARD = 12  # n*m cap for the zonotopal-algebra cross-check


class InputError(ValueError):
    pass


def load_matroid(path: str) -> tuple[RealizedMatroid, str]:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise InputError("input document must be an object with a 'matrix' key")
    raw = doc["matrix"]
    if not isinstance(raw, list) or any(not isinstance(r, list) for r in raw):
        raise InputError("'matrix' must be a list of rows")

    def to_int(v):
        if isinstance(v, int) and not isinstance(v, bool):
            return v
        if isinstance(v, str):
            return int(v)
        raise ValueError(f"{v!r} is not an integer or decimal string")

    try:
        entries = [[to_int(v) for v in row] for row in raw]
    except (TypeError, ValueError) as exc:
        raise InputError(f"matrix entries must be integers: {exc}") from exc
    d = len(entries)
    n = len(entries[0]) if entries else 0
    for key in ("d", "n"):
        if key in doc and (not isinstance(doc[key], int) or isinstance(doc[key], bool)):
            raise InputError(f"'{key}' must be an integer, got {doc[key]!r}")
    if "d" in doc and doc["d"] != d:
        raise InputError(f"declared d={doc['d']} but matrix has {d} rows")
    if "n" in doc and doc["n"] != n:
        raise InputError(f"declared n={doc['n']} but matrix has {n} columns")
    if "name" in doc and not isinstance(doc["name"], str):
        raise InputError(f"'name' must be a string, got {doc['name']!r}")
    try:
        M = from_matrix(entries)
    except (ValueError, GuardExceeded) as exc:
        raise InputError(str(exc)) from exc
    return M, doc.get("name") or path


def _emit(report: dict) -> None:
    print(json.dumps(report, sort_keys=True, indent=2))


def cmd_tutte(M: RealizedMatroid, name: str, args) -> int:
    _emit({"command": "tutte", "input": name,
           "tutte": bipoly_to_json(M.tutte())})
    return 0


def cmd_qcount(M: RealizedMatroid, name: str, args) -> int:
    gc = gehrhart.graded_count(M, args.m, interior=args.interior)
    _emit({"command": "qcount", "input": name, "m": args.m,
           "interior": args.interior, "qcount": laurent_to_json(gc.value)})
    return 0


def cmd_ehrpoly(M: RealizedMatroid, name: str, args) -> int:
    tp = gehrhart.ehr_tpower(M)
    P = gehrhart.ehr_poly(M)
    _emit({"command": "ehrpoly", "input": name,
           "tpower": polytq_to_json(tp),
           "qbinom_basis": [laurent_to_json(f) for f in P.basis_coeffs]})
    return 0


def cmd_series(M: RealizedMatroid, name: str, args) -> int:
    s = gehrhart.interior_series(M) if args.interior else gehrhart.series(M)
    _emit({"command": "series", "input": name, "interior": args.interior,
           "order": s.order, "numerator": polytq_to_json(s.numerator)})
    return 0


def cmd_presentation(M: RealizedMatroid, name: str, args) -> int:
    gens = harmonic.segre_generators(M)
    _emit({"command": "presentation", "input": name,
           "degree1_dim": harmonic.degree1_dim(M),
           "linear_generators": harmonic.presentation_lines(gens),
           "note": "the binomial relations z_S z_T - z_(S|T) z_(S&T) "
                   "for all subsets S, T are implied"})
    return 0


def cmd_gorenstein(M: RealizedMatroid, name: str, args) -> int:
    if not M.is_unimodular():
        raise InputError("matrix is not unimodular: the Gorenstein "
                         "classification does not apply")
    verdict = harmonic.gorenstein_classify(M)
    palindrome = None
    if verdict.verdict != harmonic.NOT_GORENSTEIN:
        palindrome = harmonic.palindrome_check(M)
    report = {"command": "gorenstein", "input": name,
              "verdict": verdict.verdict, "palindrome": palindrome}
    if verdict.witness is not None:
        report["witness"] = [j + 1 for j in verdict.witness]
    _emit(report)
    return 0


def cmd_verify(M: RealizedMatroid, name: str, args) -> int:
    if args.m_max < 1:
        raise InputError(f"--m-max must be at least 1, got {args.m_max}")
    if not M.is_unimodular():
        raise InputError("matrix is not unimodular: the graded Ehrhart "
                         "formulas do not apply")
    m_max = args.m_max

    checks: list[dict] = []
    witnesses: list[str] = []

    def record(check: str, detail: str, ok: bool | None, witness: str = ""):
        status = "skipped" if ok is None else ("pass" if ok else "fail")
        checks.append({"check": check, "detail": detail, "status": status})
        if ok is False:
            witnesses.append(f"{check} [{detail}]: {witness}")

    for m in range(1, m_max + 1):
        for interior in (False, True):
            tag = f"m={m}{' interior' if interior else ''}"
            try:
                count = zonotope.lattice_count(M, m, interior)
            except GuardExceeded:
                record("lattice-vs-tutte", tag, None)
                continue
            expected = zonotope.tutte_count(M, m, interior)
            graded_q1 = gehrhart.graded_count(M, m, interior).value.eval_at_one()
            ok = count == expected == graded_q1
            record("lattice-vs-tutte", tag, ok,
                   f"enumerated {count}, tutte {expected}, graded(q=1) {graded_q1}")

    for m in range(1, m_max + 1):
        tag = f"m={m}"
        if M.n * m > ORACLE_GUARD or M.d < 1:
            record("zonalg-vs-graded", tag, None)
            continue
        try:
            ext = zonalg.hilbert(zonalg.external_spec(M, m))
            intr = zonalg.hilbert(zonalg.internal_spec(M, m))
        except GuardExceeded:
            record("zonalg-vs-graded", tag, None)
            continue
        ok = (ext == gehrhart.graded_count(M, m, False).value
              and intr == gehrhart.graded_count(M, m, True).value)
        record("zonalg-vs-graded", tag, ok,
               f"external {ext!r}, internal {intr!r}")

    coeff = expand(gehrhart.series(M), m_max)
    coeff_int = expand(gehrhart.interior_series(M), m_max)
    ok = all(coeff[m] == gehrhart.graded_count(M, m, False).value
             for m in range(m_max + 1))
    ok = ok and all(coeff_int[m] == gehrhart.graded_count(M, m, True).value
                    for m in range(1, m_max + 1))
    ok = ok and not coeff_int[0]
    record("series-vs-counts", f"orders 0..{m_max}", ok,
           f"series {coeff!r} interior {coeff_int!r}")

    record("reciprocity", f"m_max={m_max}", gehrhart.reciprocity_check(M, m_max),
           "numerator or value identity failed")

    try:
        dim = harmonic.degree1_dim(M)
    except GuardExceeded:
        record("degree1-dim", "", None)
    else:
        t21 = M.tutte().eval_int(2, 1)
        record("degree1-dim", "", dim == t21, f"dim {dim} != T(2,1) {t21}")

    for m in range(1, m_max + 1):
        try:
            lhs = M.thicken(m).tutte()
        except GuardExceeded:
            record("thickening", f"m={m}", None)
            continue
        rhs = tutte_thickened(M.tutte(), M.d, m)
        record("thickening", f"m={m}", lhs == rhs, f"{lhs!r} != {rhs!r}")

    status = "fail" if witnesses else "pass"
    _emit({"command": "verify", "input": name, "m_max": m_max,
           "checks": checks, "status": status, "witnesses": witnesses})
    return 1 if witnesses else 0


@functools.cache  # built once per process: parsing leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zonoq",
        description="graded Ehrhart theory of unimodular zonotopes, exactly")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help="path to a JSON matrix description")
        p.set_defaults(handler=handler)
        return p

    add("tutte", cmd_tutte, "Tutte polynomial as [x_exp, y_exp, coeff] triples")
    p = add("qcount", cmd_qcount, "graded lattice-point count of a dilate")
    p.add_argument("--m", type=int, default=1, help="dilation factor (default 1)")
    p.add_argument("--interior", action="store_true",
                   help="count interior lattice points")
    add("ehrpoly", cmd_ehrpoly,
        "graded Ehrhart polynomial, t-power and q-binomial-basis forms")
    p = add("series", cmd_series, "graded Ehrhart series numerator")
    p.add_argument("--interior", action="store_true",
                   help="interior series instead")
    add("presentation", cmd_presentation,
        "linear generators of the harmonic-algebra ideal")
    add("gorenstein", cmd_gorenstein,
        "Gorenstein classification and palindromicity")
    p = add("verify", cmd_verify, "run the full cross-oracle suite")
    p.add_argument("--m-max", type=int, default=3, dest="m_max",
                   help="largest dilate to check (default 3)")
    return parser


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        M, name = load_matroid(args.input)
        return args.handler(M, name, args)
    except (InputError, NotUnimodular, GuardExceeded, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
