"""zonoq benchmark: one command, two workloads, every result checked.

    python3 bench/run.py --workload report --seed 0 --seconds 60 --trace 0

Each workload is a closed loop: one client, one process, one thread, items
issued back to back.  A run repeats passes of the seeded batch, each in a
fresh process (``bench/worker.py``) and each with fresh presentations of the
same matrices drawn from the seed and the pass index, until ``--seconds``
would be exceeded (at least two passes), and reports medians over passes.
The outputs do not depend on the presentation, so every pass of every seed
must give the digest in ``expected.json``.

Every time is scaled to a reference host with the host-speed probe that a
pass times between its items (see ``probe.py``): an item's latency by
``probe.REF_S`` over the mean of the probes just before and just after it,
set-up by ``probe.REF_S`` over the first probe, and a pass's batch and layer
times by the ratio of its scaled to its measured item latencies.  The
host's speed swings then cancel; the unscaled figures are printed on the
human-readable lines.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates an
untraced and a traced pass and prints the per-layer metrics, summed over the
batch's items.  Human-readable lines come first; the last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics.

The program is imported from ``src/`` next to this directory; without it the
command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import probe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("report", "verify")
DEFAULT_SEED = 0
MIN_PASSES = 2        # untraced passes per run; trace runs make >= 1 pair
HARD_LIMIT_S = 150.0  # no pass starts that could end after this
TAIL_BEYOND = 10      # items beyond the tail percentile

# (name, unit, better, how it is obtained from a traced pass)
PER_LAYER = [
    ("matroid.from_matrix.self_ms", "ms", "lower", ("self", "matroid.from_matrix")),
    ("matroid.is_unimodular.self_ms", "ms", "lower", ("self", "matroid.is_unimodular")),
    ("matroid.tutte.self_ms", "ms", "lower", ("self", "matroid.tutte")),
    ("matroid.thicken.self_ms", "ms", "lower", ("self", "matroid.thicken")),
    ("matroid.tutte_thickened.self_ms", "ms", "lower", ("self", "matroid.tutte_thickened")),
    ("matroid.circuits", "count", "lower", ("count", "matroid.circuits")),
    ("matroid.cocircuits", "count", "lower", ("count", "matroid.cocircuits")),
    ("gehrhart.graded_count.self_ms", "ms", "lower", ("self", "gehrhart.graded_count")),
    ("gehrhart.ehr_tpower.self_ms", "ms", "lower", ("self", "gehrhart.ehr_tpower")),
    ("gehrhart.ehr_poly.self_ms", "ms", "lower", ("self", "gehrhart.ehr_poly")),
    ("gehrhart.series.self_ms", "ms", "lower", ("self", "gehrhart.series")),
    ("gehrhart.interior_series.self_ms", "ms", "lower", ("self", "gehrhart.interior_series")),
    ("gehrhart.reciprocity_check.self_ms", "ms", "lower", ("self", "gehrhart.reciprocity_check")),
    ("gehrhart.ehr_poly.calls", "count", "lower", ("calls", "gehrhart.ehr_poly")),
    ("exact.laurent_mul.self_ms", "ms", "lower", ("self", "exact.laurent_mul")),
    ("exact.laurent_mul.calls", "count", "lower", ("calls", "exact.laurent_mul")),
    ("exact.laurent_mul.term_pairs", "count", "lower", ("count", "exact.laurent_mul.term_pairs")),
    ("exact.polytq_mul.self_ms", "ms", "lower", ("self", "exact.polytq_mul")),
    ("exact.polytq_mul.calls", "count", "lower", ("calls", "exact.polytq_mul")),
    ("exact.expand.self_ms", "ms", "lower", ("self", "exact.expand")),
    ("zonalg.hilbert.total_ms", "ms", "lower", ("total", "zonalg.hilbert")),
    ("zonalg.hilbert.self_ms", "ms", "lower", ("self", "zonalg.hilbert")),
    ("zonalg.hilbert.calls", "count", "lower", ("calls", "zonalg.hilbert")),
    ("harmonic.degree1_dim.total_ms", "ms", "lower", ("total", "harmonic.degree1_dim")),
    ("harmonic.segre_generators.self_ms", "ms", "lower", ("self", "harmonic.segre_generators")),
    ("harmonic.linear_generators", "count", "lower", ("count", "harmonic.linear_generators")),
    ("linalg.echelon_rank.self_ms", "ms", "lower", ("self", "linalg.echelon_rank")),
    ("linalg.echelon_rank.calls", "count", "lower", ("calls", "linalg.echelon_rank")),
    ("linalg.echelon_rank.rows", "count", "lower", ("count", "linalg.echelon_rank.rows")),
    ("linalg.echelon_rank.rank", "count", "lower", ("count", "linalg.echelon_rank.rank")),
    ("linalg.echelon_rank.useful_ratio", "ratio", "higher",
     ("ratio", "linalg.echelon_rank.rank", "linalg.echelon_rank.rows")),
    ("zonotope.lattice_count.self_ms", "ms", "lower", ("self", "zonotope.lattice_count")),
    ("zonotope.h_rep.self_ms", "ms", "lower", ("self", "zonotope.h_rep")),
    ("zonotope.tutte_count.self_ms", "ms", "lower", ("self", "zonotope.tutte_count")),
    ("zonotope.box_points", "count", "lower", ("count", "zonotope.box_points")),
    ("zonotope.points", "count", "lower", ("count", "zonotope.points")),
    ("zonotope.hit_ratio", "ratio", "higher",
     ("ratio", "zonotope.points", "zonotope.box_points")),
    ("cli.load_matroid.total_ms", "ms", "lower", ("total", "cli.load_matroid")),
    ("cli.cmd_verify.self_ms", "ms", "lower", ("self", "cli.cmd_verify")),
    ("trace.wall_s", "s", "lower", ("wall",)),
    ("trace.self_sum_s", "s", "lower", ("self_sum",)),
    ("trace.overhead_ratio", "ratio", "lower", ("overhead",)),
]

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("item_p50_ms", "ms"),
              ("item_tail_ms", "ms"), ("peak_rss_mb", "MB")]


class BenchError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, pass_index: int, trace: int,
             timeout: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--pass", str(pass_index), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps
        raise BenchError(f"pass exceeded {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"pass exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def run_passes(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    """Untraced passes, or (untraced, traced) pairs on the same inputs, until
    the next one would end after ``seconds``."""
    kinds = (0, 1) if traced else (0,)
    minimum = 1 if traced else MIN_PASSES
    results: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    rounds = 0
    while True:
        elapsed = time.perf_counter() - start
        if rounds >= minimum and elapsed + longest > seconds:
            break
        if rounds and elapsed + longest > HARD_LIMIT_S:
            break
        t = time.perf_counter()
        for kind in kinds:
            res = run_pass(workload, seed, rounds, kind,
                           HARD_LIMIT_S + 20 - (time.perf_counter() - start))
            res["traced"] = kind
            results.append(res)
        longest = max(longest, time.perf_counter() - t)
        rounds += 1
    return results


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(n_items: int) -> int:
    """Highest whole percentile with at least TAIL_BEYOND items beyond it."""
    return math.floor(100 * (n_items - TAIL_BEYOND) / n_items)


def scaled_latencies(p: dict) -> list[float]:
    """A pass's item latencies on the reference host: each scaled by the
    probes timed just before and just after the item."""
    probes = p["probes_s"]
    return [t * probe.REF_S * 2 / (probes[k] + probes[k + 1])
            for k, t in enumerate(p["latencies_s"])]


def host_scale(p: dict) -> float:
    """Factor that turns a pass's measured batch and layer times into
    reference-host times."""
    return sum(scaled_latencies(p)) / sum(p["latencies_s"])


def end_to_end_values(passes: list[dict], scaled: bool) -> dict:
    med = statistics.median
    tp = tail_percentile(len(passes[0]["latencies_s"]))
    if scaled:
        lat = [scaled_latencies(p) for p in passes]
        setup = [p["setup_s"] * probe.REF_S / p["probes_s"][0] for p in passes]
        wall = [p["wall_s"] * host_scale(p) for p in passes]
    else:
        lat = [p["latencies_s"] for p in passes]
        setup = [p["setup_s"] for p in passes]
        wall = [p["wall_s"] for p in passes]
    return {
        "setup_s": med(setup),
        "wall_s": med(wall),
        "item_p50_ms": med(med(v) for v in lat) * 1000,
        "item_tail_ms": med(percentile(v, tp) for v in lat) * 1000,
        "peak_rss_mb": med(p["maxrss_kb"] for p in passes) / 1024,
    }


def end_to_end(passes: list[dict]) -> tuple[dict, list[str]]:
    metrics = end_to_end_values(passes, scaled=True)
    raw = end_to_end_values(passes, scaled=False)
    units = dict(END_TO_END)
    lines = [f"{k} {v:.6g} {units[k]}" for k, v in metrics.items()]
    lines.append("unscaled: " + ", ".join(
        f"{k} {raw[k]:.6g} {units[k]}" for k in metrics if units[k] in ("s", "ms")))
    n_items = len(passes[0]["latencies_s"])
    lines.append(f"item_tail_ms is p{tail_percentile(n_items)} of {n_items} items "
                 f"per pass; medians over {len(passes)} passes")
    attempted = sum(len(p["ok"]) for p in passes)
    failed = sum(p["ok"].count(False) for p in passes)
    lines.append(f"fail_ratio {failed / attempted:.6g} ({failed} of {attempted} items)")
    return metrics, lines


def layer_value(source: tuple, p: dict, untraced_wall: float) -> float:
    """A per-layer metric of traced pass ``p``; times are scaled to the
    reference host, and ``untraced_wall`` is a scaled time too."""
    kind = source[0]
    if kind in ("self", "total", "calls"):
        agg = p["layers"].get(source[1])
        if agg is None:
            return 0
        return agg[kind] * 1000 * host_scale(p) if kind != "calls" else agg[kind]
    if kind == "count":
        return p["counters"].get(source[1], 0)
    if kind == "ratio":
        den = p["counters"].get(source[2], 0)
        return p["counters"].get(source[1], 0) / den if den else 0.0
    if kind == "wall":
        return p["wall_s"] * host_scale(p)
    if kind == "self_sum":
        return sum(agg["self"] for agg in p["layers"].values()) * host_scale(p)
    if kind == "overhead":
        return p["wall_s"] * host_scale(p) / untraced_wall - 1
    raise ValueError(kind)


def per_layer(passes: list[dict]) -> tuple[dict, list[str], bool]:
    untraced = statistics.median(p["wall_s"] * host_scale(p)
                                 for p in passes if not p["traced"])
    traced = [p for p in passes if p["traced"]]
    metrics = {name: statistics.median(layer_value(src, p, untraced) for p in traced)
               for name, _, _, src in PER_LAYER}
    absent = sorted({a for p in traced for a in p["absent"]})
    lines = [f"{name} {metrics[name]:.6g} {unit}" for name, unit, _, _ in PER_LAYER]
    lines.append("absent: " + (", ".join(absent) if absent else "none"))
    sound = all(layer_value(("self_sum",), p, untraced) <= layer_value(("wall",), p, untraced)
                for p in traced)
    if not sound:
        lines.append("error: layer self times sum to more than the traced wall time")
    return metrics, lines, sound


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # turn SIGTERM into SystemExit, so that subprocess.run kills and reaps
    # the running pass before this process ends
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(SRC, "zonoq", "__init__.py")):
        print(f"error: no zonoq sources under {SRC}", file=sys.stderr)
        return 2
    # byte-compile once, so that no pass pays for it in its set-up time
    compileall.compile_dir(SRC, quiet=1)
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    lines = [f"workload {args.workload} seed {args.seed}: "
             f"{sum(not p['traced'] for p in passes)} untraced and "
             f"{sum(p['traced'] for p in passes)} traced passes, "
             f"{len(passes[0]['ok'])} items each, one fresh process per pass"]
    lines.append("host probe median " + ", ".join(
        f"{statistics.median(p['probes_s']) * 1000:.3f}" for p in passes)
        + f" ms per pass; times are scaled to a {probe.REF_S * 1000:g} ms probe")
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)[args.workload]
    digests = {p["digest"] for p in passes}
    correct = digests == {expected} and all(all(p["ok"]) for p in passes)
    lines.append(f"digest {', '.join(sorted(digests))}")
    if digests != {expected}:
        lines.append(f"error: digest differs from expected {expected}")
    for p in passes:
        lines.extend(f"item error: {e}" for e in p["errors"])

    if args.trace:
        metrics, more, sound = per_layer(passes)
        correct = correct and sound
        units = {name: unit for name, unit, _, _ in PER_LAYER}
    else:
        metrics, more = end_to_end(passes)
        units = dict(END_TO_END)
    lines.extend(more)
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(len(p["ok"]) for p in passes),
        "failed": sum(p["ok"].count(False) for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
