"""One pass of a workload in a fresh process.

A pass imports zonoq from ``src/`` (set-up also covers input generation),
runs every item of the batch back to back with the checks left out of the
timed region, times the host-speed probe (``probe.py``) before every item
and after the last one, then checks and serialises the outputs and prints
one JSON object on stdout.  A fresh process per pass means every pass pays the cold
caches a command-line user pays.

    python3 bench/worker.py --workload report --seed 0 --pass 0 --trace 0
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def import_zonoq():
    sys.path.insert(0, SRC)
    import zonoq
    import zonoq.cli  # noqa: F401  (the verify workload calls zonoq.cli.run)
    origin = os.path.dirname(os.path.abspath(zonoq.__file__))
    if origin != os.path.join(SRC, "zonoq"):
        raise ImportError(f"zonoq was imported from {origin}, not from {SRC}")
    return zonoq


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    import probe
    import workloads

    zq = import_zonoq()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        labels, item_fn, check_fn, inputs = workloads.prepare(
            args.workload, args.seed, args.pass_index, workdir)
        tracer = None
        if args.trace:
            import tracer as tracer_mod
            tracer = tracer_mod.Tracer()
            tracer.install()
        setup_s = perf_counter() - T0

        outputs, latencies, errors, probes = [], [], [], []
        start = perf_counter()
        for k, arg in enumerate(inputs):
            probes.append(probe.probe())
            if tracer is not None:
                tracer.item = k
            t = perf_counter()
            try:
                outputs.append(item_fn(zq, arg))
            except Exception as exc:  # one failed item must not stop the batch
                outputs.append(None)
                errors.append(f"{labels[k]}: {type(exc).__name__}: {exc}")
            latencies.append(perf_counter() - t)
            if tracer is not None:
                tracer.item = None
        probes.append(probe.probe())
        wall_s = perf_counter() - start - sum(probes)
        if tracer is not None:
            tracer.uninstall()

        ok_flags, serial = [], []
        for k, out in enumerate(outputs):
            ok, ser = False, None
            if out is not None:
                try:
                    ok, ser = check_fn(zq, out)
                except Exception as exc:
                    errors.append(f"{labels[k]}: check raised "
                                  f"{type(exc).__name__}: {exc}")
                if not ok:
                    errors.append(f"{labels[k]}: check failed")
            ok_flags.append(ok)
            serial.append([labels[k], ser])
        digest = hashlib.sha256(
            json.dumps(serial, sort_keys=True).encode()).hexdigest()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "latencies_s": latencies,
        "probes_s": probes,
        "ok": ok_flags,
        "errors": errors,
        "digest": digest,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_times()
        result["counters"] = tracer.counters
        result["absent"] = tracer.absent
        tracer.write(os.path.join(OUT, f"spans-{args.workload}.jsonl.gz"))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
