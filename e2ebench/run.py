#!/usr/bin/env python3
"""End-to-end benchmark of the consmax labelling pipelines.

Run from the repository root:

    python3 e2ebench/run.py --workload iso-outlier80 --seed 0 --seconds 20 --trace 0

One run sets up its workload (imports, instance synthesis, instance files),
then times whole rounds of labelling operations through the public entry
points until ``--seconds`` have passed, checks every output and prints one
JSON object as its last line of standard output:

* ``--trace 0``: the end-to-end metrics ``setup_s``, ``label_s``,
  ``matches_per_s`` and ``peak_rss_mb``;
* ``--trace 1``: the per-layer metrics. Untraced and traced rounds
  alternate; the traced rounds wrap the program's module-level functions
  (see ``tracing.py``) and the spans go to ``e2ebench/out/``.

The exit code is 0 when every check passes and 1 when one fails.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# set-up is repeated this many times and its median reported
SETUP_REPEATS = 5


def blas_threads() -> str:
    """Thread count of the OpenBLAS that numpy loaded, read from the library."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def import_program():
    """Import consmax from this checkout's ``src``; exit 2 when it is absent."""
    if not os.path.isfile(os.path.join(SRC, "consmax", "__init__.py")):
        sys.stderr.write(f"error: no consmax sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import consmax
    import consmax.cli  # noqa: F401  (the CLI workload calls consmax.cli.main)

    if os.path.dirname(os.path.dirname(os.path.abspath(consmax.__file__))) != SRC:
        sys.stderr.write(f"error: consmax imported from {consmax.__file__}, not from {SRC}\n")
        sys.exit(2)
    return consmax


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}\n")
        return 2
    cm = import_program()
    import_s = time.perf_counter() - _T_START

    run_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        return _run(args, cm, import_s, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, cm, import_s, run_dir) -> int:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        ops = workloads.WORKLOADS[args.workload](cm, run_dir)
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)
    random.Random(args.seed).shuffle(ops)

    tracer = tracing.Tracer() if args.trace else None
    op_times = {False: [], True: []}  # traced? -> per-op seconds
    per_round = []
    attempted = failed = matches_done = 0
    problems = []
    t_begin = time.perf_counter()
    round_no = 0
    while True:
        traced = bool(args.trace) and round_no % 2 == 1
        if traced:
            tracer.install(round_no)
        try:
            for op in ops:
                call_args = op.prepare()
                attempted += 1
                t = time.perf_counter()
                try:
                    out = op.call(*call_args)
                except Exception:
                    failed += 1
                    sys.stderr.write(f"operation {op.label} failed:\n{traceback.format_exc()}")
                    continue
                op_times[traced].append(time.perf_counter() - t)
                matches_done += op.matches
                problems += op.check(out)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            per_round.append(tracer.round_metrics(round_no))
        round_no += 1
        # a traced run needs an untraced and a traced round
        if round_no >= 1 + args.trace and time.perf_counter() - t_begin >= args.seconds:
            break

    backend = "numba" if cm.NUMBA_ENABLED else "numpy-fallback"
    print(f"# workload {args.workload}, seed {args.seed}, {round_no} rounds of {len(ops)} ops, "
          f"backend {backend}, BLAS threads {blas_threads()}")
    if args.trace:
        problems += tracer.uncovered()
    for p in problems:
        print(f"# CHECK FAILED: {p}")

    if args.trace:
        metrics = tracing.median_metrics(per_round)
        untraced, traced_s = _median(op_times[False]), _median(op_times[True])
        metrics["trace.label_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - untraced
        units = tracing.PER_LAYER
        path = _write_trace(args, tracer, metrics, backend, per_round)
        print(f"# trace written to {os.path.relpath(path, ROOT)}")
        if tracer.missing:
            print(f"# wrap points not found: {', '.join(tracer.missing)}")
    else:
        timed = sum(op_times[False])
        metrics = {
            "setup_s": setup_s,
            "label_s": _median(op_times[False]),
            "matches_per_s": matches_done / timed if timed else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "label_s": "s", "matches_per_s": "matches/s", "peak_rss_mb": "MiB"}
        print(f"# {len(op_times[False])} timed operations, {matches_done} matches labelled")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct and failed == 0 else 1


def _median(values) -> float:
    """Median of the timed operations; NaN when every operation failed."""
    return statistics.median(values) if values else float("nan")


def _write_trace(args, tracer, metrics, backend, per_round) -> str:
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": backend,
        "blas_threads": blas_threads(),
        "metrics": metrics,
        "per_round": per_round,
        "missing": tracer.missing,
        "spans": tracer.spans,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


if __name__ == "__main__":
    sys.exit(main())
