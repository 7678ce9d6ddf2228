"""Benchmark command: one workload per run, in a fresh process.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-exact --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py compare runs/a runs/b

A run prints a ``# run {...}`` header (workload, seed, environment), one
``# metric`` line per metric, and as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the timed phase once
untraced and once traced and reports the per-layer metrics, writing a
Chrome trace and the layer table under ``perfbench/out/``.

``--seconds`` sets the amount of work: whole rounds, as many as take
about that long on a 2-core container (see ``workloads.py``), so every
run of one workload does the same work.

``compare`` takes two directories of run outputs (``*.out``, each one
run's standard output) and prints, per workload and end-to-end metric,
each set's median and quartiles and whether the sets agree within the
bounds in ``BENCHMARK.json``; it exits 1 when they do not.

The command re-executes itself once with BLAS/OpenMP pools pinned to one
thread and a fixed ``PYTHONHASHSEED``: idle BLAS threads spin and would
make CPU time depend on whatever else runs on the machine.
"""

from __future__ import annotations

import os
import sys
import time

#: Process start as seen by the benchmark; carried across the re-exec.
START = float(os.environ.get("PERFBENCH_START") or time.perf_counter())

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "perfbench", "out")


def _pin_environment() -> None:
    """Re-execute with the pinned environment unless it is already set."""
    if all(os.environ.get(k) == v for k, v in PINNED_ENV.items()):
        return
    env = dict(os.environ, **PINNED_ENV, PERFBENCH_START=repr(START))
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable] + sys.argv, env)


#: The workloads, as ``perfbench.workloads.make_workload`` names them.
WORKLOADS = ("fig8-exact", "fig8-sampled-2e20", "served-mixed")


def _parse(argv):
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _compare(argv) -> int:
    import json

    from perfbench.steadiness import compare_sets, load_run_set, render_verdicts

    if len(argv) != 2:
        print("usage: run.py compare DIR_A DIR_B", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    verdicts, problems = compare_sets(
        benchmark, load_run_set(argv[0]), load_run_set(argv[1])
    )
    print(render_verdicts(verdicts, problems))
    return 0 if all(v.agrees for v in verdicts) and not problems else 1


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def main(argv) -> int:
    if argv and argv[0] == "compare":
        return _compare(argv[1:])
    args = _parse(argv)
    _pin_environment()
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("error: src/repro not found; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import_start = time.perf_counter()
    import numpy  # noqa: F401  (timed with the program's imports)

    from perfbench import workloads  # noqa: F401  (imports repro)

    import_s = time.perf_counter() - import_start
    from perfbench.harness import run_benchmark

    return run_benchmark(
        args,
        start=START,
        import_span=(import_start, import_s),
        blas_threads=_blas_threads(),
        out_dir=OUT_DIR,
    )


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main(sys.argv[1:]))
