"""One benchmark run: set-up, timed phase(s), checks, metrics, output."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Dict, List

import numpy

from repro.telemetry.export import chrome_trace
from repro.telemetry.trace import NULL_TRACER, Tracer, use_tracer

from perfbench.layers import LayerTable, span_cost, wrapped_layers
from perfbench.steadiness import tail_percentile
from perfbench.workloads import Phase, make_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Top-level spans of a Fig. 8 scheme run; what they leave of the timed
#: phase is reported as unattributed.
FIG8_ROOTS = ("compiler.prepare", "runtime.execute", "core.reconstruct", "metrics.evaluate")

#: Span names per layer metric: the benchmark's own spans on the Fig. 8
#: workloads, the supervisor's job spans on the served stream.
LAYER_SPANS = {
    "fig8": {
        "compiler.prepare_s": ("compiler.prepare",),
        "runtime.execute_s": ("runtime.execute",),
        "core.reconstruct_s": ("core.reconstruct",),
    },
    "served": {
        "compiler.prepare_s": ("prepare",),
        "runtime.execute_s": ("execute",),
        "core.reconstruct_s": ("reconstruct",),
    },
}
COMMON_SPANS = {
    "import.repro_s": ("import.repro",),
    "devices.build_s": ("devices.build",),
    "workloads.build_s": ("workloads.build",),
    "sim.statevector_s": ("sim.statevector",),
    "noise.channel_s": ("noise.exact_channel", "noise.sample"),
    "metrics.evaluate_s": ("metrics.evaluate",),
}

#: Layer figures reported beside the JSON metrics (with units), for the
#: workloads whose calls reach them.
DETAIL_SPANS = {
    "fig8": {
        "noise.exact_channel_s": ("noise.exact_channel",),
        "noise.sample_s": ("noise.sample",),
    },
    "served": {
        "noise.exact_channel_s": ("noise.exact_channel",),
        "service.submit_s": ("service.submit",),
        "service.queue_wait_s": ("queue_wait",),
        "service.prepare_s": ("prepare",),
        "service.execute_s": ("execute",),
        "service.reconstruct_s": ("reconstruct",),
        "service.finish_s": ("finish",),
        "service.sweep_bind_s": ("sweep.bind",),
    },
}


def _benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _environment(args, workload, blas_threads) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "make_up": workload.describe(),
    }


def _end_to_end(phase: Phase, setup_s: float, peak_rss_mb: float, rel_pst) -> Dict[str, float]:
    latencies = [op.seconds for op in phase.operations if not op.failed]
    completed = len(latencies)
    return {
        "setup_s": setup_s,
        "wall_s": phase.wall_s,
        "cpu_s": phase.cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": completed / phase.wall_s,
        "latency_p50_s": statistics.median(latencies),
        "rel_pst_jigsaw": rel_pst["jigsaw"],
        "rel_pst_jigsaw_m": rel_pst["jigsaw_m"],
    }


def _per_layer(kind: str, table: LayerTable, traced: Phase) -> Dict[str, float]:
    values: Dict[str, float] = {}
    for name, spans in {**COMMON_SPANS, **LAYER_SPANS[kind]}.items():
        values[name] = table.total_of(*spans)
    values.update(traced.counts)
    values["noise.trials_sampled"] = table.attrs_sum("noise.sample", "trials")
    # Differencing a traced and an untraced run cannot resolve this on a
    # host whose speed drifts by 10% between runs; spans filed times the
    # measured cost of one wrapped, spanned call can.
    values["telemetry.overhead_s"] = len(table.spans) * span_cost()
    return values


def _details(kind: str, table: LayerTable, traced: Phase) -> List[tuple]:
    rows = [
        (name, table.total_of(*spans), "s") for name, spans in DETAIL_SPANS[kind].items()
    ]
    rows.append(("trace.wall_s", traced.wall_s, "s"))
    if kind == "fig8":
        covered = table.total_of(*FIG8_ROOTS)
        rows.append(("trace.unattributed_s", traced.wall_s - covered, "s"))
    tail = tail_percentile([op.seconds for op in traced.operations if not op.failed])
    if tail is not None:
        share, value = tail
        rows.append((f"service.latency_tail_s (p{share * 100:g}, n={len(traced.operations)})", value, "s"))
    return rows


def _write_trace(out_dir: str, args, spans, table_text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}")
    with open(stem + ".trace.json", "w") as handle:
        json.dump(chrome_trace(spans, process_name=f"perfbench {args.workload}"), handle)
    with open(stem + ".layers.txt", "w") as handle:
        handle.write(table_text + "\n")
    return stem


def run_benchmark(args, start, import_span, blas_threads, out_dir) -> int:
    spec = _benchmark_spec()
    traced = args.trace == 1
    tracer = Tracer(max_spans=1_000_000) if traced else NULL_TRACER
    tracer.record("import.repro", None, start=import_span[0], duration=import_span[1])
    workload = make_workload(args.workload, args.seed, args.seconds, out_dir)
    kind = "served" if args.workload == "served-mixed" else "fig8"
    try:
        workload.setup(tracer)
        setup_s = time.perf_counter() - start
        if traced:
            with use_tracer(tracer), wrapped_layers():
                phase = workload.run_phase(tracer)
        else:
            phase = workload.run_phase(NULL_TRACER)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems = workload.check(phase)
        rel_pst = workload.rel_pst(phase, tracer)
    finally:
        workload.close()

    print("# run " + json.dumps(_environment(args, workload, blas_threads)))
    if traced:
        table = LayerTable([tracer.spans(), phase.spans])
        values = _per_layer(kind, table, phase)
        wanted = spec["per_layer"]
        table_text = table.render(phase.wall_s, FIG8_ROOTS if kind == "fig8" else ())
        print(table_text)
        for name, value, unit in _details(kind, table, phase):
            print(f"# layer {name} = {value:.6g} {unit}")
        if kind == "fig8":
            for program, scheme, seconds, ops, per_op in workload.table7_rows(phase):
                print(
                    f"# table7 {program:<12} {scheme:<9} reconstruct {seconds:.4f} s "
                    f"model_ops {ops} s_per_op {per_op:.3e}"
                )
        stem = _write_trace(out_dir, args, tracer.spans() + phase.spans, table_text)
        print(f"# trace written to {os.path.relpath(stem, ROOT)}.trace.json")
    else:
        values = _end_to_end(phase, setup_s, peak_rss_mb, rel_pst)
        wanted = spec["end_to_end"]
        # Reported, not gated: the median of ~0.1 s operations follows the
        # host's speed over a few seconds, and its run-to-run spread
        # reached the 0.25 bound cap (README, reference figures).
        print(f"# info latency_p50_s = {values['latency_p50_s']:.6g} s")
    for problem in problems:
        print(f"# check failed: {problem}")
    metrics = {}
    for metric in wanted:
        value = float(values[metric["name"]])
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"# metric {metric['name']} = {value:.6g} {metric['unit']}")
    result = {
        "correct": not problems,
        "attempted": len(phase.operations),
        "failed": phase.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    sys.stdout.flush()
    return 0
