"""Run-to-run statistics: quartiles, spreads, tail percentiles, agreement.

Two sets of runs of the same code agree on a metric when

* each set's quartile spread, ``(Q3 - Q1) / median``, is within the
  metric's bound (``setup_s`` is exempt: it is one sample per run), and
* the second set's median is not worse than the first's by more than the
  bound, in the metric's "better" direction;

and the two sets fail the same share of their attempted operations.
Quartiles are those of ``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import json
import math
import os
import statistics
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Metrics whose quartile spread is not gated (one sample per run).
SPREAD_EXEMPT = ("setup_s",)

#: Candidate tail percentiles, highest last.
TAIL_PERCENTILES = (0.5, 0.9, 0.95, 0.99, 0.999)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``.

    Negative when ``second`` is better.
    """
    change = (second - first) / abs(first) if first else 0.0
    return change if better == "lower" else -change


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile: the smallest value with ``share`` at or below."""
    ordered = sorted(values)
    # Rounding first keeps e.g. 0.95 * 200 from ceiling to 191.
    rank = max(1, math.ceil(round(share * len(ordered), 9)))
    return ordered[min(rank, len(ordered)) - 1]


def tail_percentile(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """(share, value) of the highest percentile with >= 10 samples beyond it.

    ``None`` with fewer than 40 samples: such a percentile is no tail.
    """
    count = len(values)
    if count < 40:
        return None
    best = None
    for share in TAIL_PERCENTILES:
        value = percentile(values, share)
        if sum(1 for v in values if v > value) >= 10:
            best = (share, value)
    return best


@dataclass
class MetricVerdict:
    workload: str
    metric: str
    unit: str
    first: Tuple[float, float, float]
    second: Tuple[float, float, float]
    spreads: Tuple[float, float]
    worse_by: float
    bound: float
    agrees: bool


def compare_metric(
    workload: str,
    metric: Mapping[str, object],
    first: Sequence[float],
    second: Sequence[float],
) -> MetricVerdict:
    """The agreement verdict of one end-to-end metric over two run sets."""
    name = str(metric["name"])
    bound = float(metric["bound"])
    spreads = (spread(first), spread(second))
    worse = worsening(
        quartiles(first)[1], quartiles(second)[1], str(metric["better"])
    )
    spread_ok = name in SPREAD_EXEMPT or max(spreads) <= bound
    return MetricVerdict(
        workload=workload,
        metric=name,
        unit=str(metric["unit"]),
        first=quartiles(first),
        second=quartiles(second),
        spreads=spreads,
        worse_by=worse,
        bound=bound,
        agrees=spread_ok and worse <= bound,
    )


# ---------------------------------------------------------------------------
# Run outputs on disk
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    workload: str
    attempted: int
    failed: int
    correct: bool
    metrics: Dict[str, float]


def parse_run_output(text: str) -> RunRecord:
    """One run's standard output: its header line and its last JSON line."""
    lines = [line for line in text.splitlines() if line.strip()]
    header = next(
        (json.loads(line[len("# run "):]) for line in lines if line.startswith("# run ")),
        None,
    )
    if header is None:
        raise ValueError("run output has no '# run' header line")
    result = json.loads(lines[-1])
    return RunRecord(
        workload=header["workload"],
        attempted=int(result["attempted"]),
        failed=int(result["failed"]),
        correct=bool(result["correct"]),
        metrics={k: float(v["value"]) for k, v in result["metrics"].items()},
    )


def load_run_set(directory: str) -> List[RunRecord]:
    """Every ``*.out`` file of a directory, as run records."""
    records = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".out"):
            with open(os.path.join(directory, name)) as handle:
                records.append(parse_run_output(handle.read()))
    if not records:
        raise ValueError(f"no *.out run outputs in {directory}")
    return records


def compare_sets(
    benchmark: Mapping[str, object],
    first: Iterable[RunRecord],
    second: Iterable[RunRecord],
) -> Tuple[List[MetricVerdict], List[str]]:
    """Verdicts per (workload, end-to-end metric) plus set-level problems."""
    by_workload: Dict[str, Tuple[List[RunRecord], List[RunRecord]]] = {}
    for index, records in enumerate((first, second)):
        for record in records:
            by_workload.setdefault(record.workload, ([], []))[index].append(record)
    verdicts: List[MetricVerdict] = []
    problems: List[str] = []
    for workload in sorted(by_workload):
        set_a, set_b = by_workload[workload]
        if not set_a or not set_b:
            problems.append(f"{workload}: present in only one set")
            continue
        for label, records in (("first", set_a), ("second", set_b)):
            if not all(r.correct for r in records):
                problems.append(f"{workload}: a run of the {label} set is not correct")
        failed_shares = {
            r.failed / r.attempted for records in (set_a, set_b) for r in records
        }
        if len(failed_shares) != 1:
            problems.append(
                f"{workload}: failed shares differ: {sorted(failed_shares)}"
            )
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            try:
                values_a = [r.metrics[name] for r in set_a]
                values_b = [r.metrics[name] for r in set_b]
            except KeyError:
                problems.append(f"{workload}: metric {name} missing")
                continue
            verdicts.append(compare_metric(workload, metric, values_a, values_b))
    return verdicts, problems


def render_verdicts(verdicts: Sequence[MetricVerdict], problems: Sequence[str]) -> str:
    rows = [
        f"{'workload':<18} {'metric':<17} {'unit':<6} "
        f"{'set A  Q1 / median / Q3':>32} {'set B  Q1 / median / Q3':>32} "
        f"{'spreadA':>8} {'spreadB':>8} {'worse':>8} {'bound':>6}  verdict"
    ]
    for v in verdicts:
        rows.append(
            f"{v.workload:<18} {v.metric:<17} {v.unit:<6} "
            f"{_triple(v.first):>32} {_triple(v.second):>32} "
            f"{v.spreads[0]:>8.2%} {v.spreads[1]:>8.2%} {v.worse_by:>+8.2%} "
            f"{v.bound:>6.2f}  {'agree' if v.agrees else 'DISAGREE'}"
        )
    rows.extend(f"problem: {p}" for p in problems)
    agree = all(v.agrees for v in verdicts) and not problems
    rows.append("sets agree" if agree else "sets DISAGREE")
    return "\n".join(rows)


def _triple(values: Tuple[float, float, float]) -> str:
    return " / ".join(f"{v:.4g}" for v in values)
