"""The benchmark's workloads: set-up, a timed phase of whole rounds, outputs.

``fig8-exact`` / ``fig8-sampled-2e20``
    Baseline, EDM, JigSaw and JigSaw-M on the nine Fig. 8 programs on
    ibmq_toronto, through ``Session`` (prepare -> execute -> finish ->
    evaluate), exact or sampled at 2^20 trials.  One operation is one
    scheme run; a round is the 36 runs of the matrix under one session
    seed, every program's baseline first, then EDM, JigSaw, JigSaw-M.

``served-mixed``
    A closed loop of three clients against ``ServiceSupervisor`` at its
    defaults (two drain workers) over a ``SegmentedResultStore`` journal,
    exact mode, programs of at most 12 qubits.  Per client and round:
    scheme group A (four writes), one QAOA sweep job, scheme group B
    (four writes), then group A again (four memoized reads).  One
    operation is one job, from submit to settled.

The seed fixes every input: the session seeds of the Fig. 8 rounds, and
the job seeds and sweep points of the job stream.  The amount of work is
set by ``--seconds`` through a fixed nominal round time, so every run of
one workload at one ``--seconds`` does the same work whatever the
machine's speed; only the time it takes is measured.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.pmf import PMF
from repro.devices import ibmq_toronto
from repro.exceptions import AdmissionError
from repro.metrics.success import probability_of_successful_trial
from repro.runtime import Session
from repro.service.job import JobSpec, JobStatus, SweepJobSpec
from repro.service.tier import SegmentedResultStore, ServiceSupervisor
from repro.workloads import PAPER_SUITE_NAMES, workload_by_name

from perfbench import checks

SCHEMES = ("baseline", "edm", "jigsaw", "jigsaw_m")
JIGSAW_FAMILY = ("jigsaw", "jigsaw_m")
SAMPLED_TRIALS = 1 << 20

#: ``--seconds`` divided by these (at least one) is the number of rounds
#: a run does.  On a 2-core container a Fig. 8 round takes about 40 s and
#: a served round about 1.5 s; ten served rounds per run keep its
#: run-to-run spread down.
FIG8_ROUND_S = 40.0
SERVED_ROUND_S = 1.0

#: served-mixed: each client's two scheme-group programs and its sweep
#: program.  No sweep program is also run as a plain job: a sweep served
#: after a plain job of its program diverges from a solo run (CHANGES.md,
#: FOUND), and not on every seed, so the benchmark cannot count it.
CLIENT_PROGRAMS = (("QAOA-8 p1", "BV-6"), ("Ising-8", "GHZ-8"), ("QAOA-10 p2", "GHZ-10"))
SWEEP_PROGRAMS = ("QAOA-6 p1", "Ising-6", "QAOA-6 p2")
SWEEP_POINTS = 8
SERVED_DEVICE = "toronto"

#: served-mixed: the first executed jobs of every client (a scheme group
#: and a sweep) are re-run solo and compared.
SOLO_SAMPLE = 5


@dataclass
class Operation:
    label: str
    seconds: float
    failed: bool = False


@dataclass
class Phase:
    """One timed phase: its operations, times and what the checks need."""

    operations: List[Operation] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)
    outputs: List[Dict[str, Any]] = field(default_factory=list)
    spans: List[Any] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.operations if op.failed)


def _gmean(values: List[float]) -> float:
    return float(np.exp(np.mean(np.log(values))))


def _reconstruction_size(result_or_payload: Any) -> tuple:
    """(global support entries, marginals) of a JigSaw-family result."""
    if isinstance(result_or_payload, dict):
        entries = len(result_or_payload["global_pmf"]["codes"])
        if "marginals_by_size" in result_or_payload:
            marginals = sum(
                len(m) for m in result_or_payload["marginals_by_size"].values()
            )
        else:
            marginals = len(result_or_payload["marginals"])
        return entries, marginals
    marginals = getattr(result_or_payload, "all_marginals", None)
    if marginals is None:
        marginals = result_or_payload.marginals
    return result_or_payload.global_pmf.support_size, len(marginals)


class Fig8Workload:
    """The Fig. 8 matrix through ``Session``, exact or sampled."""

    def __init__(self, seed: int, seconds: float, sampled: bool) -> None:
        self.seed = seed
        self.sampled = sampled
        self.rounds = max(1, round(seconds / FIG8_ROUND_S))
        self.total_trials = SAMPLED_TRIALS if sampled else 32_768

    def describe(self) -> Dict[str, Any]:
        return {
            "device": "ibmq_toronto",
            "programs": list(PAPER_SUITE_NAMES),
            "schemes": list(SCHEMES),
            "mode": f"sampled {self.total_trials}" if self.sampled else "exact",
            "rounds": self.rounds,
        }

    def setup(self, tracer) -> None:
        with tracer.span("devices.build"):
            self.device = ibmq_toronto()
        with tracer.span("workloads.build"):
            self.programs = [workload_by_name(n) for n in PAPER_SUITE_NAMES]

    def close(self) -> None:
        pass

    def run_phase(self, tracer) -> Phase:
        phase = Phase()
        sessions = []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for index in range(self.rounds):
            session = Session(
                self.device,
                seed=self.seed + 7919 * index,
                total_trials=self.total_trials,
                exact=not self.sampled,
            )
            sessions.append(session)
            # Scheme-major: a program's short runs are spread over the
            # round instead of sharing one stretch of host speed, which
            # steadies the median.  Each scheme's seed stream still sees
            # the programs in the same order, so outputs do not change.
            for scheme in SCHEMES:
                for program in self.programs:
                    phase.operations.append(
                        self._scheme_run(session, program, scheme, tracer, phase)
                    )
            session.close()
        phase.wall_s = time.perf_counter() - wall0
        phase.cpu_s = time.process_time() - cpu0
        phase.counts = self._counts(sessions, phase)
        return phase

    def _scheme_run(self, session, program, scheme, tracer, phase) -> Operation:
        start = time.perf_counter()
        with tracer.span("compiler.prepare"):
            prepared = session.prepare_scheme(scheme, program)
        with tracer.span("runtime.execute"):
            pmfs = prepared.backend.execute(prepared.requests)
        finish_start = time.perf_counter()
        with tracer.span("core.reconstruct"):
            result = prepared.finish(pmfs)
        reconstruct_s = time.perf_counter() - finish_start
        pmf = prepared.output_pmf(result)
        with tracer.span("metrics.evaluate"):
            metrics = session.evaluate(program, pmf)
        seconds = time.perf_counter() - start
        phase.outputs.append(
            {
                "session": session,
                "program": program,
                "scheme": scheme,
                "pmf": pmf,
                "result": result,
                "pst": metrics.pst,
                "requests": len(prepared.requests),
                "reconstruct_s": reconstruct_s,
            }
        )
        return Operation(f"{program.name}/{scheme}", seconds)

    @staticmethod
    def _counts(sessions, phase: Phase) -> Dict[str, float]:
        routes = hits = lookups = 0
        channel = statevector = 0
        for session in sessions:
            stats = session.pipeline_stats()
            routes += stats["counters"].get("route_calls", 0)
            for stage in stats["stages"].values():
                hits += stage["hits"]
                lookups += stage["hits"] + stage["misses"]
            execution = session.execution_stats()
            channel += execution.get("channel_evals", 0)
            statevector += execution.get("statevector_evals", 0)
        entries = ops = 0
        for out in phase.outputs:
            if out["scheme"] in JIGSAW_FAMILY:
                support, marginals = _reconstruction_size(out["result"])
                entries += support
                ops += 4 * support * marginals
        return {
            "compiler.route_calls": routes,
            "compiler.stage_hit_ratio": hits / lookups if lookups else 0.0,
            "runtime.requests": sum(o["requests"] for o in phase.outputs),
            "runtime.channel_evals": channel,
            "runtime.statevector_evals": statevector,
            "core.support_entries": entries,
            "core.reconstruct_model_ops": ops,
            "service.executed": 0,
            "service.memoized": 0,
            "service.batches": 0,
        }

    # -- after the timed phase --------------------------------------------

    @staticmethod
    def table7_rows(phase: Phase) -> List[tuple]:
        """(program, scheme, reconstruct s, model ops, s per op) per run.

        Model ops are section 7.3's ``4 x support entries x marginals``.
        """
        rows = []
        for out in phase.outputs:
            if out["scheme"] in JIGSAW_FAMILY:
                support, marginals = _reconstruction_size(out["result"])
                ops = 4 * support * marginals
                rows.append(
                    (out["program"].name, out["scheme"], out["reconstruct_s"], ops,
                     out["reconstruct_s"] / ops)
                )
        return rows

    def rel_pst(self, phase: Phase, tracer) -> Dict[str, float]:
        pst = {(o["program"].name, o["scheme"]): o["pst"] for o in phase.outputs}
        programs = sorted({name for name, _ in pst})
        return {
            scheme: _gmean([pst[(p, scheme)] / pst[(p, "baseline")] for p in programs])
            for scheme in JIGSAW_FAMILY
        }

    def check(self, phase: Phase) -> List[str]:
        problems: List[str] = []
        for out in phase.outputs:
            label = f"{out['program'].name}/{out['scheme']}"
            problems += checks.pmf_is_distribution(out["pmf"], label)
            if out["scheme"] in JIGSAW_FAMILY:
                problems += checks.support_matches_global(out["result"], label)
            if out["scheme"] == "jigsaw" and out["program"].num_outcome_bits <= 10:
                problems += checks.matches_reference(out["result"], label)
            if self.sampled and out["scheme"] == "baseline":
                session, program = out["session"], out["program"]
                exact = session.sampler.exact_pmf(session.global_executable(program))
                problems += checks.sample_within_law(
                    out["pmf"], exact, self.total_trials, label
                )
        gm = {
            scheme: _gmean([o["pst"] for o in phase.outputs if o["scheme"] == scheme])
            for scheme in ("baseline", "jigsaw", "jigsaw_m")
        }
        if not gm["jigsaw_m"] > gm["jigsaw"] > gm["baseline"]:
            problems.append(f"Fig. 8 ordering broken: geometric-mean PST {gm}")
        return problems


class ServedWorkload:
    """A closed-loop job stream through the serving tier."""

    def __init__(self, seed: int, seconds: float, work_dir: str) -> None:
        self.seed = seed
        self.rounds = max(1, round(seconds / SERVED_ROUND_S))
        self.work_dir = work_dir
        self.supervisor: Optional[ServiceSupervisor] = None
        self.store_dir: Optional[str] = None

    def describe(self) -> Dict[str, Any]:
        return {
            "device": "ibmq_toronto",
            "clients": len(CLIENT_PROGRAMS),
            "client_programs": [list(p) for p in CLIENT_PROGRAMS],
            "sweep_programs": list(SWEEP_PROGRAMS),
            "sweep": f"jigsaw, {SWEEP_POINTS} points",
            "per_client_round": "group A (4 writes), sweep, group B (4 writes), group A (4 reads)",
            "mode": "exact",
            "drain_workers": 2,
            "store": "SegmentedResultStore (journal directory)",
            "rounds": self.rounds,
        }

    def setup(self, tracer) -> None:
        with tracer.span("devices.build"):
            self.device = ibmq_toronto()
        with tracer.span("workloads.build"):
            names = {n for pair in CLIENT_PROGRAMS for n in pair} | set(SWEEP_PROGRAMS)
            self.programs = {n: workload_by_name(n) for n in sorted(names)}
        self.streams = [self._client_specs(c) for c in range(len(CLIENT_PROGRAMS))]
        os.makedirs(self.work_dir, exist_ok=True)
        self.store_dir = tempfile.mkdtemp(prefix="store-", dir=self.work_dir)
        self.supervisor = ServiceSupervisor(
            devices={SERVED_DEVICE: self.device},
            store=SegmentedResultStore(self.store_dir),
            tracing=tracer.enabled,
        ).start()

    def close(self) -> None:
        if self.supervisor is not None:
            self.supervisor.close()
            self.supervisor = None
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    def _client_specs(self, client: int) -> List[JobSpec]:
        """One client's job stream, every round of it."""
        rng = np.random.default_rng([self.seed, client])
        tenant = f"client-{client}"
        program_a, program_b = CLIENT_PROGRAMS[client]
        sweep_program = SWEEP_PROGRAMS[client]
        width = len(self.programs[sweep_program].default_parameters)
        specs: List[JobSpec] = []
        for _ in range(self.rounds):
            seed_a, seed_b, seed_s = (int(s) for s in rng.integers(0, 2**31, 3))
            group_a = [
                JobSpec(tenant=tenant, workload=program_a, scheme=s, seed=seed_a,
                        device=SERVED_DEVICE)
                for s in SCHEMES
            ]
            group_b = [
                JobSpec(tenant=tenant, workload=program_b, scheme=s, seed=seed_b,
                        device=SERVED_DEVICE)
                for s in SCHEMES
            ]
            points = rng.uniform(0.0, np.pi, size=(SWEEP_POINTS, width))
            sweep = SweepJobSpec(
                tenant=tenant, workload=sweep_program, scheme="jigsaw",
                seed=seed_s, device=SERVED_DEVICE,
                parameter_sets=tuple(tuple(float(v) for v in row) for row in points),
            )
            specs += group_a + [sweep] + group_b + group_a
        return specs

    def run_phase(self, tracer) -> Phase:
        supervisor = self.supervisor
        phase = Phase()
        cursors = [0] * len(self.streams)
        inflight: Dict[int, tuple] = {}
        jobs = []

        def submit(client: int) -> None:
            stream = self.streams[client]
            while cursors[client] < len(stream):
                spec = stream[cursors[client]]
                cursors[client] += 1
                submitted = time.time()
                started = time.perf_counter()
                try:
                    job = supervisor.submit(spec)
                    # Filed after the fact: an open span of this tracer
                    # would become the parent of the supervisor's job span.
                    tracer.record(
                        "service.submit", None, start=started,
                        duration=time.perf_counter() - started,
                    )
                except AdmissionError as exc:  # a refusal fails the operation
                    phase.operations.append(
                        Operation(f"{spec.workload}/{spec.scheme}", 0.0, failed=True)
                    )
                    phase.outputs.append({"spec": spec, "error": repr(exc)})
                    continue
                inflight[client] = (spec, job, submitted)
                return
            inflight.pop(client, None)

        cpu0, wall0 = time.process_time(), time.perf_counter()
        for client in range(len(self.streams)):
            submit(client)
        while inflight:
            settled = [c for c, (_, job, _) in inflight.items() if job.done]
            if not settled:
                time.sleep(0.0005)
                continue
            for client in settled:
                spec, job, submitted = inflight[client]
                jobs.append((spec, job, submitted))
                submit(client)
        phase.wall_s = time.perf_counter() - wall0
        phase.cpu_s = time.process_time() - cpu0

        for spec, job, submitted in jobs:
            done_at = supervisor.events(job)[-1].timestamp
            kind = "sweep" if isinstance(spec, SweepJobSpec) else spec.scheme
            phase.operations.append(
                Operation(
                    f"{spec.workload}/{kind}/{job.source}",
                    done_at - submitted,
                    failed=job.status is not JobStatus.DONE,
                )
            )
            phase.outputs.append({"spec": spec, "job": job})
        phase.counts = self._counts(supervisor, phase)
        phase.spans = supervisor.tracer.spans()
        return phase

    @staticmethod
    def _counts(supervisor: ServiceSupervisor, phase: Phase) -> Dict[str, float]:
        counters = supervisor.telemetry_snapshot()["counters"]
        hits = sum(v for k, v in counters.items() if k.startswith("cache.stage.") and k.endswith(".hits"))
        misses = sum(v for k, v in counters.items() if k.startswith("cache.stage.") and k.endswith(".misses"))
        entries = ops = 0
        for out in phase.outputs:
            job = out.get("job")
            if job is None or job.source != "executed":
                continue
            if job.spec.scheme in JIGSAW_FAMILY and not isinstance(job.spec, SweepJobSpec):
                support, marginals = _reconstruction_size(job.result)
                entries += support
                ops += 4 * support * marginals
        stats = supervisor.tier_stats()
        return {
            "compiler.route_calls": counters.get("cache.stage.route.misses", 0),
            "compiler.stage_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.requests": counters.get("backend.requests", 0),
            "runtime.channel_evals": counters.get("backend.channel_evals", 0),
            "runtime.statevector_evals": counters.get("backend.statevector_evals", 0),
            "core.support_entries": entries,
            "core.reconstruct_model_ops": ops,
            "service.executed": stats["jobs"]["executed"],
            "service.memoized": stats["jobs"]["memoized"],
            "service.batches": sum(w["batches"] for w in stats["workers"]),
        }

    # -- after the timed phase --------------------------------------------

    def rel_pst(self, phase: Phase, tracer) -> Dict[str, float]:
        """Geometric mean over executed scheme groups of PST(x) / PST(baseline)."""
        pst: Dict[tuple, float] = {}
        with tracer.span("metrics.evaluate"):
            for out in phase.outputs:
                job = out.get("job")
                if job is None or job.source != "executed" or isinstance(job.spec, SweepJobSpec):
                    continue
                if job.spec.scheme not in ("baseline",) + JIGSAW_FAMILY:
                    continue
                program = self.programs[job.spec.workload]
                pmf = PMF.from_payload(job.result["output_pmf"])
                key = (job.spec.workload, job.spec.seed, job.spec.scheme)
                pst[key] = probability_of_successful_trial(pmf, program.correct_outcomes)
        return {
            scheme: _gmean(
                [
                    value / pst[(name, seed, "baseline")]
                    for (name, seed, s), value in pst.items()
                    if s == scheme
                ]
            )
            for scheme in JIGSAW_FAMILY
        }

    def check(self, phase: Phase) -> List[str]:
        problems: List[str] = []
        first_execution: Dict[str, Dict[str, Any]] = {}
        executed = []
        for out in phase.outputs:
            job = out.get("job")
            if job is None:
                problems.append(f"job not admitted: {out['error']}")
                continue
            if job.status is not JobStatus.DONE:
                problems.append(f"{job.job_id} did not settle DONE: {job.error}")
                continue
            if job.source == "executed":
                first_execution.setdefault(job.fingerprint, job.result)
                executed.append(job)
        for out in phase.outputs:
            job = out.get("job")
            if job is None or job.source != "memoized":
                continue
            first = first_execution.get(job.fingerprint)
            if first is None or _canonical(first) != _canonical(job.result):
                problems.append(f"{job.job_id}: memoized payload differs from its execution")
        for job in executed:
            for key in ("output_pmf",) if "output_pmf" in job.result else ():
                problems += checks.pmf_is_distribution(
                    PMF.from_payload(job.result[key]), job.job_id
                )
        sample = []
        for client in range(len(CLIENT_PROGRAMS)):
            tenant = f"client-{client}"
            sample += [job for job in executed if job.spec.tenant == tenant][:SOLO_SAMPLE]
        for job in sample:
            if _canonical(job.result) != _canonical(self._solo_payload(job.spec)):
                problems.append(f"{job.job_id}: payload differs from a solo Session run")
        return problems

    def _solo_payload(self, spec: JobSpec) -> Dict[str, Any]:
        program = self.programs[spec.workload]
        with Session(
            self.device, seed=spec.seed, total_trials=spec.total_trials,
            exact=spec.exact, compile_attempts=4, cpm_attempts=3, ensemble_size=4,
        ) as session:
            if isinstance(spec, SweepJobSpec):
                return session.run_sweep(spec.scheme, program, spec.parameter_sets).to_dict()
            prepared = session.prepare_scheme(spec.scheme, program)
            result = prepared.finish(prepared.backend.execute(prepared.requests))
        if isinstance(result, PMF):
            from repro.core.payload import PAYLOAD_VERSION

            return {
                "scheme": spec.scheme,
                "payload_version": PAYLOAD_VERSION,
                "output_pmf": result.to_payload(),
                "total_trials": spec.total_trials,
            }
        return result.to_dict()


def _canonical(payload: Dict[str, Any]) -> str:
    return json.dumps(payload, sort_keys=True)


def make_workload(name: str, seed: int, seconds: float, work_dir: str):
    if name == "fig8-exact":
        return Fig8Workload(seed, seconds, sampled=False)
    if name == "fig8-sampled-2e20":
        return Fig8Workload(seed, seconds, sampled=True)
    if name == "served-mixed":
        return ServedWorkload(seed, seconds, work_dir)
    raise ValueError(f"unknown workload {name!r}")
