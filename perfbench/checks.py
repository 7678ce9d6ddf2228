"""Correctness checks on a workload's outputs, run after the timed phase.

Each check is computed apart from the program (the plain-dict Algorithm 1
in :mod:`perfbench.reference`) or from a property the method must have;
none compares against stored output.  A check returns a list of problems,
empty when it passes.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from perfbench import reference

#: Largest |JigSaw - reference| allowed per outcome.  Both sides sum the
#: same terms in another order, so they differ by rounding only.
REFERENCE_TOLERANCE = 1e-9

#: Failure probability of the sampled-law bound (per histogram).
LAW_FAILURE_PROBABILITY = 1e-6


def pmf_is_distribution(pmf, label: str) -> List[str]:
    """Probabilities are finite, non-negative and sum to 1."""
    probs = np.asarray(pmf.probs, dtype=float)
    problems = []
    if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
        problems.append(f"{label}: negative or non-finite probability")
    if abs(float(probs.sum()) - 1.0) > 1e-9:
        problems.append(f"{label}: probabilities sum to {probs.sum()!r}")
    return problems


def support_matches_global(result, label: str) -> List[str]:
    """Reconstruction redistributes mass over the global PMF's outcomes only."""
    output = np.sort(np.asarray(result.output_pmf.codes))
    global_codes = np.sort(np.asarray(result.global_pmf.codes))
    if output.shape != global_codes.shape or np.any(output != global_codes):
        return [f"{label}: reconstructed support differs from the global support"]
    return []


def matches_reference(result, label: str) -> List[str]:
    """JigSaw's output equals the plain-dict Algorithm 1 on its own inputs."""
    prior = dict(result.global_pmf.items())
    marginals = [(m.qubits, dict(m.pmf.items())) for m in result.marginals]
    expected = reference.reconstruct(prior, marginals)
    got = dict(result.output_pmf.items())
    if set(got) != set(expected):
        return [f"{label}: reference reconstruction has another support"]
    worst = max(abs(got[k] - expected[k]) for k in expected)
    if worst > REFERENCE_TOLERANCE:
        return [f"{label}: differs from the reference reconstruction by {worst:.3g}"]
    return []


def tvd_bound(exact_probs: np.ndarray, trials: int) -> float:
    """A bound the TVD of an i.i.d. histogram exceeds with prob. <= 1e-6.

    E[TVD] <= 1/2 sum_i sqrt(p_i (1 - p_i) / N) (Jensen per outcome), and
    one trial moves the TVD by at most 1/N, so by McDiarmid the TVD
    exceeds its mean by t with probability <= exp(-2 N t^2).
    """
    p = np.asarray(exact_probs, dtype=float)
    mean_bound = 0.5 * float(np.sum(np.sqrt(p * (1.0 - p) / trials)))
    slack = math.sqrt(math.log(1.0 / LAW_FAILURE_PROBABILITY) / (2.0 * trials))
    return mean_bound + slack


def sample_within_law(sampled, exact, trials: int, label: str) -> List[str]:
    """A sampled histogram lies within the TVD bound of its exact law."""
    codes = np.union1d(sampled.codes, exact.codes)
    p_sampled = np.zeros(len(codes))
    p_exact = np.zeros(len(codes))
    p_sampled[np.searchsorted(codes, sampled.codes)] = sampled.probs
    p_exact[np.searchsorted(codes, exact.codes)] = exact.probs
    tvd = 0.5 * float(np.abs(p_sampled - p_exact).sum())
    bound = tvd_bound(exact.probs, trials)
    if tvd > bound:
        return [f"{label}: sampled TVD {tvd:.4g} exceeds the law bound {bound:.4g}"]
    return []
