"""Plain-dict Bayesian reconstruction, written from the paper's Algorithm 1.

The benchmark checks JigSaw's reconstructed output against this reference
on the small programs.  It shares no code with ``repro.core``: outcomes
are IBM-order bitstrings (character ``n - 1 - q`` holds bit ``q``) and
every distribution is a ``dict``, so a fault in the array implementation
cannot hide in both.

One round updates the prior once per marginal, each update starting from
the same prior, then adds the posteriors to the prior and normalises.
Rounds repeat until the Hellinger distance between successive outputs is
at most ``tolerance`` (paper section 4.3).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple

Distribution = Dict[str, float]
MarginalSpec = Tuple[Sequence[int], Distribution]

#: Marginal probabilities are clipped below 1 so the odds stay finite.
MAX_MARGINAL_PROB = 1.0 - 1e-12


def normalise(dist: Distribution) -> Distribution:
    total = sum(dist.values())
    return {key: value / total for key, value in dist.items()}


def project(outcome: str, qubits: Sequence[int]) -> str:
    """The sub-outcome of ``outcome`` on ``qubits`` (IBM order both ways)."""
    width = len(outcome)
    return "".join(outcome[width - 1 - q] for q in sorted(qubits, reverse=True))


def bayesian_update(
    prior: Distribution, qubits: Sequence[int], marginal: Distribution
) -> Distribution:
    """One update of ``prior`` with one local PMF (Algorithm 1, Fig. 6).

    Outcomes are grouped by their projection; within a group the prior is
    normalised into update coefficients and scaled by the marginal's odds
    ``p / (1 - p)``.  Outcomes whose projection the marginal never saw
    keep their prior probability.
    """
    return _update(prior, {o: project(o, qubits) for o in prior}, marginal)


def _update(
    prior: Distribution, keys: Dict[str, str], marginal: Distribution
) -> Distribution:
    """:func:`bayesian_update` with each outcome's projection given."""
    group_mass: Distribution = {}
    for outcome, prob in prior.items():
        group_mass[keys[outcome]] = group_mass.get(keys[outcome], 0.0) + prob
    posterior: Distribution = {}
    for outcome, prob in prior.items():
        key = keys[outcome]
        local = marginal.get(key, 0.0)
        if local > 0.0 and group_mass[key] > 0.0:
            local = min(local, MAX_MARGINAL_PROB)
            posterior[outcome] = prob / group_mass[key] * local / (1.0 - local)
        else:
            posterior[outcome] = prob
    return normalise(posterior)


def hellinger(p: Distribution, q: Distribution) -> float:
    keys = set(p) | set(q)
    total = sum(
        (math.sqrt(p.get(k, 0.0)) - math.sqrt(q.get(k, 0.0))) ** 2 for k in keys
    )
    return math.sqrt(total / 2.0)


def reconstruct(
    prior: Distribution,
    marginals: Iterable[MarginalSpec],
    tolerance: float = 1e-4,
    max_rounds: int = 32,
) -> Distribution:
    """Iterate reconstruction rounds until the output stops changing."""
    current = normalise(prior)
    # Projections depend on the outcome and the marginal, not the round.
    projected = [
        ({o: project(o, qubits) for o in current}, local) for qubits, local in marginals
    ]
    for _ in range(max_rounds):
        merged = dict(current)
        for keys, local in projected:
            for outcome, prob in _update(current, keys, local).items():
                merged[outcome] += prob
        updated = normalise(merged)
        converged = hellinger(current, updated) <= tolerance
        current = updated
        if converged:
            break
    return current
