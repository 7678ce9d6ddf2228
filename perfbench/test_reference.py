"""Unit tests of the plain-dict Algorithm 1 reference, on hand-worked cases."""

import pytest

from perfbench import reference

PRIOR = {"00": 0.4, "01": 0.1, "10": 0.1, "11": 0.4}


def test_projection_is_ibm_order_on_both_sides():
    # "0110": bit 0 is the last character.
    assert reference.project("0110", (0,)) == "0"
    assert reference.project("0110", (1,)) == "1"
    assert reference.project("0110", (0, 1)) == "10"
    assert reference.project("0110", (3, 1)) == "01"


def test_update_by_hand():
    # Groups by bit 0: {"00","10"} and {"01","11"}, mass 0.5 each.
    # Odds 0.8/0.2 = 4 and 0.2/0.8 = 0.25, so before normalising
    # 00: 0.8*4, 10: 0.2*4, 01: 0.2*0.25, 11: 0.8*0.25  (sum 4.25).
    posterior = reference.bayesian_update(PRIOR, (0,), {"0": 0.8, "1": 0.2})
    assert posterior == pytest.approx(
        {"00": 3.2 / 4.25, "10": 0.8 / 4.25, "01": 0.05 / 4.25, "11": 0.2 / 4.25}
    )


def test_unobserved_projection_keeps_its_prior_weight():
    posterior = reference.bayesian_update(PRIOR, (1,), {"0": 0.5})
    # Bit 1 = "1" was never observed: "10" and "11" keep 0.1 and 0.4,
    # and the observed group gets odds 1 over its normalised prior.
    total = 0.4 / 0.5 + 0.1 / 0.5 + 0.1 + 0.4
    assert posterior == pytest.approx(
        {"00": 0.8 / total, "01": 0.2 / total, "10": 0.1 / total, "11": 0.4 / total}
    )


def test_one_round_is_prior_plus_posteriors_normalised():
    marginal = {"0": 0.8, "1": 0.2}
    update = reference.bayesian_update(PRIOR, (0,), marginal)
    expected = {k: (PRIOR[k] + update[k]) / 2.0 for k in PRIOR}
    got = reference.reconstruct(PRIOR, [((0,), marginal)], max_rounds=1)
    assert got == pytest.approx(expected)


def test_reconstruction_sharpens_towards_consistent_marginals():
    marginals = [((0,), {"0": 0.9, "1": 0.1}), ((1,), {"0": 0.9, "1": 0.1})]
    out = reference.reconstruct(PRIOR, marginals)
    assert sum(out.values()) == pytest.approx(1.0)
    assert out["00"] > PRIOR["00"]
    assert max(out, key=out.get) == "00"


def test_matches_the_array_implementation():
    from repro.core import PMF, Marginal, bayesian_reconstruction

    prior = {"000": 0.3, "011": 0.2, "101": 0.25, "110": 0.15, "111": 0.1}
    marginals = [
        ((0, 1), {"00": 0.5, "11": 0.3, "01": 0.2}),
        ((1, 2), {"00": 0.6, "01": 0.1, "11": 0.3}),
    ]
    expected = reference.reconstruct(prior, marginals)
    got = bayesian_reconstruction(
        PMF(prior), [Marginal(q, PMF(m)) for q, m in marginals]
    )
    assert dict(got.items()) == pytest.approx(expected, abs=1e-12)
