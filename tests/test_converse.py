"""Tests for the single-letterization audit.

The load-bearing check: the letter law assembled by literal summation over
messages and observation histories must equal state-pmf x policy_a x
policy_b x strategy-channel for every time and every past-state sequence.
The two sides share no code (different loops, different axis order), so
agreement at 1e-12 is evidence, not tautology.
"""

import itertools

import numpy as np
import pytest

from fsmac.converse import (
    ConverseAudit,
    EncoderMaps,
    alpha_sigma_weights,
    brute_force_conditional,
    factorized_conditional,
    induced_sigma_policy,
    random_encoders,
    sigma_average_pentagon,
    sigma_digits,
    sigma_string,
    verify_factorization,
)
from fsmac.errors import GuardError
from fsmac.examples import load
from fsmac.model import induced_strategy_channel
from fsmac.optimize import OptimizerConfig, maximize_sum_rate
from fsmac.rates import joint_law, pentagon
from fsmac.rng import ROLE_ENCODER, stream

from conftest import random_spec


def test_sigma_string_roundtrip(rng):
    assert sigma_string(()) == ""
    assert sigma_string((0, 1, 2)) == "012"
    assert sigma_digits("012") == (0, 1, 2)
    assert sigma_digits("") == ()
    assert sigma_string((11, 3)) == "11,3"
    assert sigma_digits("11,3") == (11, 3)
    # a one-state past above 9 must not read as two single-digit states
    assert sigma_string((12,)) == "12,"
    assert sigma_string((1, 2)) == "12"
    for digits in [(12,), (1, 2), (12, 1), (1, 12), (10,), (0,)]:
        assert sigma_digits(sigma_string(digits)) == digits
    with pytest.raises(ValueError, match="nonnegative"):
        sigma_string((-1,))
    # every (time, past) of 13 states keeps its own key: 1 + 13 + 13**2 pasts
    spec = random_spec(rng, sizes=dict(xa=2, xb=2, s=13, sa=1, sb=1, y=2))
    weights = alpha_sigma_weights(spec, 3)
    assert len(weights) == 1 + 13 + 169
    assert sum(weights.values()) == pytest.approx(1.0)


def test_alpha_weights_frozen_binary_example():
    spec = load("mod2-adder-noiseless")
    weights = alpha_sigma_weights(spec, 2)
    assert weights == {"": pytest.approx(0.5), "0": pytest.approx(0.25),
                       "1": pytest.approx(0.25)}


def test_alpha_weights_sum_to_one(rng):
    spec = random_spec(rng)
    weights = alpha_sigma_weights(spec, 3)
    assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
    assert len(weights) == 1 + spec.size_s + spec.size_s ** 2
    with pytest.raises(ValueError, match="blocklength"):
        alpha_sigma_weights(spec, 0)


def test_encoder_maps_validation(rng):
    spec = load("mod2-adder-bsc01")
    maps = random_encoders(spec, 3, 2, 2, rng)
    assert maps.blocklength == 3
    assert maps.messages_a == maps.messages_b == 2
    assert maps.phi_a[2].shape == (2, 4, 2)
    with pytest.raises(ValueError, match="history axis"):
        EncoderMaps(phi_a=(np.zeros((2, 3, 2), dtype=np.int64),),
                    phi_b=(np.zeros((2, 1, 2), dtype=np.int64),))
    with pytest.raises(ValueError, match="integer array"):
        EncoderMaps(phi_a=(np.zeros((2, 1, 2)),),
                    phi_b=(np.zeros((2, 1, 2), dtype=np.int64),))
    with pytest.raises(ValueError, match="blocklength"):
        random_encoders(spec, 0, 2, 2, rng)
    with pytest.raises(ValueError, match="message counts"):
        random_encoders(spec, 2, 0, 2, rng)
    with pytest.raises(GuardError, match="encoder map guard"):
        random_encoders(spec, 25, 2, 2, rng)


def test_induced_policy_matches_dict_counting_oracle(rng):
    spec = random_spec(rng, sizes=dict(xa=2, xb=3, s=2, sa=2, sb=2, y=2))
    maps = random_encoders(spec, 3, 3, 2, stream(7, 0, ROLE_ENCODER))
    t, sigma = 3, (1, 0)
    policy = induced_sigma_policy(spec, maps, t, sigma)

    def oracle(phi, obs_rows, input_size, obs_size, messages):
        acc = {}
        for w in range(messages):
            for hist in itertools.product(range(obs_size), repeat=t - 1):
                prob = 1.0 / messages
                for step, sym in zip(sigma, hist):
                    prob *= obs_rows[step][sym]
                idx = hist[0] + obs_size * hist[1]
                table = tuple(int(v) for v in phi[t - 1][w, idx])
                acc[table] = acc.get(table, 0.0) + prob
        out = np.zeros(input_size ** obs_size)
        for table, prob in acc.items():
            sid = 0
            for digit in reversed(table):
                sid = sid * input_size + digit
            out[sid] += prob
        return out

    expect_a = oracle(maps.phi_a, spec.obs_a, spec.size_xa, spec.size_sa, maps.messages_a)
    expect_b = oracle(maps.phi_b, spec.obs_b, spec.size_xb, spec.size_sb, maps.messages_b)
    np.testing.assert_allclose(policy.pi_a, expect_a, atol=1e-15)
    np.testing.assert_allclose(policy.pi_b, expect_b, atol=1e-15)


def test_history_blind_single_message_code_gives_point_mass():
    spec = load("mod2-adder-noiseless")
    # one message, identity table at every time regardless of history
    phi = tuple(
        np.tile(np.array([0, 1], dtype=np.int64), (1, 2 ** k, 1))
        for k in range(3)
    )
    maps = EncoderMaps(phi_a=phi, phi_b=phi)
    for t, sigma in [(1, ()), (2, (0,)), (3, (1, 0))]:
        policy = induced_sigma_policy(spec, maps, t, sigma)
        identity_id = 0 + 2 * 1  # digits little-endian
        assert policy.pi_a[identity_id] == pytest.approx(1.0)
        assert policy.pi_b[identity_id] == pytest.approx(1.0)


def test_policy_argument_validation(rng):
    spec = load("mod2-adder-noiseless")
    maps = random_encoders(spec, 2, 2, 2, rng)
    with pytest.raises(ValueError, match="time"):
        induced_sigma_policy(spec, maps, 3, (0, 0))
    with pytest.raises(ValueError, match="past states"):
        induced_sigma_policy(spec, maps, 2, ())
    with pytest.raises(ValueError, match="state alphabet"):
        induced_sigma_policy(spec, maps, 2, (5,))
    with pytest.raises(ValueError, match="past states"):
        brute_force_conditional(spec, maps, 1, (0,))


def test_brute_force_law_is_a_pmf(rng):
    spec = load("mod2-adder-bsc01")
    maps = random_encoders(spec, 3, 2, 2, rng)
    law = brute_force_conditional(spec, maps, 3, (1, 1))
    assert law.shape == (4, 4, 2, 2)
    assert np.all(law >= 0)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)


def test_factorization_holds_on_random_codes(rng):
    # the central claim, checked at every (time, past) of several codes
    for trial in range(3):
        spec = random_spec(rng, sizes=None)
        maps = random_encoders(spec, 3, 2, 2, stream(11, trial, ROLE_ENCODER))
        audit = verify_factorization(spec, maps)
        assert isinstance(audit, ConverseAudit)
        assert audit.checks == 1 + spec.size_s + spec.size_s ** 2
        assert audit.max_deviation < 1e-12, (trial, audit)


def test_factorization_holds_on_bundled_specs():
    for name in ("mod2-adder-noiseless", "mod2-adder-bsc01", "stateless-mac"):
        spec = load(name)
        maps = random_encoders(spec, 3, 2, 3, stream(23, hash(name) % 1000, ROLE_ENCODER))
        audit = verify_factorization(spec, maps)
        assert audit.max_deviation < 1e-12, name


def test_mismatched_policy_is_detected(rng):
    # negative control: the comparison must be able to fail
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    maps = random_encoders(spec, 2, 2, 2, stream(3, 0, ROLE_ENCODER))
    other = random_encoders(spec, 2, 2, 2, stream(3, 1, ROLE_ENCODER))
    t, sigma = 2, (0,)
    literal = brute_force_conditional(spec, maps, t, sigma)
    wrong = factorized_conditional(spec, chan, induced_sigma_policy(spec, other, t, sigma))
    right = factorized_conditional(spec, chan, induced_sigma_policy(spec, maps, t, sigma))
    assert np.abs(literal - right).max() < 1e-12
    assert np.abs(literal - wrong).max() > 1e-3


def test_sigma_average_matches_manual_average(rng):
    spec = random_spec(rng)
    chan = induced_strategy_channel(spec)
    maps = random_encoders(spec, 3, 2, 2, stream(19, 0, ROLE_ENCODER))
    stacked = sigma_average_pentagon(spec, maps, chan)
    avg_a = avg_b = avg_sum = 0.0
    for t in range(1, maps.blocklength + 1):
        for sigma in itertools.product(range(spec.size_s), repeat=t - 1):
            prob = 1.0
            for s in sigma:
                prob *= spec.state_pmf[s]
            alpha = prob / maps.blocklength
            pent = pentagon(joint_law(spec, chan, induced_sigma_policy(spec, maps, t, sigma)))
            avg_a += alpha * pent.bound_a
            avg_b += alpha * pent.bound_b
            avg_sum += alpha * pent.bound_sum
    assert stacked.bound_a == pytest.approx(avg_a, abs=1e-10)
    assert stacked.bound_b == pytest.approx(avg_b, abs=1e-10)
    assert stacked.bound_sum == pytest.approx(avg_sum, abs=1e-10)


def test_code_bounds_never_exceed_the_policy_optimum():
    # every code's averaged sum bound sits under the one-shot maximum
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    best = maximize_sum_rate(spec, chan, OptimizerConfig(restarts=8, seed=13)).value
    for trial in range(4):
        maps = random_encoders(spec, 3, 2, 2, stream(29, trial, ROLE_ENCODER))
        pent = sigma_average_pentagon(spec, maps, chan)
        assert pent.bound_sum <= best + 1e-9
        assert pent.bound_sum >= 0.0
