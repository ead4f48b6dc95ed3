"""Tests for the single-letterization audit.

The load-bearing check: the letter law assembled by literal summation over
messages and observation histories must equal state-pmf x policy_a x
policy_b x strategy-channel for every time and every past-state sequence.
The two sides share no code (different loops, different axis order), so
agreement at 1e-12 is evidence, not tautology. The sweep's array route is in
turn held to the literal one-float-at-a-time loop in reference.py, byte for
byte.
"""

import itertools
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fsmac.converse as converse
from fsmac.converse import (
    ConverseAudit,
    EncoderMaps,
    alpha_sigma_weights,
    random_encoders,
    sigma_average_pentagon,
    sigma_string,
    verify_factorization,
)
from fsmac.errors import GuardError, ValidationError
from fsmac.examples import load
from fsmac.model import induced_strategy_channel
from fsmac.optimize import OptimizerConfig, _Objective, maximize_sum_rate
from fsmac.rates import TeamPolicy, joint_law, pentagon
from fsmac.rng import ROLE_ENCODER, stream

from conftest import random_spec, spec_with
from reference import factorized_law, literal_law, sigma_policy

BUNDLED = ("mod2-adder-noiseless", "mod2-adder-bsc01", "null-channel", "stateless-mac")


def one_slice(spec, maps, t, sigma) -> tuple:
    """The sweep's literal law and induced policy of one (t, past) slice."""
    sigmas = np.array(sigma, dtype=np.int64).reshape(1, t - 1)
    pi_a, pi_b = converse._policies(spec, maps, t, sigmas)
    return converse._literal_laws(spec, maps, t, sigmas)[0], TeamPolicy(pi_a=pi_a[0], pi_b=pi_b[0])


def sigma_digits(text: str) -> tuple:
    """The past-state sequence a sigma_string serializes."""
    if "," in text:
        return tuple(int(c) for c in text.removesuffix(",").split(","))
    return tuple(int(c) for c in text)


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
    # the count stops at the cap: a huge blocklength is refused at once,
    # not after summing ever larger integers
    with pytest.raises(GuardError, match="history sweep guard: blocklength 1000000 "
                                         "needs more than 4096"):
        alpha_sigma_weights(spec, 10**6)


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
    with pytest.raises(GuardError, match="encoder map guard: blocklength 1000000 "
                                         "needs more than 1000000"):
        random_encoders(spec, 10**6, 2, 2, rng)


_NO_MESSAGE_ENTRIES = {
    "verify_factorization": lambda spec, chan, maps: verify_factorization(spec, maps, chan),
    "sigma_average_pentagon": lambda spec, chan, maps: sigma_average_pentagon(spec, maps, chan),
}


@pytest.mark.parametrize("entry", list(_NO_MESSAGE_ENTRIES))
def test_a_code_without_messages_is_refused_by_name(entry):
    # a code with no messages once built, and each entry then raised numpy's
    # "zero-size array to reduction operation maximum which has no identity"
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    for empty in (0, 1):   # sender a's code has no messages, then sender b's
        phis = [np.zeros((2, 1, 2), dtype=np.int64) for _ in range(2)]
        phis[empty] = np.zeros((0, 1, 2), dtype=np.int64)
        with pytest.raises(ValueError, match="^message counts must be >= 1$"):
            _NO_MESSAGE_ENTRIES[entry](spec, chan, EncoderMaps(phi_a=(phis[0],), phi_b=(phis[1],)))


def _audit_terms(spec, blocklength, codes):
    """The literal terms verify_factorization adds for codes 2 x 2-message
    codes, counted straight off _literal_laws' loop sizes."""
    per_code = sum(
        spec.size_s ** (t - 1) * (2 * spec.size_sa ** (t - 1)) * (2 * spec.size_sb ** (t - 1))
        * spec.size_s * spec.size_sa * spec.size_sb * spec.size_y
        for t in range(1, blocklength + 1))
    return per_code * codes


def test_audit_work_guard_admits_the_cap_and_refuses_one_more_code(monkeypatch):
    spec = load("mod2-adder-bsc01")
    # the benchmark's audit: n 3, 50 codes
    assert _audit_terms(spec, 3, 50) == 233_600
    converse.check_audit_work(spec, 3, 2, 2, 50)
    # n 7 at 14 codes is the last count under the cap; nothing is run
    assert _audit_terms(spec, 7, 14) <= converse.AUDIT_TERM_CAP < _audit_terms(spec, 7, 15)
    converse.check_audit_work(spec, 7, 2, 2, 14)
    with pytest.raises(GuardError, match="converse work guard: blocklength 7 over 15 codes "
                                         f"adds more than {converse.AUDIT_TERM_CAP}"):
        converse.check_audit_work(spec, 7, 2, 2, 15)
    # a count exactly at the cap is admitted
    monkeypatch.setattr(converse, "AUDIT_TERM_CAP", _audit_terms(spec, 3, 50))
    converse.check_audit_work(spec, 3, 2, 2, 50)
    with pytest.raises(GuardError, match="converse work guard"):
        converse.check_audit_work(spec, 3, 2, 2, 51)


def test_audit_work_guard_leaves_the_older_guards_first():
    spec = load("mod2-adder-bsc01")
    # each older guard still names a refused input first, with its own message
    with pytest.raises(ValueError, match="blocklength must be >= 1"):
        converse.check_audit_work(spec, 0, 2, 2, 1)
    with pytest.raises(GuardError, match="encoder map guard: blocklength 1000000 "):
        converse.check_audit_work(spec, 10**6, 2, 2, 1)
    # n 13: 65,528 table cells pass, 8191 pasts do not
    with pytest.raises(GuardError, match="history sweep guard: blocklength 13 "):
        converse.check_audit_work(spec, 13, 2, 2, 1)


def test_history_guard_trips_before_the_channel_is_built(monkeypatch):
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    maps = random_encoders(spec, 13, 2, 2, stream(5, 0, ROLE_ENCODER))   # 8191 pasts

    def refuse(*args, **kwargs):
        raise AssertionError("strategy channel read before the history guard")

    # the sweeps take the channel; what reads it is the objective and the
    # audit's factorized laws, rates.product_law, which reads q
    monkeypatch.setattr(converse, "_Objective", refuse)
    monkeypatch.setattr(converse, "product_law", refuse)
    for sweep in (verify_factorization, sigma_average_pentagon):
        with pytest.raises(GuardError, match="history sweep guard: blocklength 13 "):
            sweep(spec, maps, chan)
        assert "q" not in vars(chan)


def test_induced_policy_matches_dict_counting_oracle(rng):
    spec = random_spec(rng, sizes=dict(xa=2, xb=3, s=2, sa=2, sb=2, y=2))
    maps = random_encoders(spec, 3, 3, 2, stream(7, 0, ROLE_ENCODER))
    t, sigma = 3, (1, 0)
    _, policy = one_slice(spec, maps, t, sigma)

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
        _, policy = one_slice(spec, maps, t, sigma)
        identity_id = 0 + 2 * 1  # digits little-endian
        assert policy.pi_a[identity_id] == pytest.approx(1.0)
        assert policy.pi_b[identity_id] == pytest.approx(1.0)


def test_policy_argument_validation(rng, monkeypatch):
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    maps = random_encoders(spec, 2, 2, 2, rng)
    # tables that do not fit the spec: over 3 observation symbols for a
    # 2-symbol sender, or sending inputs 2 and 3 for a binary one, once gave
    # a misleading policy length, a numpy matmul error or a bare IndexError
    wide = random_encoders(random_spec(rng, sizes=dict(xa=2, xb=2, s=2, sa=3, sb=2, y=2)),
                           2, 2, 2, rng)
    loud = EncoderMaps(phi_a=maps.phi_a, phi_b=tuple(phi + 2 for phi in maps.phi_b))
    # the first misfit is named in time order, sender a before b
    late = EncoderMaps(phi_a=(maps.phi_a[0], maps.phi_a[1] + 2), phi_b=loud.phi_b)
    both = EncoderMaps(phi_a=loud.phi_b, phi_b=loud.phi_b)

    def refuse(*args, **kwargs):
        raise AssertionError("objective or law built before the tables were checked")

    monkeypatch.setattr(converse, "_Objective", refuse)
    monkeypatch.setattr(converse, "product_law", refuse)
    for bad, sender in ((wide, "a"), (loud, "b"), (late, "b"), (both, "a")):
        message = (rf"^sender {sender}'s time-1 table must map 2 observations to inputs "
                   r"in \[0, 2\)$")
        for audit in (verify_factorization, sigma_average_pentagon):
            with pytest.raises(ValueError, match=message):
                audit(spec, bad, chan)
    with pytest.raises(ValueError, match="^sender a's time-2 table "):
        verify_factorization(spec, EncoderMaps(phi_a=late.phi_a, phi_b=maps.phi_b), chan)


def _sparse_spec(seed: int):
    """A random spec of 3 states whose observation rows include point masses
    and a point mass beside a 5e-324 entry, so some histories have
    probability 0 and some underflow."""
    spec = random_spec(np.random.default_rng(seed), sizes=dict(xa=2, xb=3, s=3, sa=2, sb=2, y=2))
    obs_a, obs_b = spec.obs_a.copy(), spec.obs_b.copy()
    obs_a[1], obs_b[2], obs_b[0] = [1.0, 0.0], [0.0, 1.0], [1.0, 5e-324]
    return spec_with(spec, obs_a=obs_a, obs_b=obs_b)


@pytest.mark.parametrize("name", [*BUNDLED, "sparse-0", "sparse-1"])
def test_array_route_matches_the_loop_byte_for_byte(monkeypatch, name):
    spec = _sparse_spec(int(name[-1])) if name.startswith("sparse") else load(name)
    for k, (ma, mb) in enumerate(((3, 1), (1, 4))):
        maps = random_encoders(spec, 4, ma, mb, stream(41, k, ROLE_ENCODER))
        for t in range(1, 5):
            pasts = list(itertools.product(range(spec.size_s), repeat=t - 1))
            laws = [literal_law(spec, maps, t, sigma).tobytes() for sigma in pasts]
            pmfs = [[pi.tobytes() for pi in sigma_policy(spec, maps, t, sigma)]
                    for sigma in pasts]
            sigmas = np.array(pasts, dtype=np.int64).reshape(len(pasts), t - 1)
            # all of a time's pasts as one batch, and each past alone; a
            # budget of 5 cells cuts a chunk at every (past, a row, b row)
            for budget in (converse.SWEEP_CELL_BUDGET, 5):
                monkeypatch.setattr(converse, "SWEEP_CELL_BUDGET", budget)
                for rows in [slice(None)] + [slice(i, i + 1) for i in range(len(pasts))]:
                    got = converse._literal_laws(spec, maps, t, sigmas[rows])
                    pi_a, pi_b = converse._policies(spec, maps, t, sigmas[rows])
                    assert [law.tobytes() for law in got] == laws[rows]
                    assert [[a.tobytes(), b.tobytes()] for a, b in zip(pi_a, pi_b)] == pmfs[rows]
                monkeypatch.undo()


def test_sweep_does_not_depend_on_its_cuts(rng):
    # groups of one past and chunks of one (past, a row, b row) give every
    # audit and outer bound bit for bit
    for k, spec in enumerate((load("mod2-adder-bsc01"), _sparse_spec(2), random_spec(rng))):
        chan = induced_strategy_channel(spec)
        maps = random_encoders(spec, 3, 3, 2, stream(43, k, ROLE_ENCODER))
        want = (verify_factorization(spec, maps, chan), sigma_average_pentagon(spec, maps, chan))
        for budget in (1, 100):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(converse, "SWEEP_CELL_BUDGET", budget)
                assert (verify_factorization(spec, maps, chan),
                        sigma_average_pentagon(spec, maps, chan)) == want, (k, budget)


def test_literal_terms_run_within_the_cell_budget(monkeypatch):
    # one past at t = 4 of an 8 x 8-message code has 64 x 64 (message,
    # history) row pairs of 16 terms each: 65,536 terms, 512 kB for each
    # array over them. Chunks of at most SWEEP_CELL_BUDGET terms keep the
    # sweep to a few arrays of that size
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    chan.q  # built before tracing starts
    maps = random_encoders(spec, 4, 8, 8, stream(47, 0, ROLE_ENCODER))
    monkeypatch.setattr(converse, "SWEEP_CELL_BUDGET", 1 << 10)
    for audit in (lambda: converse._literal_laws(spec, maps, 4, np.array([[1, 0, 1]])),
                  lambda: verify_factorization(spec, maps, chan)):
        tracemalloc.start()
        try:
            found = audit()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * converse.SWEEP_CELL_BUDGET * 8, peak
    assert found.max_deviation < 1e-12


def test_refusals_name_the_first_past_as_the_slice_route_did(monkeypatch):
    spec = load("mod2-adder-bsc01")
    maps = random_encoders(spec, 3, 2, 2, stream(53, 0, ROLE_ENCODER))
    policies = converse._policies

    # sender a's pmf of one past sums to 1.5: the first or the second past
    # of time 2, so a group's refusal comes before or after a good past
    for past in ((0,), (1,)):
        def skewed(spec, maps, t, sigmas):
            pi_a, pi_b = policies(spec, maps, t, sigmas)
            pi_a[np.flatnonzero((sigmas == past).all(axis=1)) if t == 2 else []] *= 1.5
            return pi_a, pi_b

        pi_a, pi_b = sigma_policy(spec, maps, 2, past)
        with pytest.raises(ValidationError) as slice_route:
            TeamPolicy(pi_a=pi_a * 1.5, pi_b=pi_b)
        monkeypatch.setattr(converse, "_policies", skewed)
        for audit in (verify_factorization, sigma_average_pentagon):
            with pytest.raises(ValidationError) as sweep:
                audit(spec, maps, induced_strategy_channel(spec))
            assert str(sweep.value) == str(slice_route.value) != ""
        monkeypatch.undo()
    # a q off by 1e-8 in mass: the first past's joint law is refused
    chan = induced_strategy_channel(spec)
    vars(chan)["q"] = chan.q * (1 + 1e-8)
    pi_a, pi_b = sigma_policy(spec, maps, 1, ())
    with pytest.raises(ValidationError, match="joint law: total mass") as slice_route:
        factorized_law(spec, chan, TeamPolicy(pi_a=pi_a, pi_b=pi_b))
    with pytest.raises(ValidationError) as sweep:
        verify_factorization(spec, maps, chan)
    assert str(sweep.value) == str(slice_route.value)


def test_brute_force_law_is_a_pmf(rng):
    spec = load("mod2-adder-bsc01")
    maps = random_encoders(spec, 3, 2, 2, rng)
    law, _ = one_slice(spec, maps, 3, (1, 1))
    assert law.shape == (4, 4, 2, 2)
    assert np.all(law >= 0)
    assert law.sum() == pytest.approx(1.0, abs=1e-12)


def test_factorization_holds_on_random_codes(rng):
    # the central claim, checked at every (time, past) of several codes
    for trial in range(3):
        spec = random_spec(rng, sizes=None)
        maps = random_encoders(spec, 3, 2, 2, stream(11, trial, ROLE_ENCODER))
        audit = verify_factorization(spec, maps, induced_strategy_channel(spec))
        assert isinstance(audit, ConverseAudit)
        assert audit.checks == 1 + spec.size_s + spec.size_s ** 2
        assert audit.max_deviation < 1e-12, (trial, audit)


def test_factorization_holds_on_bundled_specs():
    for name in ("mod2-adder-noiseless", "mod2-adder-bsc01", "stateless-mac"):
        spec = load(name)
        maps = random_encoders(spec, 3, 2, 3, stream(23, hash(name) % 1000, ROLE_ENCODER))
        audit = verify_factorization(spec, maps, induced_strategy_channel(spec))
        assert audit.max_deviation < 1e-12, name


def test_mismatched_policy_is_detected(rng):
    # negative control: the comparison must be able to fail
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    maps = random_encoders(spec, 2, 2, 2, stream(3, 0, ROLE_ENCODER))
    other = random_encoders(spec, 2, 2, 2, stream(3, 1, ROLE_ENCODER))
    t, sigma = 2, (0,)
    literal, policy = one_slice(spec, maps, t, sigma)
    wrong = factorized_law(spec, chan, one_slice(spec, other, t, sigma)[1])
    right = factorized_law(spec, chan, policy)
    assert np.abs(literal - right).max() < 1e-12
    assert np.abs(literal - wrong).max() > 1e-3


def test_sigma_average_matches_manual_average(rng):
    spec = random_spec(rng)
    chan = induced_strategy_channel(spec)
    maps = random_encoders(spec, 3, 2, 2, stream(19, 0, ROLE_ENCODER))
    averaged = sigma_average_pentagon(spec, maps, chan)
    assert "q" not in vars(chan)   # the outer bound reads the channel's factors alone
    obj = _Objective(chan)
    avg_a = avg_b = avg_sum = 0.0
    for t in range(1, maps.blocklength + 1):
        for sigma in itertools.product(range(spec.size_s), repeat=t - 1):
            prob = 1.0
            for s in sigma:
                prob *= spec.state_pmf[s]
            alpha = prob / maps.blocklength
            pi_a, pi_b = sigma_policy(spec, maps, t, sigma)
            policy = TeamPolicy(pi_a=pi_a, pi_b=pi_b)
            pent = pentagon(joint_law(spec, chan, policy))
            (factored,) = obj.pentagons(policy.pi_a[None], policy.pi_b[None])
            for bound in ("bound_a", "bound_b", "bound_sum"):
                assert abs(getattr(factored, bound) - getattr(pent, bound)) < 1e-12
            avg_a += alpha * pent.bound_a
            avg_b += alpha * pent.bound_b
            avg_sum += alpha * pent.bound_sum
    assert averaged.bound_a == pytest.approx(avg_a, abs=1e-10)
    assert averaged.bound_b == pytest.approx(avg_b, abs=1e-10)
    assert averaged.bound_sum == pytest.approx(avg_sum, abs=1e-10)


def test_sigma_average_holds_one_slice_at_a_time():
    # 21 (time, past) slices at n = 3; stacking their laws took 79 laws' bytes
    spec = random_spec(np.random.default_rng(0),
                       sizes=dict(xa=2, xb=2, s=4, sa=6, sb=6, y=4))
    # q is as large as one letter law; read off a second channel, so the
    # traced one never builds it
    law_bytes = induced_strategy_channel(spec).q.nbytes
    chan = induced_strategy_channel(spec)
    maps = random_encoders(spec, 3, 2, 2, stream(31, 0, ROLE_ENCODER))
    tracemalloc.start()
    try:
        sigma_average_pentagon(spec, maps, chan)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * law_bytes, (peak, law_bytes)
    assert "q" not in vars(chan)


def test_converse_audit_demo_runs(capsys, monkeypatch):
    demo = Path(__file__).resolve().parents[1] / "demos" / "converse_audit.py"
    monkeypatch.setattr(sys, "argv", [str(demo)])
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    assert "avg sum bound" in out
    assert "BOUND BROKEN" not in out


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
