"""Monte Carlo simulator tests.

The decoder is cross-checked against the subset-by-subset reference
predicate on every message pair, and the Wilson interval against the
statsmodels and scipy implementations.
"""

import tracemalloc

import numpy as np
import pytest

from fsmac import mcsim
from fsmac.errors import GuardError
from fsmac.examples import load
from fsmac.mcsim import (
    OUTCOME_AMBIGUOUS,
    OUTCOME_NO_TYPICAL,
    OUTCOME_OK,
    OUTCOME_WRONG,
    SimConfig,
    _DecodeContext,
    _listed_scores,
    _pair_scores,
    _typical_pairs,
    estimate_error,
    generate_codebooks,
    run_trial,
    typicality_check,
    wilson_interval,
)
from fsmac.model import induced_strategy_channel
from fsmac.rates import TeamPolicy, joint_law
from fsmac.rng import ROLE_CODEBOOKS, ROLE_TRIAL, stream

from conftest import random_spec


def two_strategy_policy():
    # uniform over the identity and flip tables; point mass is id 0 elsewhere
    pi = np.zeros(4)
    pi[[1, 2]] = 0.5  # little-endian digit ids: [1,0] -> 1, [0,1] -> 2
    return TeamPolicy(pi_a=pi, pi_b=pi.copy())


# ---------------------------------------------------------------- config

def test_message_counts():
    cfg = SimConfig(blocklength=12, rate_a=0.2, rate_b=0.2)
    assert cfg.messages_a == 6  # ceil(2**2.4)
    assert cfg.messages_b == 6
    assert SimConfig(blocklength=4, rate_a=0.2, rate_b=0.0).messages_a == 2
    assert SimConfig(blocklength=4, rate_a=0.2, rate_b=0.0).messages_b == 1
    assert SimConfig(blocklength=3, rate_a=1.0, rate_b=0.0).messages_a == 8
    assert SimConfig(blocklength=6, rate_a=1 / 3, rate_b=0.0).messages_a == 4


def test_config_validation():
    with pytest.raises(ValueError, match="blocklength"):
        SimConfig(blocklength=0, rate_a=0.1, rate_b=0.1)
    with pytest.raises(ValueError, match="rates"):
        SimConfig(blocklength=4, rate_a=-0.1, rate_b=0.1)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="rates"):
            SimConfig(blocklength=4, rate_a=0.1, rate_b=bad)
    with pytest.raises(ValueError, match="epsilon"):
        SimConfig(blocklength=4, rate_a=0.1, rate_b=0.1, epsilon=0.0)
    with pytest.raises(ValueError, match="decoder"):
        SimConfig(blocklength=4, rate_a=0.1, rate_b=0.1, decoder="viterbi")
    with pytest.raises(GuardError, match="message guard"):
        SimConfig(blocklength=30, rate_a=1.0, rate_b=0.0)
    with pytest.raises(GuardError, match="message guard"):
        SimConfig(blocklength=2000, rate_a=0.0, rate_b=1.0)  # 2.0 ** 2000 overflows
    with pytest.raises(GuardError, match="pair guard"):
        SimConfig(blocklength=15, rate_a=0.9, rate_b=0.9)
    with pytest.raises(GuardError, match="codebook guard"):
        SimConfig(blocklength=10**9, rate_a=0.0, rate_b=0.0)
    with pytest.raises(GuardError, match="trial guard"):
        SimConfig(blocklength=4, rate_a=0.1, rate_b=0.1, trials=(1 << 20) + 1)


# ---------------------------------------------------------------- wilson

def test_wilson_matches_statsmodels():
    statsmodels = pytest.importorskip("statsmodels.stats.proportion")
    for errors, trials in [(0, 50), (50, 50), (7, 200), (1, 3), (123, 1000)]:
        low, high = wilson_interval(errors, trials)
        ref_low, ref_high = statsmodels.proportion_confint(
            errors, trials, alpha=0.05, method="wilson"
        )
        assert low == pytest.approx(float(ref_low), abs=1e-12)
        assert high == pytest.approx(float(ref_high), abs=1e-12)


def test_wilson_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    for errors, trials in [(0, 50), (50, 50), (7, 200), (1, 3), (123, 1000)]:
        low, high = wilson_interval(errors, trials)
        ref = stats.binomtest(errors, trials).proportion_ci(0.95, method="wilson")
        assert low == pytest.approx(float(ref.low), abs=1e-12)
        assert high == pytest.approx(float(ref.high), abs=1e-12)


def test_wilson_edges_and_validation():
    low, high = wilson_interval(0, 10)
    assert low == 0.0 and 0 < high < 0.35
    low, high = wilson_interval(10, 10)
    assert high == 1.0 and 0.65 < low < 1
    with pytest.raises(ValueError):
        wilson_interval(-1, 10)
    with pytest.raises(ValueError):
        wilson_interval(11, 10)


# ---------------------------------------------------------------- codebooks

def test_codebooks_deterministic_and_policy_shaped():
    policy = two_strategy_policy()
    cfg = SimConfig(blocklength=16, rate_a=0.375, rate_b=0.25, seed=9)
    first = generate_codebooks(policy, cfg)
    second = generate_codebooks(policy, cfg)
    assert np.array_equal(first.ids_a, second.ids_a)
    assert np.array_equal(first.ids_b, second.ids_b)
    assert first.ids_a.shape == (cfg.messages_a, 16)
    assert set(np.unique(first.ids_a)) <= {1, 2}  # support of the policy only
    assert not first.ids_a.flags.writeable


def test_codebook_frequencies_match_policy():
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    policy = TeamPolicy(pi_a=pi, pi_b=pi.copy())
    cfg = SimConfig(blocklength=20, rate_a=0.3, rate_b=0.3, seed=4)
    books = generate_codebooks(policy, cfg)
    draws = books.ids_a.size
    for sid, prob in enumerate(pi):
        count = int((books.ids_a == sid).sum())
        sigma = np.sqrt(draws * prob * (1 - prob))
        assert abs(count - draws * prob) <= 4 * sigma + 1, sid


# ---------------------------------------------------------------- typicality

def test_reference_typicality_on_uniform_product_law():
    # all four letters independent and uniform: empirical rate is exactly
    # the entropy for every subset, so any epsilon accepts
    spec = load("null-channel")
    chan = induced_strategy_channel(spec)
    # restrict to the two constant tables so each is drawn with probability 1/2
    pi = np.array([0.5, 0.0, 0.0, 0.5])
    policy = TeamPolicy(pi_a=pi, pi_b=pi.copy())
    law = joint_law(spec, chan, policy)
    seqs = dict(
        s=np.array([0, 1, 0, 1, 1]),
        ta=np.array([0, 3, 3, 0, 0]),
        tb=np.array([3, 3, 0, 0, 3]),
        y=np.array([1, 1, 0, 0, 1]),
    )
    assert typicality_check(seqs, law, epsilon=1e-9)


def test_reference_typicality_rejects_off_support_sequences():
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    policy = two_strategy_policy()
    law = joint_law(spec, chan, policy)
    s_seq = np.zeros(4, dtype=np.int64)
    a_seq = np.array([1, 1, 2, 2])
    b_seq = np.array([1, 2, 1, 2])
    # the noiseless adder output is forced; build it, then corrupt one letter
    y_ok = np.array([int(law.p[0, a, b].argmax()) for a, b in zip(a_seq, b_seq)])
    def check(**over):
        seqs = dict(s=s_seq, ta=a_seq, tb=b_seq, y=y_ok) | over
        return typicality_check(seqs, law, epsilon=0.3)
    assert check()
    y_bad = y_ok.copy()
    y_bad[0] ^= 1
    assert not check(y=y_bad)
    # a strategy id the policy never uses is off support as well
    a_off = a_seq.copy()
    a_off[0] = 0
    assert not check(ta=a_off)


def test_typicality_point_mass_and_huge_epsilon():
    base = np.zeros((1, 2, 1, 2))
    base[0, 1, 0, 1] = 1.0
    constant = dict(s=np.zeros(3, dtype=int), ta=np.ones(3, dtype=int),
                    tb=np.zeros(3, dtype=int), y=np.ones(3, dtype=int))
    assert typicality_check(constant, base, epsilon=1e-12)
    # any positive-probability sequence passes once epsilon dominates
    spread = np.full((1, 2, 1, 2), 0.25)
    wild = dict(s=np.zeros(4, dtype=int), ta=np.array([0, 1, 1, 1]),
                tb=np.zeros(4, dtype=int), y=np.array([1, 1, 1, 0]))
    assert typicality_check(wild, spread, epsilon=3.0)
    with pytest.raises(ValueError, match="epsilon"):
        typicality_check(constant, base, epsilon=0.0)
    with pytest.raises(ValueError, match="length"):
        typicality_check(dict(constant, s=np.zeros(2, dtype=int)), base, 0.1)


def test_vectorized_mask_matches_reference(rng, monkeypatch):
    # every (pair, trial) decision must agree with the subset-by-subset path
    dense = random_spec(rng, sizes=dict(xa=2, xb=2, s=2, sa=2, sb=1, y=3))
    dense_chan = induced_strategy_channel(dense)
    dense_policy = TeamPolicy(pi_a=rng.dirichlet(np.ones(dense_chan.space_a.count)),
                              pi_b=rng.dirichlet(np.ones(dense_chan.space_b.count)))
    adder = load("mod2-adder-noiseless")
    constants = np.array([0.5, 0.0, 0.0, 0.5])
    cases = [
        (dense, dense_chan, dense_policy, 6, (1 / 3, 1 / 6), 0.5, None),
        # constant strategies on the noiseless adder: the full-law block prunes
        (adder, induced_strategy_channel(adder), TeamPolicy(pi_a=constants, pi_b=constants),
         8, (0.5, 0.5), 0.05, "block"),
        # the dense spec at eps 0.3: the listed pair stages prune as well
        (dense, dense_chan, dense_policy, 8, (0.5, 0.5), 0.3, "listed"),
    ]
    entering = {}  # pairs that reach the full-law block and the listed stages

    def block(*args):
        entering.setdefault("block", args[-2].shape[0] * args[-1].shape[0])
        return _pair_scores(*args)

    def listed(*args):
        entering.setdefault("listed", args[-2].size)
        return _listed_scores(*args)

    monkeypatch.setattr(mcsim, "_pair_scores", block)
    monkeypatch.setattr(mcsim, "_listed_scores", listed)
    for spec, chan, policy, n, (ra, rb), eps, prunes in cases:
        cfg = SimConfig(blocklength=n, rate_a=ra, rate_b=rb, epsilon=eps, seed=2)
        ctx = _DecodeContext(spec, chan, policy)
        law = joint_law(spec, chan, policy)
        pruned = 0
        for trial in range(20):
            books = generate_codebooks(policy, cfg, stream(2, trial, ROLE_CODEBOOKS))
            trng = stream(2, trial, ROLE_TRIAL)
            s_seq = trng.choice(spec.size_s, size=n, p=spec.state_pmf)
            y_seq = np.array([trng.choice(spec.size_y, p=chan.q[s, a, b]) for s, a, b
                              in zip(s_seq, books.ids_a[0], books.ids_b[0])])
            entering.clear()
            rows, cols = _typical_pairs(ctx, books, s_seq, y_seq, eps)
            mask = np.zeros((cfg.messages_a, cfg.messages_b), dtype=bool)
            mask[rows, cols] = True
            # the list is the mask's pairs in row-major order, each once
            assert np.array_equal(np.column_stack([rows, cols]), np.argwhere(mask))
            for wa in range(cfg.messages_a):
                for wb in range(cfg.messages_b):
                    seqs = dict(s=s_seq, ta=books.ids_a[wa], tb=books.ids_b[wb], y=y_seq)
                    expect = typicality_check(seqs, law, eps)
                    assert bool(mask[wa, wb]) == expect, (prunes, trial, wa, wb)
            if prunes and 0 < mask.sum() < entering.get(prunes, 0):
                pruned += 1
        assert pruned >= 1 or prunes is None, prunes


def test_mask_allocates_no_pair_by_letter_array(rng):
    # at eps 100 every pair of a fully stochastic spec under uniform policies
    # reaches the listed stages; scoring them must not hold a (pairs, n) copy
    spec = random_spec(rng, sizes=dict(xa=2, xb=2, s=2, sa=2, sb=1, y=3))
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=np.full(chan.space_a.count, 1 / chan.space_a.count),
                        pi_b=np.full(chan.space_b.count, 1 / chan.space_b.count))
    n = 256
    cfg = SimConfig(blocklength=n, rate_a=6 / n, rate_b=6 / n, epsilon=100, seed=1)
    ctx = _DecodeContext(spec, chan, policy)
    books = generate_codebooks(policy, cfg)
    trng = stream(1, 0, ROLE_TRIAL)
    s_seq = trng.choice(spec.size_s, size=n, p=spec.state_pmf)
    y_seq = trng.integers(0, spec.size_y, size=n)
    pairs = cfg.messages_a * cfg.messages_b
    tracemalloc.start()
    try:
        rows, cols = _typical_pairs(ctx, books, s_seq, y_seq, cfg.epsilon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.size == pairs == 4096
    assert peak < pairs * n, peak  # one byte per pair and letter; a copy takes 8


def test_ml_scores_match_literal_sum(rng):
    # both gather orders: a long codebook against a short one, and the reverse
    spec = random_spec(rng, sizes=dict(xa=2, xb=3, s=2, sa=2, sb=1, y=3))
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=rng.dirichlet(np.ones(chan.space_a.count)),
                        pi_b=rng.dirichlet(np.ones(chan.space_b.count)))
    ctx = _DecodeContext(spec, chan, policy)
    n = 7
    for ra, rb in [(1.0, 0.3), (0.3, 1.0)]:
        cfg = SimConfig(blocklength=n, rate_a=ra, rate_b=rb, seed=4)
        books = generate_codebooks(policy, cfg)
        s_seq = rng.choice(spec.size_s, size=n, p=spec.state_pmf)
        y_seq = rng.integers(0, spec.size_y, size=n)
        scores = _pair_scores(ctx.logq, (0, 1, 2, 3), s_seq, y_seq,
                              books.ids_a, books.ids_b)
        assert scores.shape == (cfg.messages_a, cfg.messages_b)
        for wa in range(cfg.messages_a):
            for wb in range(cfg.messages_b):
                a, b = books.ids_a[wa], books.ids_b[wb]
                total = 0.0
                for t in range(n):
                    total += ctx.logq[s_seq[t], a[t], b[t], y_seq[t]]
                assert scores[wa, wb] == total / n, (ra, wa, wb)


# ---------------------------------------------------------------- trials

def test_single_message_noiseless_never_errs():
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    policy = two_strategy_policy()
    for decoder in ("typicality", "max_likelihood"):
        cfg = SimConfig(blocklength=8, rate_a=0.0, rate_b=0.0, trials=50,
                        seed=3, decoder=decoder, epsilon=0.4)
        report = estimate_error(spec, chan, policy, cfg)
        assert report.errors == 0, decoder
        assert report.error_rate == 0.0
        assert report.wilson_low == 0.0
        assert report.wilson_high < 0.12


def test_trial_outcome_fields():
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    policy = two_strategy_policy()
    cfg = SimConfig(blocklength=6, rate_a=1 / 6, rate_b=1 / 6, seed=7, epsilon=0.5)
    books = generate_codebooks(policy, cfg)
    out = run_trial(spec, chan, books, cfg, stream(7, 0, ROLE_TRIAL))
    assert out.outcome in (OUTCOME_OK, OUTCOME_NO_TYPICAL, OUTCOME_AMBIGUOUS, OUTCOME_WRONG)
    assert 0 <= out.truth[0] < cfg.messages_a
    assert 0 <= out.truth[1] < cfg.messages_b
    assert out.s_seq.shape == out.y_seq.shape == (6,)
    if out.outcome in (OUTCOME_OK, OUTCOME_WRONG):
        assert out.decoded is not None
    if out.outcome == OUTCOME_OK:
        assert out.decoded == out.truth


def test_error_decomposition_and_reproducibility():
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    policy = two_strategy_policy()
    cfg = SimConfig(blocklength=4, rate_a=0.5, rate_b=0.5, trials=120, seed=21,
                    epsilon=0.2)
    first = estimate_error(spec, chan, policy, cfg)
    second = estimate_error(spec, chan, policy, cfg)
    threaded = estimate_error(spec, chan, policy, cfg, threads=3)
    assert first == second == threaded
    assert first.errors == first.no_typical_count + first.decoder_ambiguous_count + first.wrong_decode_count
    assert first.error_rate == first.errors / cfg.trials
    assert first.wilson_low <= first.error_rate <= first.wilson_high
    other = estimate_error(spec, chan, policy,
                           SimConfig(blocklength=4, rate_a=0.5, rate_b=0.5,
                                     trials=120, seed=22, epsilon=0.2))
    assert other != first  # different seed should move something


@pytest.mark.parametrize("name, policy, n, rate, eps, counts", [
    # above the 1-bit cap: every trial is ambiguous for both decoders
    ("mod2-adder-noiseless", [0.5, 0.0, 0.0, 0.5], 12, 0.7, 0.05,
     {"typicality": (0, 20, 0), "max_likelihood": (0, 20, 0)}),
    ("mod2-adder-bsc01", [0.25] * 4, 8, 0.4, 0.3,
     {"typicality": (1, 12, 3), "max_likelihood": (0, 2, 8)}),
], ids=["above-cap", "mixed"])
def test_pinned_outcome_counts(name, policy, n, rate, eps, counts):
    # (no_typical, ambiguous, wrong), fixed: a faster decoder must not move them
    spec = load(name)
    chan = induced_strategy_channel(spec)
    team = TeamPolicy(pi_a=np.array(policy), pi_b=np.array(policy))
    for decoder, expect in counts.items():
        cfg = SimConfig(blocklength=n, rate_a=rate, rate_b=rate, epsilon=eps,
                        trials=20, seed=0, decoder=decoder)
        report = estimate_error(spec, chan, team, cfg)
        got = (report.no_typical_count, report.decoder_ambiguous_count,
               report.wrong_decode_count)
        assert got == expect, decoder
        assert estimate_error(spec, chan, team, cfg, threads=2) == report


def test_longer_blocks_decode_better():
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    policy = two_strategy_policy()
    short = estimate_error(spec, chan, policy, SimConfig(
        blocklength=4, rate_a=0.2, rate_b=0.2, trials=300, seed=6, epsilon=0.2))
    long = estimate_error(spec, chan, policy, SimConfig(
        blocklength=12, rate_a=0.2, rate_b=0.2, trials=300, seed=6, epsilon=0.2))
    assert long.error_rate < short.error_rate


def test_sampled_letters_match_conditional_law():
    # the codebook is fixed across trials, so the comparison law must use its
    # empirical table-pair frequencies, not the policy they were drawn from
    chisquare = pytest.importorskip("scipy.stats").chisquare
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    policy = two_strategy_policy()
    cfg = SimConfig(blocklength=6, rate_a=1 / 6, rate_b=1 / 6, trials=400, seed=17,
                    epsilon=0.5)
    books = generate_codebooks(policy, cfg)
    pair_freq = np.zeros((chan.space_a.count, chan.space_b.count))
    for t in range(cfg.blocklength):
        for wa in range(cfg.messages_a):
            for wb in range(cfg.messages_b):
                pair_freq[books.ids_a[wa, t], books.ids_b[wb, t]] += 1
    pair_freq /= cfg.blocklength * cfg.messages_a * cfg.messages_b
    law = np.einsum("s,ab,saby->saby", spec.state_pmf, pair_freq, chan.q)
    counts = np.zeros_like(law)
    for trial in range(cfg.trials):
        out = run_trial(spec, chan, books, cfg, stream(cfg.seed, trial, ROLE_TRIAL))
        a_seq = books.ids_a[out.truth[0]]
        b_seq = books.ids_b[out.truth[1]]
        for t in range(cfg.blocklength):
            counts[out.s_seq[t], a_seq[t], b_seq[t], out.y_seq[t]] += 1
    total = counts.sum()
    assert total == cfg.trials * cfg.blocklength
    expected = law * total
    assert np.all(counts[expected == 0] == 0)
    keep = expected > 0
    _, pvalue = chisquare(counts[keep], expected[keep])
    assert pvalue > 1e-3
