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
    _index,
    _listed_scores,
    _ml_survivors,
    _pair_blocks,
    _pair_scores,
    _typical_survivors,
    estimate_error,
    generate_codebooks,
    run_trial,
    typicality_check,
    wilson_interval,
)
from fsmac.model import induced_strategy_channel
from fsmac.rates import TeamPolicy, joint_law, log2_floor
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
        return _pair_blocks(*args)

    def listed(*args):
        entering.setdefault("listed", args[-2].size)
        return _listed_scores(*args)

    monkeypatch.setattr(mcsim, "_pair_blocks", block)
    monkeypatch.setattr(mcsim, "_listed_scores", listed)
    for spec, chan, policy, n, (ra, rb), eps, prunes in cases:
        cfg = SimConfig(blocklength=n, rate_a=ra, rate_b=rb, epsilon=eps, seed=2)
        ctx = _DecodeContext(spec, chan, policy)
        law = joint_law(spec, chan, policy)
        pruned = 0
        draws, singles = [], []
        for trial in range(20):
            books = generate_codebooks(policy, cfg, stream(2, trial, ROLE_CODEBOOKS))
            trng = stream(2, trial, ROLE_TRIAL)
            s_seq = trng.choice(spec.size_s, size=n, p=spec.state_pmf)
            y_seq = np.array([trng.choice(spec.size_y, p=chan.q[s, a, b]) for s, a, b
                              in zip(s_seq, books.ids_a[0], books.ids_b[0])])
            entering.clear()
            _, rows, cols = _typical_survivors(ctx, books.ids_a[None], books.ids_b[None],
                                               s_seq[None], y_seq[None], eps)
            draws.append((books.ids_a, books.ids_b, s_seq, y_seq))
            singles.append(np.column_stack([np.full(rows.size, trial), rows, cols]))
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
        # the 20 trials decoded as one chunk list the same pairs, trial by trial
        chunk = _typical_survivors(ctx, *(np.stack(part) for part in zip(*draws)), eps)
        assert np.array_equal(np.column_stack(chunk), np.concatenate(singles)), prunes


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
        _, rows, cols = _typical_survivors(ctx, books.ids_a[None], books.ids_b[None],
                                           s_seq[None], y_seq[None], cfg.epsilon)
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


def test_chunk_means_match_per_trial_means(rng):
    # a mean over the last axis of a trial chunk is the 1-D mean of each row,
    # bit for bit, so no filter score depends on the trials beside it
    for shape in [(1, 1), (5, 1), (7, 3), (4, 8), (3, 9), (6, 13), (2, 130), (9, 1000)]:
        rows = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        chunk = rows.mean(axis=-1)
        for k in range(shape[0]):
            assert chunk[k] == rows[k].mean(), (shape, k)
        stacked = rows[:, None, :].repeat(3, axis=1)
        assert np.array_equal(stacked.mean(axis=-1), chunk[:, None].repeat(3, axis=1))


def test_chunk_scores_match_per_trial_scores(rng):
    # filter, listed and pair scores of a chunk equal each trial's own
    spec = random_spec(rng, sizes=dict(xa=2, xb=3, s=3, sa=2, sb=1, y=3))
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=rng.dirichlet(np.ones(chan.space_a.count)),
                        pi_b=rng.dirichlet(np.ones(chan.space_b.count)))
    ctx = _DecodeContext(spec, chan, policy)
    cfg = SimConfig(blocklength=11, rate_a=0.3, rate_b=0.25, seed=8)
    books = [generate_codebooks(policy, cfg, stream(8, k, ROLE_CODEBOOKS)) for k in range(6)]
    ids_a = np.stack([b.ids_a for b in books])
    ids_b = np.stack([b.ids_b for b in books])
    s_seq = rng.choice(spec.size_s, size=(6, 11), p=spec.state_pmf)
    y_seq = rng.integers(0, spec.size_y, size=(6, 11))
    assert all(log_t.ndim == 4 for log_t, _ in ctx.tables.values())

    def filter_scores(combo, *letters):
        # as _typical_survivors scores a filter: the mean over the last axis
        return ctx.tables[combo][0][_index(combo, *letters)].mean(axis=-1)

    s, y = s_seq[:, None], y_seq[:, None]
    for combo, chunk_letters, trial_letters in [
        ((0,), (s_seq, 0, 0, y_seq), lambda k: (s_seq[k], 0, 0, y_seq[k])),
        ((0, 3), (s_seq, 0, 0, y_seq), lambda k: (s_seq[k], 0, 0, y_seq[k])),
        ((1,), (s, ids_a, 0, y), lambda k: (s_seq[k], ids_a[k], 0, y_seq[k])),
        ((0, 1, 3), (s, ids_a, 0, y), lambda k: (s_seq[k], ids_a[k], 0, y_seq[k])),
        ((2, 3), (s, 0, ids_b, y), lambda k: (s_seq[k], 0, ids_b[k], y_seq[k])),
        ((0, 2), (s, 0, ids_b, y), lambda k: (s_seq[k], 0, ids_b[k], y_seq[k])),
    ]:
        chunk = filter_scores(combo, *chunk_letters)
        for k in range(6):
            one = filter_scores(combo, *trial_letters(k))
            assert np.array_equal(chunk[k], one), (combo, k)
    trial, rows, cols = (a.ravel() for a in np.meshgrid(
        np.arange(6), np.arange(cfg.messages_a), np.arange(cfg.messages_b), indexing="ij"))
    listed = [(1, 2, 3), (0, 1, 2), (1, 2), (0, 1, 2, 3)]
    chunk = _listed_scores(ctx, listed, s_seq, y_seq, ids_a, ids_b, trial, rows, cols)
    for k in range(6):
        at = trial == k
        one = _listed_scores(ctx, listed, s_seq[k:k + 1], y_seq[k:k + 1], ids_a[k:k + 1],
                             ids_b[k:k + 1], trial[at] * 0, rows[at], cols[at])
        for combo, c, o in zip(listed, chunk, one):
            assert np.array_equal(c[at], o), (combo, k)
            pair = _pair_scores(ctx.tables[combo][0], combo, s_seq[k], y_seq[k],
                                ids_a[k], ids_b[k])
            assert np.array_equal(c[at], pair.ravel()), (combo, k)


def test_pair_blocks_are_budget_invariant(rng, monkeypatch):
    # one-row blocks, and blocks of 3 rows or more (3 on whole codebooks,
    # which 3 rows divide in none of these cases), give the default budget's
    # pair scores bit for bit and the same survivor lists
    dense = random_spec(rng, sizes=dict(xa=2, xb=2, s=2, sa=2, sb=1, y=3))
    dense_chan = induced_strategy_channel(dense)
    cases = [
        # the pinned above-cap and mixed cases of test_pinned_outcome_counts
        (load("mod2-adder-noiseless"), None, np.array([0.5, 0.0, 0.0, 0.5]), 12, 0.7, 0.05, 8),
        (load("mod2-adder-bsc01"), None, np.array([0.25] * 4), 8, 0.4, 0.3, 20),
        (dense, dense_chan, None, 6, 0.5, 0.3, 20),
    ]
    for spec, chan, pi, n, rate, eps, trials in cases:
        chan = chan or induced_strategy_channel(spec)
        if pi is None:
            team = TeamPolicy(pi_a=rng.dirichlet(np.ones(chan.space_a.count)),
                              pi_b=rng.dirichlet(np.ones(chan.space_b.count)))
        else:
            team = TeamPolicy(pi_a=pi, pi_b=pi.copy())
        ctx = _DecodeContext(spec, chan, team)
        for decoder, stage in [("typicality", "_typical_survivors"),
                               ("max_likelihood", "_ml_survivors")]:
            cfg = SimConfig(blocklength=n, rate_a=rate, rate_b=rate, epsilon=eps,
                            trials=trials, seed=0, decoder=decoder)
            assert cfg.messages_a % 3 != 0
            calls = []

            def record(*args, survivors=getattr(mcsim, stage)):
                calls.append((args, survivors(*args)))
                return calls[-1][1]

            with monkeypatch.context() as patch:
                patch.setattr(mcsim, stage, record)
                estimate_error(spec, chan, team, cfg)
            assert calls
            for args, found in calls:
                ids_a, ids_b, s_seq, y_seq = args[1:5]

                def trial_scores():
                    return [_pair_scores(log_t, (0, 1, 2, 3), s_seq[k], y_seq[k], ids_a[k],
                                         ids_b[k]).tobytes()
                            for log_t in (ctx.logq, ctx.tables[(0, 1, 2, 3)][0])
                            for k in range(s_seq.shape[0])]

                default = trial_scores()
                for budget in (1, 3 * cfg.messages_b):
                    with monkeypatch.context() as patch:
                        patch.setattr(mcsim, "PAIR_BLOCK_CELLS", budget)
                        got = getattr(mcsim, stage)(*args)
                        assert trial_scores() == default, (decoder, budget)
                    assert all(np.array_equal(g, f) for g, f in zip(got, found)), \
                        (decoder, budget)


@pytest.mark.parametrize("many", ["a", "b"])
def test_pair_kernel_never_holds_every_letters_intermediate(rng, many):
    # 256 strategies and one message on one side, 64 messages and 4 strategies
    # on the other, over 256 letters. Gathering through the smaller
    # intermediate never builds the large one; holding every letter's large
    # intermediate, (256, 64) cells each, would take 32 MiB.
    sizes = dict(xa=2, xb=2, s=2, y=2, sa=1, sb=1) | {"s" + many: 8}
    spec = random_spec(rng, sizes=sizes)
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=np.full(chan.space_a.count, 1 / chan.space_a.count),
                        pi_b=np.full(chan.space_b.count, 1 / chan.space_b.count))
    n = 256
    rate_a, rate_b = (0.0, 6 / n) if many == "a" else (6 / n, 0.0)
    cfg = SimConfig(blocklength=n, rate_a=rate_a, rate_b=rate_b, epsilon=100, seed=1)
    ctx = _DecodeContext(spec, chan, policy)
    ctx.logq  # the ML decoder's lazy log table, built before tracing starts
    books = generate_codebooks(policy, cfg)
    trng = stream(1, 0, ROLE_TRIAL)
    s_seq = trng.choice(spec.size_s, size=n, p=spec.state_pmf)
    y_seq = trng.integers(0, spec.size_y, size=n)
    held = n * 256 * 64 * 8
    draws = (books.ids_a[None], books.ids_b[None], s_seq[None], y_seq[None])
    for stage in (lambda: _typical_survivors(ctx, *draws, cfg.epsilon),
                  lambda: _ml_survivors(ctx, *draws)):
        tracemalloc.start()
        try:
            _, rows, cols = stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.size >= 1
        assert peak < held / 32, (many, peak)


def test_only_the_ml_decoder_builds_the_channel_log_table():
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    ctx = _DecodeContext(spec, chan, two_strategy_policy())
    cfg = SimConfig(blocklength=6, rate_a=0.5, rate_b=0.5, seed=2)
    books = generate_codebooks(two_strategy_policy(), cfg)
    draws = (books.ids_a[None], books.ids_b[None], np.zeros((1, 6), dtype=int),
             np.zeros((1, 6), dtype=int))
    _typical_survivors(ctx, *draws, 100.0)
    assert "logq" not in vars(ctx)
    _ml_survivors(ctx, *draws)
    assert np.array_equal(ctx.logq, log2_floor(chan.q))


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


def test_error_decomposition_and_reproducibility(monkeypatch):
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    policy = two_strategy_policy()
    cfg = SimConfig(blocklength=4, rate_a=0.5, rate_b=0.5, trials=120, seed=21,
                    epsilon=0.2)
    first = estimate_error(spec, chan, policy, cfg)
    second = estimate_error(spec, chan, policy, cfg)
    with monkeypatch.context() as patch:
        patch.setattr(mcsim, "TRIAL_CELL_BUDGET", 1)  # one trial per chunk
        one_by_one = estimate_error(spec, chan, policy, cfg)
    assert first == second == one_by_one
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
def test_pinned_outcome_counts(name, policy, n, rate, eps, counts, monkeypatch):
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
        with monkeypatch.context() as patch:
            patch.setattr(mcsim, "TRIAL_CELL_BUDGET", 1)  # one trial per chunk
            assert estimate_error(spec, chan, team, cfg) == report


def test_trials_are_chunk_invariant(rng, monkeypatch):
    # one-trial chunks, small chunks and the default budget give every trial
    # the outcome it has as a chunk of one, and the same report
    dense = random_spec(rng, sizes=dict(xa=2, xb=2, s=2, sa=2, sb=1, y=3))
    dense_chan = induced_strategy_channel(dense)
    uniform = np.array([0.25] * 4)
    cases = [
        # the pinned above-cap and mixed cases of test_pinned_outcome_counts
        (load("mod2-adder-noiseless"), None, np.array([0.5, 0.0, 0.0, 0.5]), 12, 0.7, 0.05),
        (load("mod2-adder-bsc01"), None, uniform, 8, 0.4, 0.3),
        (dense, dense_chan, None, 6, 0.5, 0.3),
    ]
    recorded = []

    def record(*args):
        out = decode(*args)
        recorded.append(out[0])
        return out

    decode = mcsim._decode_chunk
    monkeypatch.setattr(mcsim, "_decode_chunk", record)
    for spec, chan, pi, n, rate, eps in cases:
        chan = chan or induced_strategy_channel(spec)
        if pi is None:
            team = TeamPolicy(pi_a=rng.dirichlet(np.ones(chan.space_a.count)),
                              pi_b=rng.dirichlet(np.ones(chan.space_b.count)))
        else:
            team = TeamPolicy(pi_a=pi, pi_b=pi.copy())
        for decoder in mcsim.DECODERS:
            cfg = SimConfig(blocklength=n, rate_a=rate, rate_b=rate, epsilon=eps,
                            trials=20, seed=0, decoder=decoder)
            alone = [run_trial(spec, chan, generate_codebooks(team, cfg, stream(0, k, ROLE_CODEBOOKS)),
                               cfg, stream(0, k, ROLE_TRIAL)).outcome for k in range(cfg.trials)]
            cells = mcsim._trial_cells(spec, cfg)
            reports = []
            for budget, size in [(1, 1), (3 * cells, 3), (mcsim.TRIAL_CELL_BUDGET, None)]:
                recorded.clear()
                with monkeypatch.context() as patch:
                    patch.setattr(mcsim, "TRIAL_CELL_BUDGET", budget)
                    reports.append(estimate_error(spec, chan, team, cfg))
                if size is not None:
                    sizes = [size] * (20 // size) + [20 % size] * (20 % size > 0)
                    assert [c.size for c in recorded] == sizes
                assert [mcsim.OUTCOMES[c] for c in np.concatenate(recorded)] == alone, \
                    (spec.size_y, decoder, budget)
            assert reports[0] == reports[1] == reports[2], decoder
            assert reports[0].errors == sum(o != OUTCOME_OK for o in alone)


def test_trial_chunks_stay_within_their_budget(rng, monkeypatch):
    # at eps 100 every pair survives every stage, the most a chunk holds. With
    # the cell budget and the pair cap patched to 8 trials' worth, 512 trials
    # run in 64 chunks, and the peak stays within ten 8-byte values per budget
    # cell and thirty per capped pair (the listed stage's temporaries); one
    # chunk of all trials would take about 64 times that.
    spec = random_spec(rng, sizes=dict(xa=2, xb=2, s=2, sa=2, sb=1, y=3))
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=np.full(chan.space_a.count, 1 / chan.space_a.count),
                        pi_b=np.full(chan.space_b.count, 1 / chan.space_b.count))
    # (n, rate): 16 messages each, over 16 letters or over 4, where the pairs
    # outweigh the codebooks
    for decoder, n, rate in [(d, n, r) for d in mcsim.DECODERS for n, r in [(16, 0.25), (4, 1.0)]]:
        cfg = SimConfig(blocklength=n, rate_a=rate, rate_b=rate, epsilon=100,
                        trials=512, seed=1, decoder=decoder)
        budget = 8 * mcsim._trial_cells(spec, cfg)
        pair_cap = 8 * cfg.messages_a * cfg.messages_b
        monkeypatch.setattr(mcsim, "TRIAL_CELL_BUDGET", budget)
        monkeypatch.setattr(mcsim, "PAIR_CAP", pair_cap)
        assert mcsim._chunk_trials(spec, cfg) == 8
        tracemalloc.start()
        try:
            report = estimate_error(spec, chan, policy, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trials == 512
        assert peak < 8 * (10 * budget + 30 * pair_cap), (decoder, n, peak)


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
