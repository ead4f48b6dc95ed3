"""Monte Carlo simulator tests.

The decoder is cross-checked against the subset-by-subset reference
predicate on every message pair, and the Wilson interval against scipy's.
"""

import itertools
import math
import runpy
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fsmac import mcsim, strategy
from fsmac.errors import GuardError, InternalInvariantError
from fsmac.examples import load
from fsmac.mcsim import (
    OUTCOME_AMBIGUOUS,
    OUTCOME_NO_TYPICAL,
    OUTCOME_OK,
    OUTCOME_WRONG,
    SimConfig,
    _DecodeContext,
    _cdf,
    _draw,
    _index,
    _ml_survivors,
    _pair_blocks,
    _stack,
    _subset_scores,
    _typical_survivors,
    estimate_error,
    typicality_check,
    wilson_interval,
)
from fsmac.model import FsMacSpec, induced_strategy_channel
from fsmac.rates import TeamPolicy, joint_law, log2_floor
from fsmac.rng import ROLE_CODEBOOKS, ROLE_TRIAL, rekey, stream

from conftest import random_deterministic_spec, random_spec
from reference import codebooks, decode_one


def two_strategy_policy():
    # uniform over the identity and flip tables; point mass is id 0 elsewhere
    pi = np.zeros(4)
    pi[[1, 2]] = 0.5  # little-endian digit ids: [1,0] -> 1, [0,1] -> 2
    return TeamPolicy(pi_a=pi, pi_b=pi.copy())


# ---------------------------------------------------------------- config

def test_message_counts(monkeypatch):
    cfg = SimConfig(blocklength=12, rate_a=0.2, rate_b=0.2)
    assert cfg.messages_a == 6  # ceil(2**2.4)
    assert cfg.messages_b == 6
    assert SimConfig(blocklength=4, rate_a=0.2, rate_b=0.0).messages_a == 2
    assert SimConfig(blocklength=4, rate_a=0.2, rate_b=0.0).messages_b == 1
    assert SimConfig(blocklength=3, rate_a=1.0, rate_b=0.0).messages_a == 8
    assert SimConfig(blocklength=6, rate_a=1 / 3, rate_b=0.0).messages_a == 4
    # each count is computed once per config, and the cache is no field:
    # configs still compare, hash and print by their fields alone
    calls = []
    count = mcsim._message_count
    monkeypatch.setattr(mcsim, "_message_count", lambda *args: calls.append(args) or count(*args))
    cfg = SimConfig(blocklength=12, rate_a=0.2, rate_b=0.3)
    assert [cfg.messages_a + cfg.messages_b for _ in range(5)] == [6 + 13] * 5
    assert calls == [(12, 0.2), (12, 0.3)]
    fresh = SimConfig(blocklength=12, rate_a=0.2, rate_b=0.3)
    assert fresh == cfg and hash(fresh) == hash(cfg) and repr(fresh) == repr(cfg)


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
    with pytest.raises(GuardError, match="blocklength guard"):
        SimConfig(blocklength=10**9, rate_a=0.0, rate_b=0.0)
    with pytest.raises(GuardError, match="blocklength guard"):
        SimConfig(blocklength=(1 << 16) + 1, rate_a=0.0, rate_b=0.0)
    SimConfig(blocklength=1 << 16, rate_a=0.0, rate_b=0.0)
    with pytest.raises(GuardError, match="codebook guard"):
        SimConfig(blocklength=20, rate_a=1.0, rate_b=0.0)   # 20 x (2**20 + 1) cells
    with pytest.raises(GuardError, match="trial guard"):
        SimConfig(blocklength=4, rate_a=0.1, rate_b=0.1, trials=(1 << 20) + 1)


def test_work_guard_counts_every_pair_letter():
    # trials x messages_a x messages_b x n, summed over a run's blocklengths
    assert mcsim.SIM_WORK_CAP == 1 << 32
    SimConfig(blocklength=1 << 12, rate_a=0.0, rate_b=0.0, trials=1 << 20)  # at the cap
    with pytest.raises(GuardError, match="sums to 4296015872, over cap 4294967296"):
        SimConfig(blocklength=(1 << 12) + 1, rate_a=0.0, rate_b=0.0, trials=1 << 20)
    # two ML trials on null-channel at n 2000, 1024 x 1024 messages, are
    # just under; three, or a second blocklength beside them, are over
    two = SimConfig(blocklength=2000, rate_a=0.005, rate_b=0.005, trials=2,
                    decoder="max_likelihood")
    mcsim.check_sim_work([two])
    with pytest.raises(GuardError, match="sums to 6291456000"):
        replace(two, trials=3)
    with pytest.raises(GuardError, match="sums to 5138022400"):
        mcsim.check_sim_work([replace(two, blocklength=1800), two])
    # acceptance criterion 7's largest run, 2000 trials of 338 x 338 messages at n 12
    above = SimConfig(blocklength=12, rate_a=0.7, rate_b=0.7, trials=2000)
    assert (above.messages_a, above.messages_b) == (338, 338)
    mcsim.check_sim_work([above, replace(above, rate_a=0.2, rate_b=0.2),
                          replace(above, blocklength=4, rate_a=0.2, rate_b=0.2)])


# ---------------------------------------------------------------- wilson

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

def chunk_codebooks(policy, cfg, rng, items=range(1)) -> tuple:
    """The (trials, messages, n) codebooks _draw_chunk draws for items on
    mod2-adder-bsc01, a 4 x 4 strategy channel."""
    spec = load("mod2-adder-bsc01")
    ctx = _DecodeContext(induced_strategy_channel(spec), policy)
    return mcsim._draw_chunk(ctx, cfg, rng, items)[:2]


def test_codebooks_deterministic_and_policy_shaped():
    # the draw re-keys its generator, so the one passed in does not matter
    policy = two_strategy_policy()
    cfg = SimConfig(blocklength=16, rate_a=0.375, rate_b=0.25, seed=9)
    first = chunk_codebooks(policy, cfg, stream(0), range(3))
    second = chunk_codebooks(policy, cfg, stream(1), range(3))
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])
    assert first[0].shape == (3, cfg.messages_a, 16)
    assert set(np.unique(first[0])) <= {1, 2}  # support of the policy only


def random_pmf(cases, case: int, k: int) -> np.ndarray:
    """A pmf of k entries divided by its sum, so its cumsum may end off 1.0;
    every third case has zero entries, at the start, the end or the middle
    in turn."""
    pmf = cases.random(k) ** float(cases.choice([1.0, 8.0]))
    if case % 3 == 0:
        pmf[cases.random(k) < 0.5] = 0.0
        pmf[[0, -1, case % k][case % 9 // 3]] = 0.0
        if not pmf.any():
            pmf[k // 2] = 1.0
    pmf /= pmf.sum()
    return pmf


def _untempered(word: int) -> int:
    """The MT19937 state word whose tempered output is word: each tempering
    step, last first, is undone by iterating it to its fixed point."""
    for step in (lambda y: y >> 18, lambda y: (y << 15) & 0xEFC60000,
                 lambda y: (y << 7) & 0x9D2C5680, lambda y: y >> 11):
        y = word
        for _ in range(32):
            y = word ^ step(y)
        word = y & 0xFFFFFFFF
    return word


def generator_drawing(uniforms) -> np.random.Generator:
    """A Generator whose next ``random`` draws are uniforms, each a multiple
    of 2^-53 in [0, 1): MT19937 makes a double from its next two words a
    and b as ((a >> 5) * 2^26 + (b >> 6)) / 2^53, so the state's last words
    are set to untempered a and b."""
    words = []
    for u in uniforms:
        m = int(u * 2.0 ** 53)
        assert m == u * 2.0 ** 53 and 0 <= m < 2 ** 53, u
        words += [(m >> 26) << 5, (m & (2 ** 26 - 1)) << 6]
    bits = np.random.MT19937(0)
    state = bits.state
    key = state["state"]["key"]
    key[key.size - len(words):] = [_untempered(w) for w in words]
    state["state"] = {"key": key, "pos": key.size - len(words)}
    bits.state = state
    return np.random.Generator(bits)


def test_draw_equals_generator_choice():
    # _draw rests on Generator.choice's own algorithm (cumsum, normalize by
    # the last entry, searchsorted of uniforms); if numpy changes it, this
    # fails rather than every stream moving silently
    cases = np.random.default_rng(12)
    for case in range(3000):
        k = int(cases.integers(2, 301))
        pmf = random_pmf(cases, case, k)
        size = (int(cases.integers(1, 9)), int(cases.integers(1, 9)))
        size = size if case % 2 else size[0] * size[1]
        key = (int(cases.integers(2**64, dtype=np.uint64)), case, case % 4)
        mine, numpy = stream(*key), stream(*key)
        drawn = _draw(mine, _cdf(pmf), size)
        assert np.array_equal(drawn, numpy.choice(k, size=size, p=pmf)), (case, k)
        assert np.array_equal(mine.random(3), numpy.random(3)), case  # the stream goes on alike

    # row-wise, as the output draw takes it: _cdf of a batch of rows and the
    # count of each row's entries at or below its uniform, against choice on
    # that row alone drawing that uniform
    for case in range(300):
        k = int(cases.integers(2, 40))
        rows, u = np.array([random_pmf(cases, r, k) for r in range(9)]), cases.random(9)
        assert np.array_equal(generator_drawing(u).random(9), u)
        letters = np.count_nonzero(_cdf(rows) <= u[:, None], axis=-1)
        for row, uniform, letter in zip(rows, u, letters):
            assert generator_drawing([uniform]).choice(k, p=row) == letter, (case, row, uniform)
    # a row whose cumsum ends at 1 - 4e-10, and a uniform between its raw
    # cumsum's entry 1 and the normalized one: entry 1 is drawn, where the
    # raw cumsum would draw entry 3
    row = np.array([0.0, 0.25, 0.0, 0.5, 0.25 - 4e-10, 0.0])
    raw, cdf = row.cumsum(), _cdf(row[None])[0]
    assert raw[-1] != 1.0 and raw[1] == 0.25 < cdf[1]
    assert np.count_nonzero(cdf <= 0.25) == 1 == generator_drawing([0.25]).choice(6, p=row)


def test_output_letters_are_what_choice_draws():
    # a chunk's output letter at (trial, t) is what choice draws from q's
    # row at that letter, given the letter's uniform: one strategy per
    # sender, and each state's channel row a random pmf. State 4's row of q
    # has a cumsum ending at 1 + 2^-52, and one letter's uniform lies
    # between its raw and its normalized cdf entry 2
    cases = np.random.default_rng(35)
    rows = np.array([random_pmf(cases, r, 5) for r in range(9)])
    rows[4] = [0.0, 0.2, 0.7, 0.1, 0.0]
    size_s, n = len(rows), 8
    spec = FsMacSpec(size_xa=1, size_xb=1, size_s=size_s, size_sa=1, size_sb=1, size_y=5,
                     state_pmf=np.full(size_s, 1 / size_s), obs_a=np.ones((size_s, 1)),
                     obs_b=np.ones((size_s, 1)), channel=rows[:, None, None])
    chan = induced_strategy_channel(spec)
    ctx = _DecodeContext(chan, TeamPolicy(pi_a=np.ones(1), pi_b=np.ones(1)))
    s_seq, uniforms = cases.integers(size_s, size=(3, n)), cases.random((3, n))
    raw = chan.q[4, 0, 0].cumsum()
    assert raw[-1] == 1 + 2 ** -52 and _cdf(chan.q[4, 0, 0])[2] == 0.8999999999999999 < raw[2]
    s_seq[1, 2], uniforms[1, 2] = 4, 0.8999999999999999
    ids, zeros = np.zeros((3, 1, n), dtype=np.intp), np.zeros(3, dtype=np.intp)
    cfg = SimConfig(blocklength=n, rate_a=0.0, rate_b=0.0)
    _, _, y_seq = mcsim._decode_chunk(ctx, cfg, ids, ids, s_seq, zeros, zeros, uniforms)
    rng = generator_drawing(uniforms.ravel())
    drawn = [rng.choice(5, p=chan.q[s, 0, 0]) for s in s_seq.ravel()]
    assert y_seq.ravel().tolist() == drawn
    assert y_seq[1, 2] == 3  # the raw cumsum would draw 2


def test_codebooks_draw_what_choice_draws():
    # a codebook is sender a's ids, then sender b's, from one stream
    pi_a, pi_b = np.array([0.0, 0.5, 0.25, 0.25]), np.array([0.1, 0.2, 0.3, 0.4])
    cfg = SimConfig(blocklength=7, rate_a=0.5, rate_b=0.3, seed=5)
    ids_a, ids_b = chunk_codebooks(TeamPolicy(pi_a=pi_a, pi_b=pi_b), cfg, stream(0))
    rng = stream(5, 0, ROLE_CODEBOOKS)
    assert np.array_equal(ids_a[0], rng.choice(4, size=(cfg.messages_a, 7), p=pi_a))
    assert np.array_equal(ids_b[0], rng.choice(4, size=(cfg.messages_b, 7), p=pi_b))


def test_codebook_frequencies_match_policy():
    pi = np.array([0.1, 0.2, 0.3, 0.4])
    policy = TeamPolicy(pi_a=pi, pi_b=pi.copy())
    cfg = SimConfig(blocklength=20, rate_a=0.3, rate_b=0.3, seed=4)
    ids_a, _ = chunk_codebooks(policy, cfg, stream(0))
    draws = ids_a.size
    for sid, prob in enumerate(pi):
        count = int((ids_a == sid).sum())
        sigma = np.sqrt(draws * prob * (1 - prob))
        assert abs(count - draws * prob) <= 4 * sigma + 1, sid


def draw_case(ma, mb, n, seed=0) -> tuple:
    """A context on mod2-adder-bsc01 under two mixed policies, and a config
    of ma x mb messages over n letters."""
    spec = load("mod2-adder-bsc01")
    team = TeamPolicy(pi_a=np.array([0.4, 0.1, 0.2, 0.3]), pi_b=np.array([0.3, 0.2, 0.1, 0.4]))
    ctx = _DecodeContext(induced_strategy_channel(spec), team)
    cfg = SimConfig(blocklength=n, rate_a=math.log2(ma) / n, rate_b=math.log2(mb) / n, seed=seed)
    assert (cfg.messages_a, cfg.messages_b) == (ma, mb)
    return ctx, cfg


def assert_draws_per_trial(ctx, cfg, items, draws):
    """The chunk's draws, trial by trial, are what Generator.choice draws
    for the codebooks and _draw_trial for the letters, on one generator
    re-keyed to the trial's streams."""
    rng = stream(1)
    for j, item in enumerate(items):
        rekey(rng, cfg.seed, item, ROLE_CODEBOOKS)
        want = codebooks(ctx.policy, cfg, rng)
        rekey(rng, cfg.seed, item, ROLE_TRIAL)
        want += mcsim._draw_trial(ctx, cfg, rng)
        for got, one in zip(draws, want):
            assert got.dtype == np.asarray(one).dtype
            assert np.array_equal(got[j], one), (item, cfg)


@pytest.mark.parametrize("ma, mb, n", [(1, 1, 3), (1, 3, 2), (5, 1, 4), (6, 4, 3), (338, 59, 2)])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_chunk_draw_equals_each_trials_streams(ma, mb, n, seed):
    # a count of 1 takes no message draw, so the word count and the halves
    # the messages read move with (ma, mb)
    ctx, cfg = draw_case(ma, mb, n, seed)
    items = range(5, 5 + 13)
    draws = mcsim._draw_chunk(ctx, cfg, stream(2), items)
    assert [d.shape for d in draws] == [(13, ma, n), (13, mb, n), (13, n), (13,), (13,), (13, n)]
    assert_draws_per_trial(ctx, cfg, items, draws)


def test_chunk_draw_redraws_what_numpy_rejects(monkeypatch):
    # at 10^6 messages Lemire's step rejects a draw with probability 2.3e-4;
    # at seed 0 the message draw of trial 5179 is the first it rejects, so
    # numpy takes another draw there and _draw_trial draws that trial again
    ctx, cfg = draw_case(10**6, 1, 1)
    redrawn = []
    draw_trial = mcsim._draw_trial

    def counted(*args):
        redrawn.append(args[2].bit_generator.state["state"]["key"][1] >> 8)
        return draw_trial(*args)

    items = range(5178, 5181)
    monkeypatch.setattr(mcsim, "_draw_trial", counted)
    draws = mcsim._draw_chunk(ctx, cfg, stream(0), items)
    assert redrawn == [5179]
    monkeypatch.setattr(mcsim, "_draw_trial", draw_trial)
    assert_draws_per_trial(ctx, cfg, items, draws)


def test_chunk_draw_holds_one_float_buffer():
    # 16 trials of 1024 x 1024 messages over 2 letters: the codebooks are
    # 65536 cells, the letters 32. The draw holds one float buffer of the
    # codebooks' cells beside their ids, 2 x 8 bytes a cell; a copy of one
    # sender's uniforms adds 4 bytes a cell, and ids preallocated beside the
    # search's result 8.
    ctx, cfg = draw_case(1024, 1024, 2)
    items = range(16)
    cells = len(items) * (cfg.messages_a + cfg.messages_b) * cfg.blocklength
    rng = stream(0)
    tracemalloc.start()
    try:
        draws = mcsim._draw_chunk(ctx, cfg, rng, items)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert draws[0].nbytes + draws[1].nbytes == 8 * cells
    assert peak < 2.25 * 8 * cells, peak / (8 * cells)
    assert held < 1.05 * 8 * cells, held / (8 * cells)  # the buffer is gone


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
    # letters outside the law: a negative one once read its axis from the
    # end, a fractional one was truncated, and one past the end raised a
    # bare IndexError
    adder = load("mod2-adder-noiseless")
    uniform = TeamPolicy(pi_a=np.full(4, 0.25), pi_b=np.full(4, 0.25))
    law = joint_law(adder, induced_strategy_channel(adder), uniform)
    seqs = dict(s=[0, 1], ta=[0, 1], tb=[1, 2], y=[1, 0])
    assert typicality_check(seqs, law, epsilon=5.0)
    for axis, letters, size in (("s", [-1, 1], 2), ("s", [0.5, 1], 2), ("ta", [0, 7], 4),
                                ("tb", [4, 0], 4), ("y", [0, 2], 2)):
        with pytest.raises(ValueError, match=rf"^{axis}: letters must be integers in \[0, {size}\)$"):
            typicality_check(dict(seqs, **{axis: letters}), law, epsilon=5.0)


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
        trials, row_trial, _, _, widths = args[-1]
        pairs = np.bincount(row_trial, minlength=trials.size) @ widths
        entering.setdefault("block", int(pairs))
        return _pair_blocks(*args)

    def scores(ctx, combos, shape, letter, n):
        if (1, 2) in combos:  # the listed pair subsets
            entering.setdefault("listed", shape)
        return _subset_scores(ctx, combos, shape, letter, n)

    monkeypatch.setattr(mcsim, "_pair_blocks", block)
    monkeypatch.setattr(mcsim, "_subset_scores", scores)
    for spec, chan, policy, n, (ra, rb), eps, prunes in cases:
        cfg = SimConfig(blocklength=n, rate_a=ra, rate_b=rb, epsilon=eps, seed=2)
        ctx = _DecodeContext(chan, policy)
        law = joint_law(spec, chan, policy)
        pruned = 0
        draws, singles = [], []
        for trial in range(20):
            ids_a, ids_b = codebooks(policy, cfg, stream(2, trial, ROLE_CODEBOOKS))
            trng = stream(2, trial, ROLE_TRIAL)
            s_seq = trng.choice(spec.size_s, size=n, p=spec.state_pmf)
            y_seq = np.array([trng.choice(spec.size_y, p=chan.q[s, a, b]) for s, a, b
                              in zip(s_seq, ids_a[0], ids_b[0])])
            entering.clear()
            _, rows, cols = _typical_survivors(ctx, ids_a[None], ids_b[None],
                                               s_seq[None], y_seq[None], eps)
            draws.append((ids_a, ids_b, s_seq, y_seq))
            singles.append(np.column_stack([np.full(rows.size, trial), rows, cols]))
            mask = np.zeros((cfg.messages_a, cfg.messages_b), dtype=bool)
            mask[rows, cols] = True
            # the list is the mask's pairs in row-major order, each once
            assert np.array_equal(np.column_stack([rows, cols]), np.argwhere(mask))
            for wa in range(cfg.messages_a):
                for wb in range(cfg.messages_b):
                    seqs = dict(s=s_seq, ta=ids_a[wa], tb=ids_b[wb], y=y_seq)
                    expect = typicality_check(seqs, law, eps)
                    assert bool(mask[wa, wb]) == expect, (prunes, trial, wa, wb)
            if prunes and 0 < mask.sum() < entering.get(prunes, 0):
                pruned += 1
        assert pruned >= 1 or prunes is None, prunes
        # the 20 trials decoded as one chunk list the same pairs, trial by trial
        chunk = _typical_survivors(ctx, *(np.stack(part) for part in zip(*draws)), eps)
        assert np.array_equal(np.column_stack(chunk), np.concatenate(singles)), prunes


def test_mask_matches_reference_at_each_sequence_boundary():
    # epsilon at a law-drawn sequence's largest subset statistic, summed as
    # the reference sums it: the reference rejects there and accepts one ulp
    # above, and so must the mask. A filter score of a mean (numpy's pairwise
    # sum) differs from the t-order sum in the last bits and kept such pairs.
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=np.array([0.4, 0.1, 0.2, 0.3]),
                        pi_b=np.array([0.3, 0.2, 0.1, 0.4]))
    ctx = _DecodeContext(chan, policy)
    law = joint_law(spec, chan, policy).p
    refs = []
    for combo in (c for r in range(1, 5) for c in itertools.combinations(range(4), r)):
        marg = law.sum(axis=tuple(i for i in range(4) if i not in combo))
        log_t = log2_floor(marg)
        refs.append((combo, log_t, float(-(marg * log_t).sum())))
    draws, n = np.random.default_rng(0), 12
    for _ in range(300):
        s, a, b, y = np.unravel_index(draws.choice(law.size, size=n, p=law.ravel()), law.shape)
        stats = []
        for combo, log_t, ent in refs:
            total = 0.0
            for t in range(n):
                total += log_t[tuple((s, a, b, y)[axis][t] for axis in combo)]
            stats.append(abs(-total / n - ent))
        eps = max(stats)
        for e, expect in [(eps, False), (np.nextafter(eps, np.inf), True)]:
            assert typicality_check(dict(s=s, ta=a, tb=b, y=y), law, e) == expect
            _, rows, _ = _typical_survivors(ctx, a[None, None], b[None, None], s[None],
                                            y[None], e)
            assert rows.size == expect, (eps, expect)


def zero_cell_spec() -> FsMacSpec:
    # one state, two inputs per sender (so two strategies, id = input), two
    # outputs; the input pair (0, 0) never outputs 1, every other is uniform
    channel = np.full((1, 2, 2, 2), 0.5)
    channel[0, 0, 0] = [1.0, 0.0]
    return FsMacSpec(size_xa=2, size_xb=2, size_s=1, size_sa=1, size_sb=1, size_y=2,
                     state_pmf=np.ones(1), obs_a=np.ones((1, 1)), obs_b=np.ones((1, 1)),
                     channel=channel)


def test_mask_rejects_a_zero_probability_letter():
    # one letter moved onto the cell of probability zero: the reference fails
    # the sequence outright. Read as log2_floor's -996.6, that letter cost the
    # full law's score only 996.6 / n = 0.24 bits here, less than epsilon
    spec = zero_cell_spec()
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=np.full(2, 0.5), pi_b=np.full(2, 0.5))
    ctx = _DecodeContext(chan, policy)
    law = joint_law(spec, chan, policy).p
    n, eps = 4096, 0.5
    draws = np.random.default_rng(3).choice(law.size, size=n, p=law.ravel())
    s, a, b, y = (np.array(v) for v in np.unravel_index(draws, law.shape))
    for cell, expect in [((a[0], b[0], y[0]), True), ((0, 0, 1), False)]:
        a[0], b[0], y[0] = cell
        assert typicality_check(dict(s=s, ta=a, tb=b, y=y), law, eps) == expect
        _, rows, _ = _typical_survivors(ctx, a[None, None], b[None, None], s[None],
                                        y[None], eps)
        assert rows.size == expect, cell


def test_ml_never_returns_a_zero_likelihood_pair():
    # codewords constant 0 and constant 1 on both sides, outputs 0 but the
    # first: pair (0, 0) has likelihood 0 there and 1 elsewhere, the other
    # three 2^-n. Read as -996.6, the zero letter let (0, 0) win alone.
    spec = zero_cell_spec()
    chan = induced_strategy_channel(spec)
    ctx = _DecodeContext(chan, TeamPolicy(pi_a=np.full(2, 0.5), pi_b=np.full(2, 0.5)))
    n = 2000
    ids = np.repeat(np.arange(2)[None, :, None], n, axis=2)
    y_seq = np.zeros((1, n), dtype=np.intp)
    y_seq[0, 0] = 1
    found = _ml_survivors(ctx, ids, ids, np.zeros((1, n), dtype=np.intp), y_seq)
    # three argmax pairs, (0, 1), (1, 0) and (1, 1); (0, 1) comes first
    assert [x.tolist() for x in found] == [[3], [0], [1]]


def test_ml_chunk_with_no_alive_pair_is_an_internal_error(monkeypatch):
    # both codewords of each sender are constant 0 and one output is 1, which
    # the input pair (0, 0) never sends: every pair is masked, so no pair is
    # the transmitted one, and ML has no argmax to return
    spec = zero_cell_spec()
    chan = induced_strategy_channel(spec)
    ctx = _DecodeContext(chan, TeamPolicy(pi_a=np.full(2, 0.5), pi_b=np.full(2, 0.5)))
    n = 6
    ids = np.zeros((1, 2, n), dtype=np.intp)
    y_seq = np.zeros((1, n), dtype=np.intp)
    y_seq[0, 3] = 1
    # the default budget takes a mask pass, and so does one pair per block,
    # which goes rows first; n * A * width - 1 cuts columns once per letter,
    # so the block takes no mask pass. Every block reads its dead pairs off
    # its sums
    for budget in (mcsim.PAIR_BLOCK_CELLS, 1, n * 2 * 2 - 1):
        with monkeypatch.context() as patch:
            patch.setattr(mcsim, "PAIR_BLOCK_CELLS", budget)
            with pytest.raises(InternalInvariantError, match="no alive pair"):
                _ml_survivors(ctx, ids, ids, np.zeros((1, n), dtype=np.intp), y_seq)


def test_outputs_never_fall_on_a_zero_probability_bin():
    # the channel row sums to 1 - 1e-10, which PMF_ATOL admits. Forcing only
    # the last edge to 1.0 left a uniform above the row's total drawing its
    # last bin, of probability 0, and typicality called the lone, transmitted
    # pair no_typical; the edges are 1.0 from the last positive bin on. The
    # spec rescales its rows to sum 1, so the short row goes straight into q
    channel = np.zeros((1, 1, 1, 3))
    channel[0, 0, 0] = [0.5, 0.5, 0.0]
    spec = FsMacSpec(size_xa=1, size_xb=1, size_s=1, size_sa=1, size_sb=1, size_y=3,
                     state_pmf=np.ones(1), obs_a=np.ones((1, 1)), obs_b=np.ones((1, 1)),
                     channel=channel)
    chan = induced_strategy_channel(spec)
    vars(chan)["q"] = np.array([[[[0.5, 0.4999999999, 0.0]]]])
    ctx = _DecodeContext(chan, TeamPolicy(pi_a=np.ones(1), pi_b=np.ones(1)))
    n = 4
    ids, zeros = np.zeros((1, 1, n), dtype=np.intp), np.zeros(1, dtype=np.intp)
    uniforms = np.array([[0.99999999995, 0.2, 0.7, 0.99999999995]])
    for decoder in mcsim.DECODERS:
        cfg = SimConfig(blocklength=n, rate_a=0.0, rate_b=0.0, epsilon=0.5, decoder=decoder)
        codes, _, y_seq = mcsim._decode_chunk(ctx, cfg, ids, ids, np.zeros((1, n), dtype=np.intp),
                                              zeros, zeros, uniforms)
        assert y_seq.tolist() == [[1, 0, 1, 1]], decoder
        assert mcsim.OUTCOMES[codes[0]] == OUTCOME_OK, decoder


def test_chunks_with_few_typical_pairs_classify_each_trial():
    # one message per sender. A live trial's codewords and outputs hit every
    # cell in proportion to the law, so every subset scores its entropy; a
    # dead one sends (0, 0) and reads 0 throughout, 2 bits a letter against
    # the full law's 2.75. A chunk with no typical pair, and chunks whose
    # typical pair is the last or the first trial's, get each trial's own
    # outcome.
    spec = zero_cell_spec()
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=np.full(2, 0.5), pi_b=np.full(2, 0.5))
    ctx = _DecodeContext(chan, policy)
    n = 16
    live_a, live_b = np.tile(np.repeat([0, 1], 4), 2), np.repeat([0, 1], 8)
    # (0, 0) outputs 0 whatever its uniform; the others 0 below 0.5, else 1
    live_u = np.tile([0.25, 0.75], 8)
    cfg = SimConfig(blocklength=n, rate_a=0.0, rate_b=0.0, epsilon=0.5)
    law = joint_law(spec, chan, policy)
    zeros = np.zeros(n, dtype=np.intp)
    for chunk in (["dead", "dead"], ["dead", "dead", "live"], ["live", "dead"]):
        live = np.array([k == "live" for k in chunk])
        ids_a = np.where(live[:, None, None], live_a, 0)
        ids_b = np.where(live[:, None, None], live_b, 0)
        uniforms = np.where(live[:, None], live_u, 0.25)
        wa = wb = np.zeros(live.size, dtype=np.intp)
        codes, decoded, y_seq = mcsim._decode_chunk(
            ctx, cfg, ids_a, ids_b, np.zeros((live.size, n), dtype=np.intp), wa, wb, uniforms)
        for k, alive in enumerate(live):
            seqs = dict(s=zeros, ta=ids_a[k, 0], tb=ids_b[k, 0], y=y_seq[k])
            assert typicality_check(seqs, law, cfg.epsilon) == alive
        assert [mcsim.OUTCOMES[c] for c in codes] == \
            [OUTCOME_OK if alive else OUTCOME_NO_TYPICAL for alive in live], chunk
        assert decoded.tolist() == [[0, 0] if alive else [-1, -1] for alive in live], chunk


def zero_cell_cases(rng) -> list:
    """(spec, channel, policy, n, rate, epsilon) cases whose laws have zero
    cells on the policy's support, so the pair kernel's mask drops pairs."""
    det = random_deterministic_spec(rng, sizes=dict(xa=2, xb=2, s=2, sa=2, sb=1, y=3))
    det_chan = induced_strategy_channel(det)
    adder = load("mod2-adder-noiseless")
    adder_chan = induced_strategy_channel(adder)
    constants = TeamPolicy(pi_a=np.array([0.5, 0.0, 0.0, 0.5]), pi_b=np.array([0.5, 0.0, 0.0, 0.5]))
    full = TeamPolicy(pi_a=np.array([0.4, 0.1, 0.2, 0.3]), pi_b=np.array([0.3, 0.2, 0.1, 0.4]))
    det_policy = TeamPolicy(pi_a=rng.dirichlet(np.ones(det_chan.space_a.count)),
                            pi_b=rng.dirichlet(np.ones(det_chan.space_b.count)))
    return [(det, det_chan, det_policy, 6, 0.5, 0.3), (adder, adder_chan, constants, 6, 0.5, 0.1),
            (adder, adder_chan, full, 6, 0.5, 0.3)]


def test_masked_survivors_match_the_definition(rng, monkeypatch):
    # on laws with zero cells both decoders list, at the default block budget,
    # at one pair per block and at a prime one, exactly the pairs the
    # definition gives: those typicality_check accepts, and each trial's
    # argmax of the literal t-order sums among pairs of positive likelihood
    for spec, chan, policy, n, rate, eps in zero_cell_cases(rng):
        ctx = _DecodeContext(chan, policy)
        law = joint_law(spec, chan, policy)
        assert ctx.full.zero and ctx.channel.zero
        for decoder, stage in [("typicality", "_typical_survivors"),
                               ("max_likelihood", "_ml_survivors")]:
            cfg = SimConfig(blocklength=n, rate_a=rate, rate_b=rate, epsilon=eps,
                            trials=12, seed=5, decoder=decoder)
            calls = []

            def record(*args, survivors=getattr(mcsim, stage)):
                calls.append(args)
                return survivors(*args)

            with monkeypatch.context() as patch:
                patch.setattr(mcsim, stage, record)
                estimate_error(spec, chan, policy, cfg)
            for args in calls:
                ids_a, ids_b, s_seq, y_seq = args[1:5]
                if decoder == "typicality":
                    expect = [(k, wa, wb) for k, wa, wb in np.ndindex(
                        s_seq.shape[0], ids_a.shape[1], ids_b.shape[1])
                        if typicality_check(dict(s=s_seq[k], ta=ids_a[k, wa], tb=ids_b[k, wb],
                                                 y=y_seq[k]), law, eps)]
                else:
                    scores = literal_grid(ctx.channel.log, s_seq, y_seq, ids_a, ids_b) / n
                    assert (scores.max(axis=(1, 2)) > -2.0 ** 39 / n).all()
                    expect = literal_argmax(scores)
                for budget in (mcsim.PAIR_BLOCK_CELLS, 1, 101):
                    with monkeypatch.context() as patch:
                        patch.setattr(mcsim, "PAIR_BLOCK_CELLS", budget)
                        found = getattr(mcsim, stage)(*args)
                    if decoder == "typicality":
                        got = np.column_stack(found).tolist()
                        assert got == np.reshape(expect, (-1, 3)).tolist(), (decoder, budget)
                    else:
                        assert [x.tolist() for x in found] == expect, (decoder, budget)


def mask_passed_rows(table, s_seq, y_seq, ids_a, ids_b, stack, monkeypatch) -> int:
    """The stacked rows whose blocks take the pair kernel's mask pass. With
    every cell read as dead, a block that takes the pass keeps no row, and
    one that does not keeps all of its rows."""
    with monkeypatch.context() as patch:
        patch.setattr(mcsim, "_ZERO_LOG", np.inf)
        kept = sum(rows.size for rows, _, _ in
                   _pair_blocks(table, s_seq, y_seq, ids_a, ids_b, stack))
    return stack[1].size - kept


def test_strictly_positive_law_makes_no_mask_pass(rng, monkeypatch):
    # the kernel takes a mask pass only on a table with a zero cell on the
    # policy's support; on a fully stochastic spec under full-support
    # policies there is none, so no block takes one, on either route, and
    # its sums are the literal ones. The zero-cell cases take it, and mask pairs.
    spec = random_spec(rng, sizes=dict(xa=2, xb=3, s=2, sa=2, sb=1, y=3))
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=rng.dirichlet(np.ones(chan.space_a.count)),
                        pi_b=rng.dirichlet(np.ones(chan.space_b.count)))
    cases = [(spec, chan, policy, 7, 1.0, None)] + zero_cell_cases(rng)
    # a long codebook against a short one and the reverse, so that both
    # routes run, masked or not: one-pair blocks go rows first on the latter
    for ((spec, chan, policy, n, rate, _), masks), (ra, rb) in itertools.product(
            zip(cases, [False, True, True, True]), [(1, 0.3), (0.3, 1)]):
        ctx = _DecodeContext(chan, policy)
        assert ctx.channel.zero == ctx.full.zero == masks
        cfg = SimConfig(blocklength=n, rate_a=ra * rate, rate_b=rb * rate, seed=4)
        books = [codebooks(policy, cfg, stream(4, k, ROLE_CODEBOOKS)) for k in range(3)]
        ids_a, ids_b = (np.stack(ids) for ids in zip(*books))
        s_seq = rng.choice(spec.size_s, size=(3, n), p=spec.state_pmf)
        # outputs of each trial's first pair, so every trial has an alive pair
        y_seq = np.array([[rng.choice(spec.size_y, p=chan.q[s, a, b])
                           for s, a, b in zip(s_seq[k], ids_a[k, 0], ids_b[k, 0])]
                          for k in range(3)])
        # cuts made at once, which a mask pass compares; cuts made per letter,
        # which it would make twice, so the sums show the zero cells; and
        # one-pair blocks
        budgets = [mcsim.PAIR_BLOCK_CELLS, n * chan.space_a.count * cfg.messages_b - 1, 1]
        stack = every_pair(ids_a, ids_b)
        for table in (ctx.channel, ctx.full):
            literal = literal_grid(table.log, s_seq, y_seq, ids_a, ids_b)
            for budget in budgets:
                with monkeypatch.context() as patch:
                    patch.setattr(mcsim, "PAIR_BLOCK_CELLS", budget)
                    sums, _, _ = stacked_sums(table, s_seq, y_seq, ids_a, ids_b, stack)
                    passed = mask_passed_rows(table, s_seq, y_seq, ids_a, ids_b, stack,
                                              monkeypatch)
                assert_kernel_sums(sums, literal)
                # per-letter cuts take no pass; one-pair blocks take it rows first
                takes_pass = budget == budgets[0] or (budget == 1 and ra < rb)
                assert (passed > 0) == (masks and takes_pass), budget
                assert (sums == -np.inf).any() == masks


def test_mask_allocates_no_pair_by_letter_array(rng):
    # at eps 100 every pair of a fully stochastic spec under uniform policies
    # reaches the listed stages; scoring them must not hold a (pairs, n) copy
    spec = random_spec(rng, sizes=dict(xa=2, xb=2, s=2, sa=2, sb=1, y=3))
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=np.full(chan.space_a.count, 1 / chan.space_a.count),
                        pi_b=np.full(chan.space_b.count, 1 / chan.space_b.count))
    n = 256
    cfg = SimConfig(blocklength=n, rate_a=6 / n, rate_b=6 / n, epsilon=100, seed=1)
    ctx = _DecodeContext(chan, policy)
    ids_a, ids_b = codebooks(policy, cfg)
    trng = stream(1, 0, ROLE_TRIAL)
    s_seq = trng.choice(spec.size_s, size=n, p=spec.state_pmf)
    y_seq = trng.integers(0, spec.size_y, size=n)
    pairs = cfg.messages_a * cfg.messages_b
    tracemalloc.start()
    try:
        _, rows, cols = _typical_survivors(ctx, ids_a[None], ids_b[None],
                                           s_seq[None], y_seq[None], cfg.epsilon)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows.size == pairs == 4096
    assert peak < pairs * n, peak  # one byte per pair and letter; a copy takes 8


def literal_sums(log_t, combo, s_seq, y_seq, ids_a, ids_b) -> np.ndarray:
    """(trials, messages_a, messages_b) sums of a subset's per-letter
    log-likelihoods, added one letter at a time in t order."""
    (count, ma, n), mb = ids_a.shape, ids_b.shape[1]
    sums = np.empty((count, ma, mb))
    for k, wa, wb in np.ndindex(count, ma, mb):
        total = 0.0
        for t in range(n):
            total += log_t[_index(combo, s_seq[k, t], ids_a[k, wa, t], ids_b[k, wb, t],
                                  y_seq[k, t])]
        sums[k, wa, wb] = total
    return sums


def stacked_sums(table, s_seq, y_seq, ids_a, ids_b, stack) -> tuple:
    """The pair kernel's sums placed on a (trials, messages_a, messages_b)
    grid, -inf on the pairs it found dead (dropped by its mask or read off
    its sums) and NaN off the stack; every pair's sum with the mask pass
    skipped, as on a table with no zero cell, so every row is kept and
    every pair summed; and the number of the latter's blocks that
    straddled trials (the mask drops rows, never moves a block's bounds).
    Both runs find the same pairs dead, and no block holds more trials than
    one letter's column cuts fit in, nor an alive pad."""
    trials, row_trial, row_ids, col_ids, widths = stack
    limit = max(1, mcsim.PAIR_BLOCK_CELLS // (table.log.shape[1] * col_ids.shape[1]))
    # every pair on the stack starts out dead; pads are no pairs
    r, j = np.nonzero(np.arange(col_ids.shape[1]) < widths[row_trial][:, None])

    def grid(run):
        sums = np.full(ids_a.shape[:2] + ids_b.shape[1:2], np.nan)
        sums[trials[row_trial[r]], row_ids[r], col_ids[row_trial[r], j]] = -np.inf
        summed = sums.copy()
        straddled = 0
        for kept, block, alive in _pair_blocks(run, s_seq, y_seq, ids_a, ids_b, stack):
            k = row_trial[kept]
            straddled += k[0] != k[-1]
            assert k[-1] - k[0] < limit, (k[0], k[-1], limit)
            pair = np.arange(block.shape[1]) < widths[k][:, None]
            assert not (alive & ~pair).any()
            i, col = np.nonzero(pair)
            at = trials[k[i]], row_ids[kept[i]], col_ids[k[i], col]
            summed[at] = block[i, col]
            sums[at] = np.where(alive[i, col], block[i, col], -np.inf)
        return sums, summed, straddled

    masked, _, _ = grid(table)
    skipped, unmasked, straddled = grid(table._replace(zero=False))
    assert masked.tobytes() == skipped.tobytes()
    return masked, unmasked, straddled


def literal_grid(log_t, s_seq, y_seq, ids_a, ids_b) -> np.ndarray:
    """literal_sums' grid for the full subset, each letter added to every
    pair at once in t order: the same additions, so the same bits."""
    sums = np.zeros(ids_a.shape[:2] + ids_b.shape[1:2])
    k = np.arange(s_seq.shape[0])[:, None, None]
    for t in range(s_seq.shape[1]):
        sums += log_t[s_seq[k, t], ids_a[:, :, None, t], ids_b[:, None, :, t], y_seq[k, t]]
    return sums


def assert_kernel_sums(sums, literal):
    """Every alive pair's kernel sum is its literal sum, byte for byte, and
    the mask dropped exactly the stacked pairs whose sum holds a zero cell."""
    on = ~np.isnan(sums)
    alive = on & (sums != -np.inf)
    assert sums[alive].tobytes() == literal[alive].tobytes()
    assert np.array_equal(alive, on & (literal > -2.0 ** 39))


def literal_argmax(scores) -> list:
    """Each trial's number of argmax pairs of a (trials, messages_a,
    messages_b) score grid and its row-major first argmax, as the lists
    (counts, rows, cols)."""
    ties = (scores == scores.max(axis=(1, 2), keepdims=True)).reshape(len(scores), -1)
    rows, cols = np.divmod(ties.argmax(axis=1), scores.shape[2])
    return [ties.sum(axis=1).tolist(), rows.tolist(), cols.tolist()]


def every_pair(ids_a, ids_b) -> tuple:
    return _stack(np.ones(ids_a.shape[:2], dtype=bool), np.ones(ids_b.shape[:2], dtype=bool))


def test_ml_scores_match_literal_sum(rng):
    # both gather orders: a long codebook against a short one, and the reverse,
    # for a trial alone and for a chunk of three, whose blocks straddle trials
    spec = random_spec(rng, sizes=dict(xa=2, xb=3, s=2, sa=2, sb=1, y=3))
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=rng.dirichlet(np.ones(chan.space_a.count)),
                        pi_b=rng.dirichlet(np.ones(chan.space_b.count)))
    ctx = _DecodeContext(chan, policy)
    n = 7
    for (ra, rb), count in itertools.product([(1.0, 0.3), (0.3, 1.0)], [1, 3]):
        cfg = SimConfig(blocklength=n, rate_a=ra, rate_b=rb, seed=4)
        books = [codebooks(policy, cfg, stream(4, k, ROLE_CODEBOOKS))
                 for k in range(count)]
        ids_a, ids_b = (np.stack(ids) for ids in zip(*books))
        s_seq = rng.choice(spec.size_s, size=(count, n), p=spec.state_pmf)
        y_seq = rng.integers(0, spec.size_y, size=(count, n))
        sums, unmasked, straddled = stacked_sums(ctx.channel, s_seq, y_seq, ids_a, ids_b,
                                                 every_pair(ids_a, ids_b))
        assert straddled == (count > 1)
        literal = literal_sums(ctx.channel.log, (0, 1, 2, 3), s_seq, y_seq, ids_a, ids_b)
        assert np.array_equal(sums, literal), (ra, count)
        assert np.array_equal(unmasked, literal), (ra, count)
        assert literal_grid(ctx.channel.log, s_seq, y_seq, ids_a, ids_b).tobytes() \
            == literal.tobytes()
        # the ML decoder counts each trial's exact argmax pairs of these sums
        # over n and keeps the first of them
        found = _ml_survivors(ctx, ids_a, ids_b, s_seq, y_seq)
        assert [x.tolist() for x in found] == literal_argmax(literal / n), (ra, count)


def test_ml_drops_ties_a_later_row_beats(monkeypatch):
    # two trials of 60 codewords for sender a against a constant-0 and a
    # constant-1 codeword for sender b, outputs all 0: a constant-1 row ties
    # both its pairs at -1 bit a letter, and a constant-0 row scores 0 with
    # column 0. Trial 0 wins only at its last row, trial 1 at rows 55 and 59,
    # after 55 low rows. At 101 cells a block holds 50 rows, so trial 0's
    # low ties fill a block before its winner's raises its best, and trial
    # 1's winners share a block with its low rows; at 1 cell every row is
    # a block.
    spec = zero_cell_spec()
    chan = induced_strategy_channel(spec)
    ctx = _DecodeContext(chan, TeamPolicy(pi_a=np.full(2, 0.5), pi_b=np.full(2, 0.5)))
    n = 4
    ids_a = np.ones((2, 60, n), dtype=np.intp)
    ids_a[0, 59] = ids_a[1, [55, 59]] = 0
    ids_b = np.repeat(np.arange(2)[None, :, None], n, axis=2).repeat(2, axis=0)
    s_seq = y_seq = np.zeros((2, n), dtype=np.intp)
    expect = literal_argmax(literal_grid(ctx.channel.log, s_seq, y_seq, ids_a, ids_b) / n)
    assert expect == [[1, 2], [59, 55], [0, 0]]
    for budget in (mcsim.PAIR_BLOCK_CELLS, 1, 101):
        with monkeypatch.context() as patch:
            patch.setattr(mcsim, "PAIR_BLOCK_CELLS", budget)
            found = _ml_survivors(ctx, ids_a, ids_b, s_seq, y_seq)
        assert [x.tolist() for x in found] == expect, budget


def test_chunk_scores_match_per_trial_scores(rng):
    # filter and listed scores of a chunk equal each trial's own and the
    # literal t-order sums over n, bit for bit
    spec = random_spec(rng, sizes=dict(xa=2, xb=3, s=3, sa=2, sb=1, y=3))
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=rng.dirichlet(np.ones(chan.space_a.count)),
                        pi_b=rng.dirichlet(np.ones(chan.space_b.count)))
    ctx = _DecodeContext(chan, policy)
    cfg = SimConfig(blocklength=11, rate_a=0.3, rate_b=0.25, seed=8)
    n = cfg.blocklength
    books = [codebooks(policy, cfg, stream(8, k, ROLE_CODEBOOKS)) for k in range(6)]
    ids_a, ids_b = (np.stack(ids) for ids in zip(*books))
    s_seq = rng.choice(spec.size_s, size=(6, n), p=spec.state_pmf)
    y_seq = rng.integers(0, spec.size_y, size=(6, n))
    assert all(log_t.ndim == 4 for log_t, _ in ctx.tables.values())

    def literal(combo, k):
        return literal_sums(ctx.tables[combo][0], combo, s_seq[k:k + 1], y_seq[k:k + 1],
                            ids_a[k:k + 1], ids_b[k:k + 1])[0] / n

    s, y = s_seq[:, :, None], y_seq[:, :, None]
    for combos, shape, chunk_letter, trial_letter, grid in [
        ([(0,), (3,), (0, 3)], 6, lambda t: (s_seq[:, t], 0, 0, y_seq[:, t]),
         lambda k, t: (s_seq[k, t], 0, 0, y_seq[k, t]), lambda sums: sums[0, 0]),
        ([(1,), (0, 1), (1, 3), (0, 1, 3)], ids_a.shape[:2],
         lambda t: (s[:, t], ids_a[:, :, t], 0, y[:, t]),
         lambda k, t: (s_seq[k, t], ids_a[k, :, t], 0, y_seq[k, t]), lambda sums: sums[:, 0]),
        ([(2,), (0, 2), (2, 3), (0, 2, 3)], ids_b.shape[:2],
         lambda t: (s[:, t], 0, ids_b[:, :, t], y[:, t]),
         lambda k, t: (s_seq[k, t], 0, ids_b[k, :, t], y_seq[k, t]), lambda sums: sums[0]),
    ]:
        chunk = _subset_scores(ctx, combos, shape, chunk_letter, n)
        for k in range(6):
            one = _subset_scores(ctx, combos, np.shape(chunk[0][k]),
                                 lambda t: trial_letter(k, t), n)
            for combo, c, o in zip(combos, chunk, one):
                assert np.array_equal(c[k], o), (combo, k)
                assert np.array_equal(c[k], grid(literal(combo, k))), (combo, k)
    trial, rows, cols = (a.ravel() for a in np.meshgrid(
        np.arange(6), np.arange(cfg.messages_a), np.arange(cfg.messages_b), indexing="ij"))
    listed = [(1, 2, 3), (0, 1, 2), (1, 2), (0, 1, 2, 3)]
    chunk = _subset_scores(ctx, listed, trial.size, lambda t: (
        s_seq[trial, t], ids_a[trial, rows, t], ids_b[trial, cols, t], y_seq[trial, t]), n)
    for k in range(6):
        at = trial == k
        one = _subset_scores(ctx, listed, at.sum(), lambda t: (
            s_seq[k, t], ids_a[k, rows[at], t], ids_b[k, cols[at], t], y_seq[k, t]), n)
        for combo, c, o in zip(listed, chunk, one):
            assert np.array_equal(c[at], o), (combo, k)
            assert np.array_equal(c[at], literal(combo, k).ravel()), (combo, k)


def test_pair_blocks_are_budget_invariant(rng, monkeypatch):
    # one-pair blocks, blocks of a prime number of pairs that fit two
    # trials' one-letter column cuts (their row count divides no codebook,
    # so blocks straddle trials), blocks a pair short of that (the trial
    # limit ends each at its trial, where its row count alone would
    # straddle), and one block larger than the whole chunk give the default
    # budget's pair sums bit for bit and the same survivor lists. The sums
    # are checked on every pair of each recorded chunk and on a ragged
    # stack, whose first trial keeps a single column and whose others keep
    # random rows and columns.
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
        ctx = _DecodeContext(chan, team)
        for decoder, stage in [("typicality", "_typical_survivors"),
                               ("max_likelihood", "_ml_survivors")]:
            cfg = SimConfig(blocklength=n, rate_a=rate, rate_b=rate, epsilon=eps,
                            trials=trials, seed=0, decoder=decoder)
            ma, mb, cuts = cfg.messages_a, cfg.messages_b, chan.space_a.count * cfg.messages_b
            prime = next(p for p in itertools.count(2 * cuts)
                         if ma % (p // mb) and all(p % d for d in range(2, p)))
            limited = 2 * cuts - 1
            assert ma % (limited // mb)
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
                count = s_seq.shape[0]
                ok_a, ok_b = rng.random((count, ma)) < 0.7, rng.random((count, mb)) < 0.7
                ok_a[:, 0] = ok_b[:, 0] = True
                ok_b[0, 1:] = False
                stacks = [every_pair(ids_a, ids_b), _stack(ok_a, ok_b)]

                def sums():
                    return [stacked_sums(table, s_seq, y_seq, ids_a, ids_b, stack)
                            for table in (ctx.channel, ctx.full) for stack in stacks]

                default = sums()
                tables = [ctx.channel] * 2 + [ctx.full] * 2
                for (masked, unmasked, _), table in zip(default, tables):
                    literal = literal_grid(table.log, s_seq, y_seq, ids_a, ids_b)
                    assert_kernel_sums(masked, literal)
                    on = ~np.isnan(unmasked)
                    assert unmasked[on].tobytes() == literal[on].tobytes()
                default = [(m.tobytes(), u.tobytes()) for m, u, _ in default]
                for budget in (1, prime, limited, count * ma * mb + 1):
                    with monkeypatch.context() as patch:
                        patch.setattr(mcsim, "PAIR_BLOCK_CELLS", budget)
                        got = getattr(mcsim, stage)(*args)
                        now = sums()
                    assert [(m.tobytes(), u.tobytes()) for m, u, _ in now] == default, \
                        (decoder, budget)
                    assert all(np.array_equal(g, f) for g, f in zip(got, found)), \
                        (decoder, budget)
                    if budget == prime and count > 1:
                        assert all(straddled for _, _, straddled in now), decoder
                    if budget == limited:  # every pair's stacks, whose width is mb
                        assert not any(straddled for _, _, straddled in now[::2]), decoder


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
    ctx = _DecodeContext(chan, policy)
    ctx.channel  # the ML decoder's lazy log table, built before tracing starts
    ids_a, ids_b = codebooks(policy, cfg)
    trng = stream(1, 0, ROLE_TRIAL)
    s_seq = trng.choice(spec.size_s, size=n, p=spec.state_pmf)
    y_seq = trng.integers(0, spec.size_y, size=n)
    held = n * 256 * 64 * 8
    draws = (ids_a[None], ids_b[None], s_seq[None], y_seq[None])
    # each stage's survivor count: typical pairs listed, ML argmax pairs counted
    for stage in (lambda: _typical_survivors(ctx, *draws, cfg.epsilon)[0].size,
                  lambda: _ml_survivors(ctx, *draws)[0].sum()):
        tracemalloc.start()
        try:
            survivors = stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert survivors >= 1
        assert peak < held / 32, (many, peak)


def test_pair_kernel_cuts_hold_few_trials(rng):
    # 1024 strategies for sender a, 2 messages per sender over 4 letters: one
    # block holds the rows of hundreds of trials, and one letter's column
    # cut of each of them is 1024 x 2 cells. A block ends once its trials'
    # cuts fill PAIR_BLOCK_CELLS, so no letter's cuts outgrow a block; a cut
    # of all 500 trials at once took two 8 MB arrays.
    spec = random_spec(rng, sizes=dict(xa=2, xb=2, s=1, sa=10, sb=1, y=2))
    chan = induced_strategy_channel(spec)
    assert chan.space_a.count == 1024
    policy = TeamPolicy(pi_a=np.full(1024, 1 / 1024), pi_b=np.full(2, 0.5))
    cfg = SimConfig(blocklength=4, rate_a=0.25, rate_b=0.25, epsilon=100, seed=1)
    ctx = _DecodeContext(chan, policy)
    ctx.full, ctx.channel  # built before tracing starts
    count, n = 500, cfg.blocklength
    ids_a = rng.integers(0, 1024, size=(count, 2, n))
    ids_b = rng.integers(0, 2, size=(count, 2, n))
    s_seq = np.zeros((count, n), dtype=np.intp)
    y_seq = rng.integers(0, 2, size=(count, n))
    expect = literal_argmax(literal_grid(ctx.channel.log, s_seq, y_seq, ids_a, ids_b) / n)
    draws = ids_a, ids_b, s_seq, y_seq
    for decoder, stage in [("typicality", lambda: _typical_survivors(ctx, *draws, cfg.epsilon)),
                           ("max_likelihood", lambda: _ml_survivors(ctx, *draws))]:
        tracemalloc.start()
        try:
            found = stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if decoder == "typicality":
            assert np.array_equal(np.unique(found[0]), np.arange(count))
        else:
            assert [x.tolist() for x in found] == expect
        assert peak < 8 * mcsim.PAIR_BLOCK_CELLS * 8, (decoder, peak)


def test_ml_holds_nothing_per_tie(rng):
    # every pair of the null channel scores -1 bit a letter, so all 4 x 338 x
    # 338 pairs of this chunk tie. ML keeps a count and a first tie per trial:
    # its peak is that of the pair kernel's blocks, less than 8 bytes a tie
    spec = load("null-channel")
    chan = induced_strategy_channel(spec)
    policy = TeamPolicy(pi_a=np.array([0.4, 0.1, 0.2, 0.3]), pi_b=np.array([0.3, 0.2, 0.1, 0.4]))
    cfg = SimConfig(blocklength=12, rate_a=0.7, rate_b=0.7, seed=2)
    ctx = _DecodeContext(chan, policy)
    ctx.channel  # built before tracing starts
    count, n = 4, cfg.blocklength
    books = [codebooks(policy, cfg, stream(2, k, ROLE_CODEBOOKS)) for k in range(count)]
    ids_a, ids_b = (np.stack(ids) for ids in zip(*books))
    s_seq, y_seq = rng.integers(0, 2, size=(2, count, n))
    tracemalloc.start()
    try:
        ties, rows, cols = _ml_survivors(ctx, ids_a, ids_b, s_seq, y_seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * mcsim.PAIR_BLOCK_CELLS * 8
    assert peak < bound, peak
    assert ties.tolist() == [338 * 338] * count and 8 * ties.sum() > bound
    assert rows.tolist() == cols.tolist() == [0] * count


def test_only_the_ml_decoder_builds_the_channel_log_table():
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    ctx = _DecodeContext(chan, two_strategy_policy())
    cfg = SimConfig(blocklength=6, rate_a=0.5, rate_b=0.5, seed=2)
    ids_a, ids_b = codebooks(two_strategy_policy(), cfg)
    draws = (ids_a[None], ids_b[None], np.zeros((1, 6), dtype=int),
             np.zeros((1, 6), dtype=int))
    _typical_survivors(ctx, *draws, 100.0)
    assert "channel" not in vars(ctx)
    _ml_survivors(ctx, *draws)
    # zero cells, which this channel has, read as -2^40, not log2_floor's -996.6
    assert (chan.q == 0).any()
    assert np.array_equal(ctx.channel.log, np.where(chan.q > 0, log2_floor(chan.q), -2.0 ** 40))
    # the table itself tells the positive cells, so the kernel holds no mask
    # of them, only a flag: this policy's support, the identity and flip
    # tables, misses the zero cells, which a full-support policy reaches
    assert np.array_equal(ctx.channel.log > -2.0 ** 40, chan.q > 0)
    assert ctx.channel._fields == ("log", "zero") and ctx.channel.zero is False
    full = TeamPolicy(pi_a=np.array([0.4, 0.1, 0.2, 0.3]), pi_b=np.array([0.3, 0.2, 0.1, 0.4]))
    assert _DecodeContext(chan, full).channel.zero is True


def test_ml_run_never_builds_the_joint_law(monkeypatch):
    # the subset tables, and the joint law they are read off, are typicality's alone
    def refuse(*args):
        raise AssertionError("joint_law called")

    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    monkeypatch.setattr(mcsim, "joint_law", refuse)
    cfg = SimConfig(blocklength=6, rate_a=0.5, rate_b=0.5, trials=30, seed=2,
                    decoder="max_likelihood")
    assert estimate_error(spec, chan, two_strategy_policy(), cfg).trials == 30
    with pytest.raises(AssertionError, match="joint_law called"):
        estimate_error(spec, chan, two_strategy_policy(), replace(cfg, decoder="typicality"))


def cap_size_case(monkeypatch) -> tuple:
    """(spec, channel, policy) whose q of 2 * 32 * 32 * 4 cells sits at the
    cell cap, patched down to 2**13, under uniform policies."""
    monkeypatch.setattr(strategy, "CELL_CAP", 1 << 13)
    s, sa, sb, y = 2, 5, 5, 4
    spec = FsMacSpec(size_xa=2, size_xb=2, size_s=s, size_sa=sa, size_sb=sb, size_y=y,
                     state_pmf=np.full(s, 1 / s), obs_a=np.full((s, sa), 1 / sa),
                     obs_b=np.full((s, sb), 1 / sb), channel=np.full((s, 2, 2, y), 1 / y))
    chan = induced_strategy_channel(spec)
    assert chan.q.size == strategy.CELL_CAP
    return spec, chan, TeamPolicy(pi_a=np.full(32, 1 / 32), pi_b=np.full(32, 1 / 32))


def test_decode_context_holds_no_copy_of_the_law(monkeypatch):
    # The full subset's table is read off the law itself, and its log is
    # taken in place, so the build peaks at that subset's entropy (the law,
    # the other subsets' tables, the law's log table and its product with
    # the law, about 3.1 q). A copy of the law beside it took 5.1 q, and
    # log2_floor's temporary beside the log table 4.1 q.
    spec, chan, policy = cap_size_case(monkeypatch)
    tracemalloc.start()
    try:
        ctx = _DecodeContext(chan, policy)
        ctx.tables  # built on first read
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * chan.q.nbytes, peak / chan.q.nbytes
    # every table and entropy is the one a summed marginal gives, byte for byte
    law = joint_law(spec, chan, policy).p
    for combo, (log_t, ent) in ctx.tables.items():
        marg = law.sum(axis=tuple(i for i in range(4) if i not in combo), keepdims=True)
        assert log_t.tobytes() == log2_floor(marg).tobytes(), combo
        assert ent == float(-(marg * log2_floor(marg)).sum()), combo


@pytest.mark.parametrize("table, peak_q, held_q", [("full", 3.25, 2.1), ("channel", 1.35, 1.05)])
def test_pair_tables_hold_one_log_table(table, peak_q, held_q, monkeypatch):
    # each decoder's pair table is its log table and one flag, read off the
    # table by a byte compare: typicality's, with the other subsets' tables,
    # builds at 3.19 q and holds 2.06 q; ML's builds at 1.32 q and holds
    # 1.00 q. A byte table of the positive cells beside either adds 0.125 q
    # held, and a float copy of the table to read the flag adds 1 q at peak.
    spec, chan, policy = cap_size_case(monkeypatch)
    ctx = _DecodeContext(chan, policy)
    tracemalloc.start()
    try:
        getattr(ctx, table)  # built on first read
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < peak_q * chan.q.nbytes, peak / chan.q.nbytes
    assert held < held_q * chan.q.nbytes, held / chan.q.nbytes


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
    ids_a, ids_b = codebooks(policy, cfg)
    outcome, truth, decoded, s_seq, y_seq = decode_one(spec, chan, policy, ids_a, ids_b, cfg,
                                                       stream(7, 0, ROLE_TRIAL))
    assert outcome in (OUTCOME_OK, OUTCOME_NO_TYPICAL, OUTCOME_AMBIGUOUS, OUTCOME_WRONG)
    assert 0 <= truth[0] < cfg.messages_a
    assert 0 <= truth[1] < cfg.messages_b
    assert s_seq.shape == y_seq.shape == (6,)
    if outcome in (OUTCOME_OK, OUTCOME_WRONG):
        assert decoded is not None
    if outcome == OUTCOME_OK:
        assert decoded == truth


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


@pytest.mark.parametrize("name, policy, n, rate, eps, counts, argmax", [
    # above the 1-bit cap: every trial is ambiguous for both decoders
    ("mod2-adder-noiseless", [0.5, 0.0, 0.0, 0.5], 12, 0.7, 0.05,
     {"typicality": (0, 20, 0), "max_likelihood": (0, 20, 0)}, 569),
    ("mod2-adder-bsc01", [0.25] * 4, 8, 0.4, 0.3,
     {"typicality": (1, 12, 3), "max_likelihood": (0, 2, 8)}, 22),
    # 2x2 codebooks: chunks of many small trials share the pair kernel's blocks
    ("mod2-adder-noiseless", [0.5, 0.0, 0.0, 0.5], 4, 0.2, 0.05,
     {"typicality": (0, 3, 0), "max_likelihood": (0, 3, 0)}, 23),
    # the output ignores the inputs: every one of the 20 x 16 x 16 pairs is an argmax
    ("null-channel", [0.4, 0.1, 0.2, 0.3], 8, 0.5, 0.3,
     {"typicality": (0, 20, 0), "max_likelihood": (0, 20, 0)}, 5120),
], ids=["above-cap", "mixed", "below-cap", "null-channel"])
def test_pinned_outcome_counts(name, policy, n, rate, eps, counts, argmax, monkeypatch):
    # (no_typical, ambiguous, wrong) and ML's argmax count, fixed: a faster
    # decoder must not move them
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
        if decoder == "max_likelihood":
            assert report.diagnostics["argmax"] == argmax
        with monkeypatch.context() as patch:
            patch.setattr(mcsim, "TRIAL_CELL_BUDGET", 1)  # one trial per chunk
            assert estimate_error(spec, chan, team, cfg) == report


def test_decoder_counters(monkeypatch):
    # above the cap on the noiseless adder under constant strategies each
    # letter sends half of all pairs to a zero cell, so the mask drops all
    # but about 2^-12 of them, and every alive pair is typical and an ML
    # argmax. The counters are sums over trials: a rerun, one-trial chunks
    # and one-pair blocks give them all the same.
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    constants = np.array([0.5, 0.0, 0.0, 0.5])
    team = TeamPolicy(pi_a=constants, pi_b=constants.copy())
    keys = {"typicality": ["live_trials", "rows", "columns", "pairs", "masked", "full_law",
                           "typical"],
            "max_likelihood": ["pairs", "masked", "argmax"]}
    for decoder in mcsim.DECODERS:
        cfg = SimConfig(blocklength=12, rate_a=0.7, rate_b=0.7, epsilon=0.05, trials=20,
                        seed=0, decoder=decoder)
        report = estimate_error(spec, chan, team, cfg)
        counts = report.diagnostics
        assert list(counts) == keys[decoder]
        assert counts["pairs"] == 20 * 338 * 338
        assert 0.9997 < counts["masked"] / counts["pairs"] < 0.9998, counts
        # every trial is ambiguous, and the survivors are the alive pairs
        assert report.decoder_ambiguous_count == 20
        survivors = counts["typical" if decoder == "typicality" else "argmax"]
        assert survivors == counts["pairs"] - counts["masked"]
        if decoder == "typicality":
            assert counts["live_trials"] == 20 and counts["rows"] == counts["columns"] == 20 * 338
        assert estimate_error(spec, chan, team, cfg) == report
        for name, value in [("TRIAL_CELL_BUDGET", 1), ("PAIR_BLOCK_CELLS", 1)]:
            with monkeypatch.context() as patch:
                patch.setattr(mcsim, name, value)
                assert estimate_error(spec, chan, team, cfg).diagnostics == counts, name


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
            alone = [decode_one(spec, chan, team, *codebooks(team, cfg, stream(0, k, ROLE_CODEBOOKS)),
                                cfg, stream(0, k, ROLE_TRIAL))[0] for k in range(cfg.trials)]
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


# The coding demo's stdout, pinned: a change to any draw or stream key moves it.
CODING_DEMO_OUT = """
rates (R_a, R_b) = (0.2, 0.2), sum 0.4 bits vs 1.0 bit cap
   n  messages  err rate       95% interval no-typical ambiguous  wrong
   4       2x2    0.1850   [0.1622, 0.2103]          0       185      0
   8       4x4    0.0610   [0.0478, 0.0776]          0        61      0
  12       6x6    0.0090   [0.0047, 0.0170]          0         9      0
  16     10x10    0.0020   [0.0005, 0.0073]          0         2      0

rates (R_a, R_b) = (0.7, 0.7), sum 1.4 bits vs 1.0 bit cap
   n  messages  err rate       95% interval no-typical ambiguous  wrong
   4       7x7    0.9525   [0.9270, 0.9694]          0       381      0
   8     49x49    1.0000   [0.9905, 1.0000]          0       400      0
  12   338x338    1.0000   [0.9905, 1.0000]          0       400      0

Below the cap the error rate decays roughly like 2^-n; above it
the impostor count grows faster than typicality can filter, and
the decoder drowns.
"""


def test_coding_demo_prints_its_pinned_table(capsys, monkeypatch):
    demo = Path(__file__).resolve().parents[1] / "demos" / "coding_simulation.py"
    monkeypatch.setattr(sys, "argv", [str(demo)])
    runpy.run_path(str(demo), run_name="__main__")
    assert capsys.readouterr().out == CODING_DEMO_OUT


def test_sampled_letters_match_conditional_law():
    # the codebook is fixed across trials, so the comparison law must use its
    # empirical table-pair frequencies, not the policy they were drawn from
    chisquare = pytest.importorskip("scipy.stats").chisquare
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    policy = two_strategy_policy()
    cfg = SimConfig(blocklength=6, rate_a=1 / 6, rate_b=1 / 6, trials=400, seed=17,
                    epsilon=0.5)
    ids_a, ids_b = codebooks(policy, cfg)
    pair_freq = np.zeros((chan.space_a.count, chan.space_b.count))
    for t in range(cfg.blocklength):
        for wa in range(cfg.messages_a):
            for wb in range(cfg.messages_b):
                pair_freq[ids_a[wa, t], ids_b[wb, t]] += 1
    pair_freq /= cfg.blocklength * cfg.messages_a * cfg.messages_b
    law = np.einsum("s,ab,saby->saby", spec.state_pmf, pair_freq, chan.q)
    counts = np.zeros_like(law)
    for trial in range(cfg.trials):
        _, truth, _, s_seq, y_seq = decode_one(spec, chan, policy, ids_a, ids_b, cfg,
                                               stream(cfg.seed, trial, ROLE_TRIAL))
        a_seq = ids_a[truth[0]]
        b_seq = ids_b[truth[1]]
        for t in range(cfg.blocklength):
            counts[s_seq[t], a_seq[t], b_seq[t], y_seq[t]] += 1
    total = counts.sum()
    assert total == cfg.trials * cfg.blocklength
    expected = law * total
    assert np.all(counts[expected == 0] == 0)
    keep = expected > 0
    _, pvalue = chisquare(counts[keep], expected[keep])
    assert pvalue > 1e-3
