"""Monte Carlo block-coding trials against the strategy channel.

A codebook holds i.i.d. strategy sequences drawn from a team policy. Each
trial samples messages, a state sequence, and outputs, then decodes either by
joint typicality (every nonempty subset of the four per-letter variables
must have empirical log-likelihood within epsilon of its entropy) or by
maximum likelihood over message pairs.

Every subset's log table keeps the four axes (s, ta, tb, y) of the joint
law, with a singleton on each axis the subset lacks, so one index rule
serves every stage: a letter reads its own axis of a subset's table and 0
on a singleton.

The typicality mask is staged. The state and output subsets can reject a
trial outright; the subsets holding one sender's strategy keep the surviving
codewords of each sender; the full law is scored on each trial's block of
surviving rows and columns; and the three other pair subsets are scored only
on the listed pairs that pass it. Every subset score, the filters' and the
ML decoder's too, adds one per-letter table entry at a time in t order and
divides by n, the sum typicality_check makes, so the mask is the
definition's bit for bit and a score does not depend on which stage or
chunk computes it. The filters and the listed subsets share one scorer; the
full law's pair sums, and ML's, come from the pair kernel. A zero
cell reads as -2^40 in every table, so a candidate that visits one fails
every admitted epsilon and loses to every pair of positive likelihood, as
the definition rejects it outright.

The pair kernel is described in _pair_blocks' docstring.

Trials run as rows of chunks. Each trial draws its codebooks, states,
messages and output uniforms from its own counter-based streams keyed by
(seed, item, role), and a chunk draws its trials together. A run keeps one
generator and re-keys it to each trial's codebook stream in turn, which
draws exactly what a fresh stream would, into one buffer for the chunk; the
trial streams of the whole chunk come from one Philox kernel that computes
numpy's words and its ``random`` and ``integers`` transforms of them bit for
bit, and a trial whose message draw numpy would reject and redraw is drawn
again by numpy itself. Every categorical draw searches, with uniforms from
the stream, the cdf ``Generator.choice`` builds by its own steps: the state
and strategy cdfs once per run, one search per sender for the chunk's
codebooks, and the output cdfs from the rows of q the chunk's letters read.
Every filter is then computed once per chunk, and the listed subsets score
one survivor list that spans the chunk's trials.
Scores are bit-identical to a trial decoded alone, so results, and the
decoder counters a report carries, depend on neither the chunk size nor
``--threads``, which changes nothing.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import GuardError, InternalInvariantError
from .model import FsMacSpec, StrategyChannel, check_channel
from .rates import AXES, JointLaw, TeamPolicy, _marginal, check_policy, joint_law, log2_floor
from .rng import ROLE_CODEBOOKS, ROLE_TRIAL, bounded, philox_words, rekey, stream, unit_floats

BLOCKLENGTH_CAP = 1 << 16     # the decoder holds about 240 bytes per letter per trial
MESSAGE_CAP = 1 << 20
PAIR_CAP = 1 << 20
CODEBOOK_CELL_CAP = 1 << 24   # blocklength * (messages_a + messages_b)
TRIAL_CAP = 1 << 20           # a run's time: each trial re-keys its codebook stream and draws it
# trials * messages_a * messages_b * n, summed over a run's blocklengths: the
# pair letters its decoders may score, whatever the zero-cell mask drops
SIM_WORK_CAP = 1 << 32
# Cells of codebooks and letters one chunk of trials holds; a chunk's message
# pairs are held to PAIR_CAP, the most one trial may have.
TRIAL_CELL_BUDGET = 1 << 16
# Message pairs one block of a chunk's stacked pair scores holds (256 kB of
# float64), so every letter is added to a block while it is still in cache.
PAIR_BLOCK_CELLS = 1 << 15
WILSON_Z = 1.959963984540054  # two-sided 95%
_ZERO_LOG = -2.0 ** 40  # a zero cell's entry in every log table (see _log_table)

DECODERS = ("typicality", "max_likelihood")

OUTCOME_OK = "ok"
OUTCOME_NO_TYPICAL = "no_typical"
OUTCOME_AMBIGUOUS = "ambiguous"
OUTCOME_WRONG = "wrong_single"
# indexed by outcome code: surviving pairs capped at 2, plus 2 for one wrong pair
OUTCOMES = (OUTCOME_NO_TYPICAL, OUTCOME_OK, OUTCOME_AMBIGUOUS, OUTCOME_WRONG)


def _message_count(blocklength: int, rate: float) -> int:
    # the 1e-9 slack keeps integral exponents from rounding up a whole message
    return math.ceil(2.0 ** (blocklength * rate) - 1e-9)


def check_trials(trials: int) -> None:
    """Refuse a run of fewer than one trial or more than TRIAL_CAP."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if trials > TRIAL_CAP:
        raise GuardError(f"trial guard: {trials} trials exceed cap {TRIAL_CAP}")


def check_sim_work(configs) -> None:
    """Refuse a run of configs whose trials x messages_a x messages_b x n,
    counted in integers and summed over the configs, exceed SIM_WORK_CAP."""
    work = sum(c.trials * c.messages_a * c.messages_b * c.blocklength for c in configs)
    if work > SIM_WORK_CAP:
        raise GuardError(f"simulation work guard: trials x messages_a x messages_b x n "
                         f"sums to {work}, over cap {SIM_WORK_CAP}")


@dataclass(frozen=True)
class SimConfig:
    blocklength: int
    rate_a: float
    rate_b: float
    epsilon: float = 0.1
    trials: int = 200
    seed: int = 0
    decoder: str = "typicality"

    def __post_init__(self):
        if self.blocklength < 1:
            raise ValueError(f"blocklength must be >= 1, got {self.blocklength}")
        if self.blocklength > BLOCKLENGTH_CAP:
            raise GuardError(f"blocklength guard: n = {self.blocklength} "
                             f"exceeds cap {BLOCKLENGTH_CAP}")
        for rate in (self.rate_a, self.rate_b):
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"rates must be finite and nonnegative, got {rate}")
        if not 0 < self.epsilon <= 100:
            raise ValueError(f"epsilon must be in (0, 100], got {self.epsilon}")
        check_trials(self.trials)
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        for rate in (self.rate_a, self.rate_b):
            # checked on the exponent, so 2 ** (n * rate) can never overflow
            if self.blocklength * rate > math.log2(MESSAGE_CAP):
                raise GuardError(f"message guard: 2**({self.blocklength} * {rate}) "
                                 f"messages exceed cap {MESSAGE_CAP}")
        ma, mb = self.messages_a, self.messages_b
        if self.blocklength * (ma + mb) > CODEBOOK_CELL_CAP:
            raise GuardError(f"codebook guard: {self.blocklength} x ({ma} + {mb}) "
                             f"codebook cells exceed cap {CODEBOOK_CELL_CAP}")
        if ma * mb > PAIR_CAP:
            raise GuardError(
                f"decoder pair guard: {ma} x {mb} message pairs exceed cap {PAIR_CAP}"
            )
        check_sim_work([self])

    # computed once per config; the cache sits outside the fields, so
    # equality, hashing and repr are the fields' alone
    @cached_property
    def messages_a(self) -> int:
        return _message_count(self.blocklength, self.rate_a)

    @cached_property
    def messages_b(self) -> int:
        return _message_count(self.blocklength, self.rate_b)


@dataclass(frozen=True)
class SimReport:
    config: SimConfig
    trials: int
    errors: int
    error_rate: float
    wilson_low: float
    wilson_high: float
    no_typical_count: int
    decoder_ambiguous_count: int
    wrong_decode_count: int
    # the decoder's counters, each summed over trials (see estimate_error);
    # a dict, so left out of the hash
    diagnostics: dict = field(hash=False)


def wilson_interval(errors: int, trials: int) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors {errors} outside [0, {trials}]")
    phat = errors / trials
    z2n = WILSON_Z * WILSON_Z / trials
    denom = 1.0 + z2n
    center = (phat + z2n / 2.0) / denom
    half = WILSON_Z * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / denom
    low = 0.0 if errors == 0 else max(0.0, center - half)  # exact at the edges
    high = 1.0 if errors == trials else min(1.0, center + half)
    return low, high


def _cdf(pmf: np.ndarray) -> np.ndarray:
    """The cdf ``Generator.choice`` builds by its own steps, of each row of pmf."""
    cdf = pmf.cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _draw(rng: np.random.Generator, cdf: np.ndarray, size) -> np.ndarray:
    """Symbols drawn from a ``_cdf``: ``rng.choice(cdf.size, size, p=pmf)``,
    draw for draw, without re-checking the pmf and rebuilding its cdf."""
    return cdf.searchsorted(rng.random(size), side="right")


def _axis_subsets():
    for r in range(1, 5):
        yield from itertools.combinations(range(4), r)


def _log_table(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log2_floor(p) with each zero cell read as -2^40, in out if given. A
    letter on a positive cell reads at least log2_floor's -996.6, so over
    at most BLOCKLENGTH_CAP = 2^16 letters a sum holding a zero cell scores
    below -2^24 per letter: it fails every epsilon up to 100 and loses to
    every pair of positive likelihood, as the definition rejects it
    outright."""
    log_t = log2_floor(p, out=out)
    log_t[p == 0.0] = _ZERO_LOG
    return log_t


class _PairTable(NamedTuple):
    """A full (S, A, B, Y) log table as the pair kernel reads it, and
    whether it has a zero cell on the policy's support, where a codeword's
    letters lie; that flag alone decides the kernel's mask pass."""
    log: np.ndarray
    zero: bool


def _pair_table(log_t: np.ndarray, policy: TeamPolicy) -> _PairTable:
    # a byte compare of the table, cut to the support, so no float copy is made
    dead = (log_t == _ZERO_LOG)[:, policy.pi_a > 0][:, :, policy.pi_b > 0]
    return _PairTable(log_t, bool(dead.any()))


class _DecodeContext:
    """The cdfs of one policy's state and strategy draws, the log tables
    each decoder scores with, each built on first read, and the decoder's
    counters, summed over the trials it decodes.

    Codebook independent, so one context serves every trial of a run."""

    def __init__(self, chan: StrategyChannel, policy: TeamPolicy):
        check_policy(chan, policy)
        self.chan, self.policy = chan, policy
        self.cdf_s = _cdf(chan.spec.state_pmf)
        self.cdf_a, self.cdf_b = _cdf(policy.pi_a), _cdf(policy.pi_b)
        self.counts = Counter()

    @cached_property
    def tables(self) -> dict:
        """Each subset's log table, shaped like q, and its entropy, from the
        policy's joint law; only the typicality decoder reads them."""
        law = joint_law(self.chan.spec, self.chan, self.policy).p
        tables = {}
        for combo in _axis_subsets():
            # the full subset's marginal is the law itself, not a copy of it
            marg = _marginal(law, combo)
            log_t = _log_table(marg)
            # the entropy's product is taken in the table's buffer, which then
            # takes the table again, so no product is held beside the tables
            ent = float(-np.multiply(marg, log_t, out=log_t).sum())
            tables[combo] = (_log_table(marg, out=log_t), ent)
        return tables

    @cached_property
    def full(self) -> _PairTable:
        """The full subset's table as the pair kernel reads it."""
        return _pair_table(self.tables[(0, 1, 2, 3)][0], self.policy)

    @cached_property
    def channel(self) -> _PairTable:
        """The channel's log table, which only the ML decoder reads."""
        return _pair_table(_log_table(self.chan.q), self.policy)


def typicality_check(seqs, law, epsilon: float) -> bool:
    """Joint typicality, straight from the definition.

    ``seqs`` maps the axis names 's', 'ta', 'tb', 'y' to equal-length integer
    sequences; ``law`` is the single-letter joint pmf (JointLaw or a 4-axis
    array in that axis order). Every one of the 15 nonempty variable subsets
    must have empirical log-likelihood rate within epsilon of the subset
    entropy, and visiting a zero-probability tuple fails outright.

    This is the reference path: it shares no code with the vectorized
    decoder mask, which is tested against it.
    """
    p = law.p if isinstance(law, JointLaw) else np.asarray(law, dtype=np.float64)
    if p.ndim != 4:
        raise ValueError(f"law must have 4 axes, got {p.ndim}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    arrs = tuple(np.asarray(seqs[k]) for k in AXES)
    n = arrs[0].size
    if n < 1 or any(a.shape != (n,) for a in arrs):
        raise ValueError("sequences must share one length >= 1")
    for axis, arr, size in zip(AXES, arrs, p.shape):
        if arr.dtype.kind not in "iu" or arr.min() < 0 or arr.max() >= size:
            raise ValueError(f"{axis}: letters must be integers in [0, {size})")
    for combo in _axis_subsets():
        drop = tuple(i for i in range(4) if i not in combo)
        marg = p.sum(axis=drop)
        log_t = log2_floor(marg)
        ent = float(-(marg * log_t).sum())
        total = 0.0
        for t in range(n):
            idx = tuple(arrs[axis][t] for axis in combo)
            if marg[idx] == 0.0:
                return False
            total += log_t[idx]
        if abs(-total / n - ent) >= epsilon:
            return False
    return True


def _index(combo, s, a, b, y) -> tuple:
    """The index of letters (s, a, b, y) into a subset's table: the letter
    on each axis the subset has, 0 on each singleton axis it lacks."""
    return (s if 0 in combo else 0, a if 1 in combo else 0,
            b if 2 in combo else 0, y if 3 in combo else 0)


def _stack(ok_a, ok_b) -> tuple:
    """The layout of a chunk's stacked pair matrix, from its trials'
    surviving codebook rows ok_a (trials, messages_a) and columns ok_b
    (trials, messages_b): the trials with survivors on both sides; each
    stacked row's trial (an index into those) and codebook row, in trial
    order and row order; each trial's surviving columns in order, padded
    with other columns to the widest trial's count; and those counts."""
    trials = np.flatnonzero(ok_a.any(axis=1) & ok_b.any(axis=1))
    row_trial, row_ids = np.nonzero(ok_a[trials])
    ok_b = ok_b[trials]
    widths = ok_b.sum(axis=1)
    # a stable sort puts each trial's surviving columns first, in order
    col_ids = np.argsort(~ok_b, axis=1, kind="stable")[:, :widths.max(initial=0)]
    return trials, row_trial, row_ids, col_ids, widths


def _pair_blocks(table: _PairTable, s_seq, y_seq, ids_a, ids_b, stack):
    """Yield (rows, block, alive) for row blocks of a chunk's stacked (trial,
    row) x column matrix (see _stack) of sums of per-letter log-likelihoods
    from a full (S, A, B, Y) log table: the block's kept stacked rows, their
    sums and which of their pairs are alive. A block holds at most
    PAIR_BLOCK_CELLS pairs, may straddle trials, and gets every letter
    added in t order while it is in cache; each block is a view of one
    buffer that the next reuses. A block also ends at a trial boundary
    once it holds max(1, PAIR_BLOCK_CELLS // (A * width)) trials, so one
    letter's column cuts (below) of its trials take at most
    PAIR_BLOCK_CELLS cells, or one trial's cut if that is larger.

    A pair is alive when its sum is above -2^40, which a sum holding a zero
    cell never is (see _log_table), and its column is no pad; every block
    reads its alive pairs off its sums by this one rule. A block first ANDs
    every letter's alive cut, its float cut compared to -2^40, into a
    one-byte mask and keeps only the rows with a pair on positive cells, so
    the float sums run on those rows alone and a dropped row holds no alive
    pair. The table's one flag decides the mask pass: a table with no zero
    cell on the policy's support never takes one. Nor does a block that
    makes its column cuts (below) once per letter, which a mask pass would
    make twice.

    Each letter's (A, B) table is cut to a block by two 1-D gathers. A
    block inside one trial goes through the smaller of the row and column
    intermediates, as a whole-codebook gather would choose; any other goes
    columns first: each trial's (A, width) column cut is gathered from the
    flat table and the block's rows from the cuts. The cuts of every letter
    of as many trials as fit in one block are made at once, by one gather,
    and compared once for the mask pass; those of a block whose trials do
    not fit are made once per letter, so no call holds every letter's
    intermediate. A rows-first mask pass compares each (rows, B)
    intermediate before its column take. Every cut spans the chunk's
    widest column count, so a kept row's pads are gathered and summed too.
    Only the block's rows and its trials' columns are copied, as flat-table
    offsets with a letter per column."""
    trials, row_trial, row_ids, col_ids, widths = stack
    (total,), (count, width), n = row_trial.shape, col_ids.shape, s_seq.shape[1]
    if total == 0:
        return
    _, count_a, count_b, size_y = table.log.shape
    flat, step_a = table.log.reshape(-1), count_b * size_y
    step = np.arange(count_a)[:, None] * step_a
    # flat codebook rows of the stacked rows and of each trial's columns
    flat_a, flat_b = ids_a.reshape(-1, n), ids_b.reshape(-1, n)
    rows_at = trials[row_trial] * ids_a.shape[1] + row_ids
    cols_at = (trials * ids_b.shape[1])[:, None] + col_ids
    letter_key = (s_seq[trials] * (count_a * step_a) + y_seq[trials]).T
    unpadded = np.arange(width) < widths[:, None]
    padded = not unpadded.all()

    def col_keys(k0, k1):
        # (n, trials, width) flat-table offsets of the trials' columns, less their rows'
        keys = flat_b.T.take(cols_at[k0:k1], axis=1)
        keys *= size_y
        keys += letter_key[:, k0:k1, None]
        return keys

    def letter_cuts(keys):
        # each letter's (trials * A, width) column cuts, made as they are read
        return (flat.take(key[:, None] + step).reshape(-1, width) for key in keys)

    def cuts(src, ia, letters, alive=False):
        # each letter's cut of src to the rows ia: from its (A, B) slice given
        # the trial's letters, compared to -2^40 between its two takes if
        # alive, else from its column cuts, which a hoist compared
        if letters is None:
            return (cut.take(key, axis=0) for cut, key in zip(src, ia.T))
        rows = (src[s, :, :, y].take(a, axis=0) for s, y, a in zip(*letters[:2], ia.T))
        return ((r > _ZERO_LOG if alive else r).take(b, axis=1) for r, b in zip(rows, letters[2]))

    first = np.searchsorted(row_trial, np.arange(count + 1))
    span = PAIR_BLOCK_CELLS // (n * count_a * width)  # trials whose cuts fit in a block
    limit = max(1, PAIR_BLOCK_CELLS // (count_a * width))  # trials whose one-letter cuts do
    rows = max(1, PAIR_BLOCK_CELLS // width)
    buf = np.empty((min(rows, total), width))
    hoisted = 0, 0, None
    r1 = 0
    while r1 < total:
        r0, k0 = r1, row_trial[r1]
        r1 = min(total, r0 + rows, first[min(count, k0 + limit)])
        k1 = row_trial[r1 - 1] + 1
        ia = flat_a.take(rows_at[r0:r1], axis=0)  # a letter's ids are a column
        letters = None
        if k1 - k0 == 1 and count_a * width > (first[k1] - first[k0]) * count_b:  # rows first
            k, sources = trials[k0], (table.log,) * 2
            letters = s_seq[k].tolist(), y_seq[k].tolist(), flat_b.take(cols_at[k0], axis=0).T
        else:  # columns first
            c0, c1, sources = hoisted
            if k1 - k0 > span:
                c0, keys = k0, col_keys(k0, k1)
                sources = [letter_cuts(keys)]  # which no mask pass reads
            elif not c0 <= k0 < k1 <= c1:
                c0, c1 = k0, min(count, k0 + span)
                cut = flat.take(col_keys(c0, c1)[:, :, None] + step).reshape(n, -1, width)
                # the alive cuts a mask pass ANDs, compared once per hoist
                sources = [cut, cut > _ZERO_LOG] if table.zero else [cut]
                hoisted = c0, c1, sources
            ia += ((row_trial[r0:r1] - c0) * count_a)[:, None]
        kept = np.arange(r0, r1)
        # a mask pass would make per-letter column cuts twice, so only a block
        # whose cuts are made at once, or that goes rows first, takes one
        if table.zero and (letters is not None or k1 - k0 <= span):
            cells = cuts(sources[1], ia, letters, alive=True)
            alive = next(cells)
            for cut in cells:
                alive &= cut
            live = np.flatnonzero(alive.any(axis=1))
            if live.size == 0:
                continue
            ia, kept = ia.take(live, axis=0), kept.take(live)
        block = buf[:kept.size]
        floats = cuts(sources[0], ia, letters)
        # copied in, not added to zeros: log2_floor never gives -0.0, so this is 0.0 + it
        np.copyto(block, next(floats))
        for cut in floats:
            block += cut
        alive = block > _ZERO_LOG  # a sum holding a zero cell is at most -2^40, any other above it
        if padded:
            alive &= unpadded.take(row_trial[kept], axis=0)
        yield kept, block, alive


def _subset_scores(ctx: _DecodeContext, combos, shape, letter, n: int) -> list:
    """Mean log-likelihoods of an array of candidates, one array of the
    given shape per subset: letter(t) gives letter t's (s, a, b, y) indices,
    which broadcast to that shape, and each table entry is added in t
    order, the sum typicality_check makes, before the sum is divided by n."""
    sums = [np.zeros(shape) for _ in combos]
    for t in range(n):
        letters = letter(t)
        for acc, combo in zip(sums, combos):
            acc += ctx.tables[combo][0][_index(combo, *letters)]
    return [acc / n for acc in sums]


def _typical_survivors(ctx: _DecodeContext, ids_a, ids_b, s_seq, y_seq,
                       epsilon: float) -> tuple:
    """The jointly typical candidates of a chunk of trials as (trial, row,
    col) index arrays, in trial order and row-major within a trial.

    The codebooks are (trials, messages, n), the letters (trials, n). The
    state, output and single-sender filters score the whole chunk at once,
    the full law the stacked block of their survivors, and the listed
    subsets one flattened survivor list."""
    def passes(combo, score):
        return np.abs(-score - ctx.tables[combo][1]) < epsilon

    def typical(combos, shape, letter):
        scores = _subset_scores(ctx, combos, shape, letter, n)
        return np.logical_and.reduce([passes(c, score) for c, score in zip(combos, scores)])

    s, y = s_seq[:, :, None], y_seq[:, :, None]
    full, n = (0, 1, 2, 3), s_seq.shape[1]
    live = typical([(0,), (3,), (0, 3)], (len(s), 1), lambda t: (s[:, t], 0, 0, y[:, t]))
    ok_a = typical([(1,), (0, 1), (1, 3), (0, 1, 3)], ids_a.shape[:2],
                   lambda t: (s[:, t], ids_a[:, :, t], 0, y[:, t]))
    ok_b = typical([(2,), (0, 2), (2, 3), (0, 2, 3)], ids_b.shape[:2],
                   lambda t: (s[:, t], 0, ids_b[:, :, t], y[:, t]))
    stack = _stack(ok_a & live, ok_b)
    trials, row_trial, row_ids, col_ids, widths = stack
    pairs, alive_pairs = int(widths[row_trial].sum()), 0
    hits = [np.zeros((0, 2), dtype=np.intp)]
    for kept, block, alive in _pair_blocks(ctx.full, s_seq, y_seq, ids_a, ids_b, stack):
        alive_pairs += np.count_nonzero(alive)
        alive &= passes(full, np.divide(block, n, out=block))
        hit = np.argwhere(alive)
        hit[:, 0] = kept[hit[:, 0]]
        hits.append(hit)
    at, col = np.concatenate(hits).T
    k = row_trial[at]
    trial, rows, cols = trials[k], row_ids[at], col_ids[k, col]
    # flat codebook rows, so one letter's gather takes one index array per sender
    flat_a, flat_b = ids_a.reshape(-1, n), ids_b.reshape(-1, n)
    at_a, at_b = trial * ids_a.shape[1] + rows, trial * ids_b.shape[1] + cols
    keep = typical([(1, 2, 3), (0, 1, 2), (1, 2)], trial.size,
                   lambda t: (s_seq[trial, t], flat_a[at_a, t], flat_b[at_b, t], y_seq[trial, t]))
    ctx.counts.update(live_trials=int(live.sum()), rows=row_trial.size, columns=int(widths.sum()),
                      pairs=pairs, masked=pairs - alive_pairs, full_law=trial.size,
                      typical=int(keep.sum()))
    return trial[keep], rows[keep], cols[keep]


def _ml_survivors(ctx: _DecodeContext, ids_a, ids_b, s_seq, y_seq) -> tuple:
    """Each trial's number of maximum-likelihood pairs and the first of them
    in row-major order, as (count, row, col) arrays over the chunk's trials.
    Every pair is stacked, so stacked row r is codebook row r % ma of trial
    r // ma. Each block writes its kept rows' best score, tie count and first
    best column (a dropped row keeps -inf and no ties), and each trial's
    answer is read off its rows after the last block. A kept row's masked
    pairs need no -inf: each holds a zero cell's -2^40, so it loses to the
    row's alive pairs. The transmitted pair has positive likelihood, so
    every trial keeps an alive pair."""
    stack = _stack(np.ones(ids_a.shape[:2], dtype=bool), np.ones(ids_b.shape[:2], dtype=bool))
    (trials, ma), n = ids_a.shape[:2], s_seq.shape[1]
    pairs = trials * ma * ids_b.shape[1]
    best = np.full(trials * ma, -np.inf)
    ties, first = np.zeros((2, best.size), dtype=np.intp)
    alive_pairs = 0
    for kept, block, alive in _pair_blocks(ctx.channel, s_seq, y_seq, ids_a, ids_b, stack):
        alive_pairs += np.count_nonzero(alive)
        col = np.divide(block, n, out=block).argmax(axis=1)
        top = np.take_along_axis(block, col[:, None], axis=1)
        best[kept], ties[kept], first[kept] = top[:, 0], np.count_nonzero(block == top, 1), col
    best, ties, first = (a.reshape(trials, ma) for a in (best, ties, first))
    top = best.max(axis=1)
    # a trial whose rows were all dropped reads -inf, and one whose best sum
    # holds a zero cell reads at most -2^40 / n, below every alive pair's
    if not (top > _ZERO_LOG / n).all():
        raise InternalInvariantError("ML found a trial with no alive pair")
    hit = best == top[:, None]
    count = (ties * hit).sum(axis=1)
    if not count.all():
        raise AssertionError("ML always has at least one argmax")
    ctx.counts.update(pairs=pairs, masked=pairs - alive_pairs, argmax=int(count.sum()))
    rows = hit.argmax(axis=1)
    return count, rows, first[np.arange(rows.size), rows]


def _classify(count, rows, cols, wa, wb) -> tuple:
    """Each trial's outcome, as an index into OUTCOMES, and its decoded pair
    (-1, -1 unless exactly one pair survived), from each trial's survivor
    count and first surviving pair."""
    one = count == 1
    decoded = np.where(one[:, None], np.column_stack([rows, cols]), -1)
    wrong = one & ((rows != wa) | (cols != wb))
    return np.minimum(count, 2) + 2 * wrong, decoded


def _draw_trial(ctx: _DecodeContext, cfg: SimConfig, rng: np.random.Generator) -> tuple:
    """One trial's states, messages and output uniforms, in stream order."""
    n = cfg.blocklength
    s_seq = _draw(rng, ctx.cdf_s, n)
    wa = rng.integers(cfg.messages_a)
    wb = rng.integers(cfg.messages_b)
    return s_seq, wa, wb, rng.random(n)


def _draw_chunk(ctx: _DecodeContext, cfg: SimConfig, rng: np.random.Generator,
                items: range) -> tuple:
    """The draws of a chunk of trials, one per item, as _decode_chunk takes
    them: trial by trial what ``Generator.choice`` draws for sender a's
    codebook and then sender b's on the item's codebook stream, and what
    _draw_trial draws on its trial stream, value for value.

    Each trial re-keys rng to its codebook stream and draws its uniforms
    into one float buffer, sender a's part of every trial laid out before
    sender b's, so one cdf search per sender reads its part in place. The
    trial streams come from philox_words at once: n state words, one word
    whose 32-bit halves draw the messages (none if both counts are 1, since
    a count of 1 takes no draw) and n output words. A trial whose message
    draw numpy would reject, and so redraw, is drawn again by _draw_trial
    on its re-keyed trial stream. Beside the codebooks' ids the draw holds
    one float buffer of as many cells, and arrays the size of the trials'
    letters."""
    n, ma, mb = cfg.blocklength, cfg.messages_a, cfg.messages_b
    count = len(items)
    u = np.empty(count * (ma + mb) * n)
    u_a, u_b = u[:count * ma * n].reshape(count, ma, n), u[count * ma * n:].reshape(count, mb, n)
    for j, item in enumerate(items):
        rekey(rng, cfg.seed, item, ROLE_CODEBOOKS)
        rng.random(out=u_a[j])
        rng.random(out=u_b[j])
    ids_a = ctx.cdf_a.searchsorted(u_a, side="right")
    ids_b = ctx.cdf_b.searchsorted(u_b, side="right")
    senders = [k for k, m in enumerate((ma, mb)) if m > 1]
    words = philox_words(cfg.seed, items, ROLE_TRIAL, 2 * n + bool(senders))
    s_seq = ctx.cdf_s.searchsorted(unit_floats(words[:, :n]), side="right")
    uniforms = unit_floats(words[:, -n:])
    messages = np.zeros((2, count), dtype=np.intp)
    messages[senders], redraw = bounded(words[:, n], [(ma, mb)[k] for k in senders])
    for j in np.flatnonzero(redraw):
        rekey(rng, cfg.seed, items[j], ROLE_TRIAL)
        s_seq[j], messages[0, j], messages[1, j], uniforms[j] = _draw_trial(ctx, cfg, rng)
    return ids_a, ids_b, s_seq, messages[0], messages[1], uniforms


def _decode_chunk(ctx: _DecodeContext, cfg: SimConfig, ids_a, ids_b, s_seq,
                  wa, wb, uniforms) -> tuple:
    """Outcome codes, decoded pairs and output sequences of a chunk of trials
    from their draws: codebooks (trials, messages, n), states and uniforms
    (trials, n), messages (trials,)."""
    k = np.arange(wa.size)
    cdf = _cdf(ctx.chan.q[s_seq, ids_a[k, wa], ids_b[k, wb]])   # (trials, n, Y)
    # a letter is the first entry of its row above its uniform, searchsorted's
    # side="right" answer; every row ends in 1.0, above any uniform
    y_seq = (uniforms[..., None] < cdf).argmax(axis=-1)
    if cfg.decoder == "typicality":
        trial, rows, cols = _typical_survivors(ctx, ids_a, ids_b, s_seq, y_seq, cfg.epsilon)
        count = np.bincount(trial, minlength=wa.size)
        # survivors come in trial order; a trial with none reads a later one's, or 0
        first = np.cumsum(count) - count
        found = count, np.append(rows, 0)[first], np.append(cols, 0)[first]
    else:
        found = _ml_survivors(ctx, ids_a, ids_b, s_seq, y_seq)
    codes, decoded = _classify(*found, wa, wb)
    return codes, decoded, y_seq


def _trial_cells(spec: FsMacSpec, cfg: SimConfig) -> int:
    """Cells one trial adds to a chunk: its codebooks and its letters
    (states, uniforms, outputs and their per-letter cdfs). The chunk's draw
    (see _draw_chunk) holds at most one float buffer the size of the
    chunk's codebooks beside ids_a and ids_b, which the search makes, and
    preallocates no other array; the buffer is freed before the chunk
    decodes, so it is not counted here."""
    n, ma, mb = cfg.blocklength, cfg.messages_a, cfg.messages_b
    return n * (ma + mb + 3 + spec.size_y)


def _chunk_trials(spec: FsMacSpec, cfg: SimConfig) -> int:
    """Trials per chunk: as many as TRIAL_CELL_BUDGET cells hold, with at
    most PAIR_CAP message pairs in all, so a chunk's survivor lists never
    outgrow the largest pair block one trial may score; at least one."""
    pairs = cfg.messages_a * cfg.messages_b
    return max(1, min(TRIAL_CELL_BUDGET // _trial_cells(spec, cfg), PAIR_CAP // pairs))


def estimate_error(spec: FsMacSpec, chan: StrategyChannel, policy: TeamPolicy,
                   cfg: SimConfig) -> SimReport:
    """Monte Carlo block-error estimate with a Wilson 95% interval.

    Every trial draws a fresh codebook pair, so the estimate targets the
    random-coding ensemble average rather than the error of one lucky or
    unlucky code.

    Trials decode as rows of chunks (see _chunk_trials). Each trial draws
    from its own streams and its scores do not depend on its chunk, so the
    outcome counts do not depend on the chunk size.

    The report's diagnostics are the decoder's counters, each summed over
    trials, so they do not depend on the chunk size either. Typicality
    counts the trials past the state and output filters (live_trials),
    the codebook rows and columns the single-sender filters leave in the
    trials that reach the full law (rows, columns), the pairs entering the
    full-law stage (pairs), those the zero-cell mask dropped (masked), those
    passing the full law (full_law) and the typical pairs (typical). ML
    counts the pairs scored (pairs), those masked and the argmax pairs.
    """
    check_channel(spec, chan)
    ctx = _DecodeContext(chan, policy)
    size = _chunk_trials(spec, cfg)
    rng = stream(cfg.seed)  # re-keyed to each trial's codebook stream in turn
    counts = np.zeros(len(OUTCOMES), dtype=np.int64)
    for start in range(0, cfg.trials, size):
        draws = _draw_chunk(ctx, cfg, rng, range(start, min(cfg.trials, start + size)))
        codes, _, _ = _decode_chunk(ctx, cfg, *draws)
        counts += np.bincount(codes, minlength=len(OUTCOMES))
    no_typical, _, ambiguous, wrong = (int(c) for c in counts)
    errors = no_typical + ambiguous + wrong
    low, high = wilson_interval(errors, cfg.trials)
    return SimReport(config=cfg, trials=cfg.trials, errors=errors,
                     error_rate=errors / cfg.trials, wilson_low=low, wilson_high=high,
                     no_typical_count=no_typical, decoder_ambiguous_count=ambiguous,
                     wrong_decode_count=wrong,
                     diagnostics={key: int(v) for key, v in ctx.counts.items()})
