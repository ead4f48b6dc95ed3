"""Monte Carlo block-coding trials against the strategy channel.

Codebooks are i.i.d. strategy sequences drawn from a team policy. Each trial
samples messages, a state sequence, and outputs, then decodes either by
joint typicality (every nonempty subset of the four per-letter variables
must have empirical log-likelihood within epsilon of its entropy) or by
maximum likelihood over message pairs.

Every subset's log table keeps the four axes (s, ta, tb, y) of the joint
law, with a singleton on each axis the subset lacks, so one index rule
serves every stage: a letter reads its own axis of a subset's table and 0
on a singleton.

The typicality mask is staged. The state and output subsets can reject a
trial outright; the subsets holding one sender's strategy keep the surviving
codewords of each sender; the full law is scored on the block of surviving
rows and columns; and the three other pair subsets are scored only on the
listed pairs that pass it. Every pair score, the ML decoder's too, adds one
per-letter table entry at a time in t order and divides by n, the same sum
as the definition, so a score does not depend on which stage computes it.
The full-law block is summed a block of rows at a time (PAIR_BLOCK_CELLS
pairs at most) in one reused buffer, each letter added while the block is
in cache, and tested as soon as it is summed, so its survivors come out in
row-major order with no pair-sized array made per letter or per trial. The
ML decoder copies the blocks into one score array per trial, which its
exact argmax ties read. The listed pairs are gathered one letter at a
time, so no stage holds an array of pairs by letters.

Trials run as rows of chunks. Each trial draws its codebooks, states,
messages and output uniforms from its own counter-based streams keyed by
(seed, item, role). The channel outputs and every filter except the
full-law block are then computed once per chunk, and the listed subsets
score one survivor list that spans the chunk's trials. Scores are
bit-identical to a trial decoded alone, so results depend on neither the
chunk size nor ``--threads``, which changes nothing.
"""

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GuardError
from .model import FsMacSpec, StrategyChannel
from .rates import JointLaw, TeamPolicy, joint_law, log2_floor
from .rng import ROLE_CODEBOOKS, ROLE_TRIAL, stream

MESSAGE_CAP = 1 << 20
PAIR_CAP = 1 << 20
CODEBOOK_CELL_CAP = 1 << 24   # blocklength * (messages_a + messages_b)
TRIAL_CAP = 1 << 20           # a run's time: each trial draws two streams and a codebook pair
# Cells of codebooks and letters one chunk of trials holds; a chunk's message
# pairs are held to PAIR_CAP, the most one trial may have.
TRIAL_CELL_BUDGET = 1 << 16
# Message pairs one block of a trial's pair scores holds (256 kB of float64),
# so every letter is added to a block while it is still in cache.
PAIR_BLOCK_CELLS = 1 << 15
WILSON_Z = 1.959963984540054  # two-sided 95%

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
        for rate in (self.rate_a, self.rate_b):
            if not (math.isfinite(rate) and rate >= 0):
                raise ValueError(f"rates must be finite and nonnegative, got {rate}")
        if not 0 < self.epsilon <= 100:
            raise ValueError(f"epsilon must be in (0, 100], got {self.epsilon}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if self.trials > TRIAL_CAP:
            raise GuardError(f"trial guard: {self.trials} trials exceed cap {TRIAL_CAP}")
        if self.decoder not in DECODERS:
            raise ValueError(f"decoder must be one of {DECODERS}")
        for rate in (self.rate_a, self.rate_b):
            # checked on the exponent, so 2 ** (n * rate) can never overflow
            if self.blocklength * rate > math.log2(MESSAGE_CAP):
                raise GuardError(f"message guard: 2**({self.blocklength} * {rate}) "
                                 f"messages exceed cap {MESSAGE_CAP}")
        ma, mb = self.messages_a, self.messages_b
        # zero rates pass the exponent check with any blocklength
        if self.blocklength * (ma + mb) > CODEBOOK_CELL_CAP:
            raise GuardError(f"codebook guard: {self.blocklength} x ({ma} + {mb}) "
                             f"codebook cells exceed cap {CODEBOOK_CELL_CAP}")
        if ma * mb > PAIR_CAP:
            raise GuardError(
                f"decoder pair guard: {ma} x {mb} message pairs exceed cap {PAIR_CAP}"
            )

    @property
    def messages_a(self) -> int:
        return _message_count(self.blocklength, self.rate_a)

    @property
    def messages_b(self) -> int:
        return _message_count(self.blocklength, self.rate_b)


@dataclass(frozen=True)
class Codebooks:
    policy: TeamPolicy
    ids_a: np.ndarray  # (messages_a, blocklength) strategy ids
    ids_b: np.ndarray


@dataclass(frozen=True)
class TrialOutcome:
    outcome: str
    truth: tuple
    decoded: tuple | None
    s_seq: np.ndarray
    y_seq: np.ndarray


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


def wilson_interval(errors: int, trials: int, z: float = WILSON_Z) -> tuple:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= errors <= trials:
        raise ValueError(f"errors {errors} outside [0, {trials}]")
    phat = errors / trials
    z2n = z * z / trials
    denom = 1.0 + z2n
    center = (phat + z2n / 2.0) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z2n / (4.0 * trials)) / denom
    low = 0.0 if errors == 0 else max(0.0, center - half)  # exact at the edges
    high = 1.0 if errors == trials else min(1.0, center + half)
    return low, high


def generate_codebooks(policy: TeamPolicy, cfg: SimConfig,
                       rng: np.random.Generator | None = None) -> Codebooks:
    """Draw both codebooks from one stream, sender a first."""
    if rng is None:
        rng = stream(cfg.seed, 0, ROLE_CODEBOOKS)
    ids_a = rng.choice(policy.pi_a.size, size=(cfg.messages_a, cfg.blocklength),
                       p=policy.pi_a)
    ids_b = rng.choice(policy.pi_b.size, size=(cfg.messages_b, cfg.blocklength),
                       p=policy.pi_b)
    ids_a.setflags(write=False)
    ids_b.setflags(write=False)
    return Codebooks(policy=policy, ids_a=ids_a, ids_b=ids_b)


def _axis_subsets():
    for r in range(1, 5):
        yield from itertools.combinations(range(4), r)


class _DecodeContext:
    """Log tables of the subset marginals of one policy law, shaped like q,
    and the subsets' entropies.

    Codebook independent, so one context serves every trial of a run."""

    def __init__(self, spec: FsMacSpec, chan: StrategyChannel, policy: TeamPolicy):
        self.q = chan.q
        self.state_pmf = spec.state_pmf
        law = joint_law(spec, chan, policy).p
        self.tables = {}
        for combo in _axis_subsets():
            drop = tuple(i for i in range(4) if i not in combo)
            marg = law.sum(axis=drop, keepdims=True)
            log_t = log2_floor(marg)
            self.tables[combo] = (log_t, float(-(marg * log_t).sum()))

    @cached_property
    def logq(self) -> np.ndarray:
        """The channel's log table, which only the ML decoder reads."""
        return log2_floor(self.q)


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
    arrs = tuple(np.asarray(seqs[k], dtype=np.int64) for k in ("s", "ta", "tb", "y"))
    n = arrs[0].size
    if n < 1 or any(a.shape != (n,) for a in arrs):
        raise ValueError("sequences must share one length >= 1")
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


def _pair_blocks(log_t, combo, s_seq, y_seq, ids_a, ids_b):
    """Yield (first row, block) for whole-row blocks of the (messages_a,
    messages_b) sums of per-letter log-likelihoods. A block holds at most
    PAIR_BLOCK_CELLS pairs and gets every letter added in t order while it
    is in cache; each block is a view of one buffer that the next reuses.

    Each letter's (A, B) table is cut to a block by two 1-D gathers, through
    the smaller of the (A, messages_b) and (messages_a, B) intermediates, as
    a whole-codebook gather would choose. Column cuts serve every block, so
    they are made once per letter when all letters' cuts together fit in a
    block, and once per block and letter otherwise: no call holds every
    letter's intermediate."""
    (ma, n), (count_a, count_b), mb = ids_a.shape, log_t.shape[1:3], ids_b.shape[0]
    tables = [log_t[_index(combo, s, slice(None), slice(None), y)]
              for s, y in zip(s_seq.tolist(), y_seq.tolist())]
    # each letter's ids in one contiguous row, a copy of the codebook's size
    at_a, at_b = np.ascontiguousarray(ids_a.T), np.ascontiguousarray(ids_b.T)
    if count_a * mb > ma * count_b:          # rows first
        def cut(table, ia, ib):
            return table.take(ia, axis=0).take(ib, axis=1)
    elif n * count_a * mb > PAIR_BLOCK_CELLS:  # columns first, per block
        def cut(table, ia, ib):
            return table.take(ib, axis=1).take(ia, axis=0)
    else:                                     # columns first, once
        tables = [table.take(ib, axis=1) for table, ib in zip(tables, at_b)]

        def cut(table, ia, ib):
            return table.take(ia, axis=0)
    rows = max(1, PAIR_BLOCK_CELLS // mb)
    buf = np.empty((min(rows, ma), mb))
    for r0 in range(0, ma, rows):
        block = buf[:min(rows, ma - r0)]
        letters = zip(tables, at_a[:, r0:r0 + rows], at_b)
        # copied in, not added to zeros: log2_floor never gives -0.0, so this is 0.0 + it
        np.copyto(block, cut(*next(letters)))
        for letter in letters:
            block += cut(*letter)
        yield r0, block


def _pair_scores(log_t, combo, s_seq, y_seq, ids_a, ids_b) -> np.ndarray:
    """(messages_a, messages_b) mean log-likelihoods, summed in t order."""
    scores = np.empty((ids_a.shape[0], ids_b.shape[0]))
    for r0, block in _pair_blocks(log_t, combo, s_seq, y_seq, ids_a, ids_b):
        np.divide(block, ids_a.shape[1], out=scores[r0:r0 + block.shape[0]])
    return scores


def _listed_scores(ctx, combos, s_seq, y_seq, ids_a, ids_b, trial, rows, cols) -> list:
    """Mean log-likelihoods of the pairs (rows[k], cols[k]) of the chunk's
    trials trial[k], one array per subset, each summed in t order."""
    n = s_seq.shape[1]
    # flat codebook rows, so one letter's gather takes one index array per sender
    flat_a, flat_b = ids_a.reshape(-1, n), ids_b.reshape(-1, n)
    at_a, at_b = trial * ids_a.shape[1] + rows, trial * ids_b.shape[1] + cols
    accs = [np.zeros(trial.size) for _ in combos]
    for t in range(n):
        letters = s_seq[trial, t], flat_a[at_a, t], flat_b[at_b, t], y_seq[trial, t]
        for acc, combo in zip(accs, combos):
            acc += ctx.tables[combo][0][_index(combo, *letters)]
    return [acc / n for acc in accs]


def _concat(found) -> tuple:
    """Per-trial (trial, rows, cols) pieces joined into one survivor list."""
    if not found:
        return (np.zeros(0, dtype=np.intp),) * 3
    return tuple(np.concatenate(part) for part in zip(*found))


def _typical_survivors(ctx: _DecodeContext, ids_a, ids_b, s_seq, y_seq,
                       epsilon: float) -> tuple:
    """The jointly typical candidates of a chunk of trials as (trial, row,
    col) index arrays, in trial order and row-major within a trial.

    Codebooks are (trials, messages, n) and letters (trials, n). The state,
    output and single-sender filters score the whole chunk at once; the
    full-law block is scored per trial; the listed subsets score one
    flattened survivor list."""
    def passes(combo, score):
        return np.abs(-score - ctx.tables[combo][1]) < epsilon

    def survivors(combos, *letters):
        # letters broadcast to (..., n); each subset's mean is over that n
        return np.logical_and.reduce([
            passes(combo, ctx.tables[combo][0][_index(combo, *letters)].mean(axis=-1))
            for combo in combos])

    s, y = s_seq[:, None], y_seq[:, None]
    live = survivors([(0,), (3,), (0, 3)], s_seq, 0, 0, y_seq)
    ok_a = survivors([(1,), (0, 1), (1, 3), (0, 1, 3)], s, ids_a, 0, y)
    ok_b = survivors([(2,), (0, 2), (2, 3), (0, 2, 3)], s, 0, ids_b, y)
    full = (0, 1, 2, 3)
    n = s_seq.shape[1]
    found = []
    for k in np.flatnonzero(live & ok_a.any(axis=1) & ok_b.any(axis=1)):
        rows, cols = np.flatnonzero(ok_a[k]), np.flatnonzero(ok_b[k])
        # the surviving codebook rows are copied once; the copy is at most the codebook
        for r0, block in _pair_blocks(ctx.tables[full][0], full, s_seq[k], y_seq[k],
                                      ids_a[k, rows], ids_b[k, cols]):
            keep_a, keep_b = np.nonzero(passes(full, np.divide(block, n, out=block)))
            found.append((np.full(keep_a.size, k), rows[r0 + keep_a], cols[keep_b]))
    trial, rows, cols = _concat(found)
    listed = [(1, 2, 3), (0, 1, 2), (1, 2)]
    scores = _listed_scores(ctx, listed, s_seq, y_seq, ids_a, ids_b, trial, rows, cols)
    keep = np.logical_and.reduce([passes(c, score) for c, score in zip(listed, scores)])
    return trial[keep], rows[keep], cols[keep]


def _ml_survivors(ctx: _DecodeContext, ids_a, ids_b, s_seq, y_seq) -> tuple:
    """Every trial's maximum-likelihood pairs, as _typical_survivors lists them."""
    found = []
    for k in range(s_seq.shape[0]):
        scores = _pair_scores(ctx.logq, (0, 1, 2, 3), s_seq[k], y_seq[k],
                              ids_a[k], ids_b[k])
        rows, cols = np.nonzero(scores == scores.max())
        if rows.size == 0:
            raise AssertionError("ML always has at least one argmax")
        found.append((np.full(rows.size, k), rows, cols))
    return _concat(found)


def _classify(trial, rows, cols, wa, wb) -> tuple:
    """Each trial's outcome, as an index into OUTCOMES, and its decoded pair
    (-1, -1 unless exactly one pair survived), from the chunk's survivors."""
    count = np.bincount(trial, minlength=wa.size)
    first = np.cumsum(count) - count  # survivors come in trial order
    one = count == 1
    decoded = np.full((wa.size, 2), -1, dtype=np.intp)
    decoded[one, 0], decoded[one, 1] = rows[first[one]], cols[first[one]]
    wrong = one & ((decoded[:, 0] != wa) | (decoded[:, 1] != wb))
    return np.minimum(count, 2) + 2 * wrong, decoded


def _draw_trial(ctx: _DecodeContext, cfg: SimConfig, rng: np.random.Generator) -> tuple:
    """One trial's states, messages and output uniforms, in stream order."""
    n = cfg.blocklength
    s_seq = rng.choice(ctx.state_pmf.size, size=n, p=ctx.state_pmf)
    wa = rng.integers(cfg.messages_a)
    wb = rng.integers(cfg.messages_b)
    return s_seq, wa, wb, rng.random(n)


def _decode_chunk(ctx: _DecodeContext, cfg: SimConfig, ids_a, ids_b, s_seq,
                  wa, wb, uniforms) -> tuple:
    """Outcome codes, decoded pairs and output sequences of a chunk of trials
    from their draws: codebooks (trials, messages, n), states and uniforms
    (trials, n), messages (trials,)."""
    k = np.arange(wa.size)
    probs = ctx.q[s_seq, ids_a[k, wa], ids_b[k, wb]]   # (trials, n, Y)
    edges = probs.cumsum(axis=-1)
    edges[..., -1] = 1.0  # rounding must not leave a dead zone above the last bin
    y_seq = (uniforms[..., None] < edges).argmax(axis=-1)
    if cfg.decoder == "typicality":
        found = _typical_survivors(ctx, ids_a, ids_b, s_seq, y_seq, cfg.epsilon)
    else:
        found = _ml_survivors(ctx, ids_a, ids_b, s_seq, y_seq)
    codes, decoded = _classify(*found, wa, wb)
    return codes, decoded, y_seq


def run_trial(spec: FsMacSpec, chan: StrategyChannel, books: Codebooks,
              cfg: SimConfig, rng: np.random.Generator) -> TrialOutcome:
    """One trial of a fixed codebook pair, decoded as a chunk of one;
    estimate_error redraws codebooks."""
    ctx = _DecodeContext(spec, chan, books.policy)
    s_seq, wa, wb, uniforms = _draw_trial(ctx, cfg, rng)
    codes, decoded, y_seq = _decode_chunk(
        ctx, cfg, books.ids_a[None], books.ids_b[None], s_seq[None],
        np.array([wa]), np.array([wb]), uniforms[None])
    pair = (int(decoded[0, 0]), int(decoded[0, 1]))
    return TrialOutcome(outcome=OUTCOMES[codes[0]], truth=(int(wa), int(wb)),
                        decoded=None if pair[0] < 0 else pair,
                        s_seq=s_seq, y_seq=y_seq[0])


def _trial_cells(spec: FsMacSpec, cfg: SimConfig) -> int:
    """Cells one trial adds to a chunk: its codebooks and its letters
    (states, uniforms, outputs and their per-letter pmfs)."""
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
    unlucky code (use run_trial in a loop to study a fixed code).

    Trials decode as rows of chunks (see _chunk_trials). Each trial draws
    from its own streams and its scores do not depend on its chunk, so the
    outcome counts do not depend on the chunk size.
    """
    ctx = _DecodeContext(spec, chan, policy)
    size = _chunk_trials(spec, cfg)
    counts = np.zeros(len(OUTCOMES), dtype=np.int64)
    for start in range(0, cfg.trials, size):
        # the draws go straight into chunk arrays, so no trial's objects outlive it
        count, n = min(size, cfg.trials - start), cfg.blocklength
        ids_a = np.empty((count, cfg.messages_a, n), dtype=np.intp)
        ids_b = np.empty((count, cfg.messages_b, n), dtype=np.intp)
        s_seq, uniforms = np.empty((count, n), dtype=np.intp), np.empty((count, n))
        wa, wb = np.empty(count, dtype=np.intp), np.empty(count, dtype=np.intp)
        for j, item in enumerate(range(start, start + count)):
            books = generate_codebooks(policy, cfg, stream(cfg.seed, item, ROLE_CODEBOOKS))
            ids_a[j], ids_b[j] = books.ids_a, books.ids_b
            s_seq[j], wa[j], wb[j], uniforms[j] = _draw_trial(
                ctx, cfg, stream(cfg.seed, item, ROLE_TRIAL))
        codes, _, _ = _decode_chunk(ctx, cfg, ids_a, ids_b, s_seq, wa, wb, uniforms)
        counts += np.bincount(codes, minlength=len(OUTCOMES))
    no_typical, _, ambiguous, wrong = (int(c) for c in counts)
    errors = no_typical + ambiguous + wrong
    low, high = wilson_interval(errors, cfg.trials)
    return SimReport(config=cfg, trials=cfg.trials, errors=errors,
                     error_rate=errors / cfg.trials, wilson_low=low, wilson_high=high,
                     no_typical_count=no_typical, decoder_ambiguous_count=ambiguous,
                     wrong_decode_count=wrong)
