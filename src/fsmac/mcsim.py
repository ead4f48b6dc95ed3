"""Monte Carlo block-coding trials against the strategy channel.

Codebooks are i.i.d. strategy sequences drawn from a team policy. Each trial
samples messages, a state sequence, and outputs, then decodes either by
joint typicality (every nonempty subset of the four per-letter variables
must have empirical log-likelihood within epsilon of its entropy) or by
maximum likelihood over message pairs.

The typicality mask is staged. The state and output subsets can reject a
trial outright; the subsets holding one sender's strategy keep the surviving
codewords of each sender; the full law is scored on the block of surviving
rows and columns; and the three other pair subsets are scored only on the
listed pairs that pass it. Every pair score, the ML decoder's too, adds one
per-letter table entry at a time in t order and divides by n, the same sum
as the definition, so a score does not depend on which stage computes it.
The listed pairs are gathered one letter at a time, so no stage holds an
array of pairs by letters.

Randomness discipline: the codebooks and every trial own counter-based
streams keyed by (seed, item, role), so results are bit-identical for any
thread count and any execution order.
"""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .model import FsMacSpec, StrategyChannel
from .rates import JointLaw, TeamPolicy, joint_law, log2_floor
from .rng import ROLE_CODEBOOKS, ROLE_TRIAL, stream

MESSAGE_CAP = 1 << 20
PAIR_CAP = 1 << 20
CODEBOOK_CELL_CAP = 1 << 24   # blocklength * (messages_a + messages_b)
TRIAL_CAP = 1 << 20           # estimate_error submits every trial up front
WILSON_Z = 1.959963984540054  # two-sided 95%

DECODERS = ("typicality", "max_likelihood")

OUTCOME_OK = "ok"
OUTCOME_NO_TYPICAL = "no_typical"
OUTCOME_AMBIGUOUS = "ambiguous"
OUTCOME_WRONG = "wrong_single"


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
    """Subset marginals, their entropies, and log tables for one policy law.

    Codebook independent, so one context serves every trial of a run."""

    def __init__(self, spec: FsMacSpec, chan: StrategyChannel, policy: TeamPolicy):
        self.q = chan.q
        self.logq = log2_floor(chan.q)
        self.state_pmf = spec.state_pmf
        law = joint_law(spec, chan, policy).p
        self.tables = {}
        for combo in _axis_subsets():
            drop = tuple(i for i in range(4) if i not in combo)
            marg = law.sum(axis=drop)
            log_t = log2_floor(marg)
            self.tables[combo] = (log_t, float(-(marg * log_t).sum()))


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


def _single_side_scores(ctx, combo, s_seq, y_seq, ids):
    log_t, _ = ctx.tables[combo]
    index = tuple(
        {0: s_seq, 3: y_seq}.get(axis, ids) for axis in combo
    )
    return log_t[index].mean(axis=-1)        # (messages,)


def _letter_axes(log_t, combo, s_seq, y_seq):
    """A pair subset's log table on all four axes, the absent ones as
    singletons, and the (s, y) index of each letter into it."""
    full = np.expand_dims(log_t, tuple(i for i in (0, 3) if i not in combo))
    s_idx = s_seq if 0 in combo else np.zeros_like(s_seq)
    y_idx = y_seq if 3 in combo else np.zeros_like(y_seq)
    return full, s_idx, y_idx


def _pair_scores(log_t, combo, s_seq, y_seq, ids_a, ids_b) -> np.ndarray:
    """(messages_a, messages_b) mean log-likelihoods, summed in t order.

    Each letter's (A, B) table is cut to the block by two 1-D gathers. Columns
    go first unless that intermediate is the larger one: copying whole rows
    second is the cheaper gather, and memory stays near the output's size."""
    full, s_idx, y_idx = _letter_axes(log_t, combo, s_seq, y_seq)
    (ma, n), mb = ids_a.shape, ids_b.shape[0]
    cols_first = full.shape[1] * mb <= ma * full.shape[2]
    acc = np.zeros((ma, mb))
    for t in range(n):
        table = full[s_idx[t], :, :, y_idx[t]]
        if cols_first:
            acc += table[:, ids_b[:, t]][ids_a[:, t]]
        else:
            acc += table[ids_a[:, t]][:, ids_b[:, t]]
    return acc / n


def _listed_scores(ctx, combos, s_seq, y_seq, ids_a, ids_b, rows, cols) -> list:
    """Mean log-likelihoods of the pairs (rows[k], cols[k]), one array per
    subset, each summed in t order."""
    axes = [_letter_axes(ctx.tables[combo][0], combo, s_seq, y_seq) for combo in combos]
    accs = [np.zeros(rows.size) for _ in combos]
    for t in range(s_seq.size):
        ia, ib = ids_a[rows, t], ids_b[cols, t]
        for acc, (full, s_idx, y_idx) in zip(accs, axes):
            acc += full[s_idx[t], ia, ib, y_idx[t]]
    return [acc / s_seq.size for acc in accs]


def _typical_pairs(ctx: _DecodeContext, books: Codebooks, s_seq, y_seq,
                   epsilon: float) -> tuple:
    """The jointly typical candidates as (rows, cols) message index arrays,
    in row-major order."""
    ids_a, ids_b = books.ids_a, books.ids_b
    none = (np.zeros(0, dtype=np.intp),) * 2

    def passes(combo, score):
        return np.abs(-score - ctx.tables[combo][1]) < epsilon

    def survivors(combos, ids):
        ok = np.ones(ids.shape[0], dtype=bool)
        for combo in combos:
            ok &= passes(combo, _single_side_scores(ctx, combo, s_seq, y_seq, ids))
        return np.flatnonzero(ok)

    for combo in [(0,), (3,), (0, 3)]:
        index = tuple({0: s_seq, 3: y_seq}[axis] for axis in combo)
        if not passes(combo, ctx.tables[combo][0][index].mean()):
            return none
    rows = survivors([(1,), (0, 1), (1, 3), (0, 1, 3)], ids_a)
    cols = survivors([(2,), (0, 2), (2, 3), (0, 2, 3)], ids_b)
    if rows.size == 0 or cols.size == 0:
        return none
    full = (0, 1, 2, 3)
    # the surviving codebook rows are copied once; the copy is at most the codebook
    keep_a, keep_b = np.nonzero(passes(full, _pair_scores(
        ctx.tables[full][0], full, s_seq, y_seq, ids_a[rows], ids_b[cols])))
    rows, cols = rows[keep_a], cols[keep_b]
    listed = [(1, 2, 3), (0, 1, 2), (1, 2)]
    scores = _listed_scores(ctx, listed, s_seq, y_seq, ids_a, ids_b, rows, cols)
    keep = np.logical_and.reduce([passes(c, score) for c, score in zip(listed, scores)])
    return rows[keep], cols[keep]


def _classify(rows, cols, truth) -> tuple:
    if rows.size == 0:
        return OUTCOME_NO_TYPICAL, None
    if rows.size > 1:
        return OUTCOME_AMBIGUOUS, None
    decoded = (int(rows[0]), int(cols[0]))
    if decoded != truth:
        return OUTCOME_WRONG, decoded
    return OUTCOME_OK, decoded


def _run_trial(ctx: _DecodeContext, books: Codebooks, cfg: SimConfig,
               rng: np.random.Generator) -> TrialOutcome:
    n = cfg.blocklength
    s_seq = rng.choice(ctx.state_pmf.size, size=n, p=ctx.state_pmf)
    wa = int(rng.integers(cfg.messages_a))
    wb = int(rng.integers(cfg.messages_b))
    a_true = books.ids_a[wa]
    b_true = books.ids_b[wb]
    probs = ctx.q[s_seq, a_true, b_true]            # (n, Y)
    edges = probs.cumsum(axis=1)
    edges[:, -1] = 1.0  # rounding must not leave a dead zone above the last bin
    y_seq = (rng.random(n)[:, None] < edges).argmax(axis=1)
    truth = (wa, wb)
    if cfg.decoder == "typicality":
        rows, cols = _typical_pairs(ctx, books, s_seq, y_seq, cfg.epsilon)
        outcome, decoded = _classify(rows, cols, truth)
    else:
        scores = _pair_scores(ctx.logq, (0, 1, 2, 3), s_seq, y_seq,
                              books.ids_a, books.ids_b)
        outcome, decoded = _classify(*np.nonzero(scores == scores.max()), truth)
        if outcome == OUTCOME_NO_TYPICAL:
            raise AssertionError("ML always has at least one argmax")
    return TrialOutcome(outcome=outcome, truth=truth, decoded=decoded,
                        s_seq=s_seq, y_seq=y_seq)


def run_trial(spec: FsMacSpec, chan: StrategyChannel, books: Codebooks,
              cfg: SimConfig, rng: np.random.Generator) -> TrialOutcome:
    """One trial of a fixed codebook pair; estimate_error redraws codebooks."""
    return _run_trial(_DecodeContext(spec, chan, books.policy), books, cfg, rng)


def estimate_error(spec: FsMacSpec, chan: StrategyChannel, policy: TeamPolicy,
                   cfg: SimConfig, threads: int = 1) -> SimReport:
    """Monte Carlo block-error estimate with a Wilson 95% interval.

    Every trial draws a fresh codebook pair, so the estimate targets the
    random-coding ensemble average rather than the error of one lucky or
    unlucky code (use run_trial in a loop to study a fixed code).
    """
    ctx = _DecodeContext(spec, chan, policy)

    def one(trial: int) -> str:
        books = generate_codebooks(policy, cfg,
                                   stream(cfg.seed, trial, ROLE_CODEBOOKS))
        return _run_trial(ctx, books, cfg,
                          stream(cfg.seed, trial, ROLE_TRIAL)).outcome

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one, range(cfg.trials)))
    else:
        outcomes = [one(t) for t in range(cfg.trials)]
    no_typical = outcomes.count(OUTCOME_NO_TYPICAL)
    ambiguous = outcomes.count(OUTCOME_AMBIGUOUS)
    wrong = outcomes.count(OUTCOME_WRONG)
    errors = no_typical + ambiguous + wrong
    low, high = wilson_interval(errors, cfg.trials)
    return SimReport(config=cfg, trials=cfg.trials, errors=errors,
                     error_rate=errors / cfg.trials, wilson_low=low, wilson_high=high,
                     no_typical_count=no_typical, decoder_ambiguous_count=ambiguous,
                     wrong_decode_count=wrong)
