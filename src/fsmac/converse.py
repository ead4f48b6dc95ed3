"""Single-letterization audit for block codes.

Any blocklength-n code run over the channel induces, at each time t, a
distribution over per-letter strategy tables for each sender: the table is
whatever the encoder would do to its current observation given its message
and observation history. Conditioned on the past state sequence, the two
senders' tables are independent (their observation histories are independent
given the states, and the messages are private), and the current letter then
follows the one-shot strategy-channel law exactly.

This module makes that claim checkable by brute force. ``verify_factorization``
assembles the conditional letter law straight from the code tables with
nothing but literal sums (``_literal_laws``), builds the claimed table
distributions by counting (``_policies``), and compares the two across every
time and past-state sequence. ``sigma_average_pentagon`` averages the outer
bounds the factorization licenses over the same (time, past) slices through
the optimizer's factored objective, with no letter law.

One sweep, ``_pasts``, is the only route through those slices, one time step
at a time: a time's pasts come as one array, and the audits take them in
groups. Each audit checks the code tables against the spec once, before the
first group. A past's literal law adds one term per (message and observation
history of each sender, current s, oa, ob, y), in that lexicographic order,
into one accumulator, so it has the bits of a loop that adds one float at a
time; a group's induced policies are one ``bincount`` per sender, and its
pmf checks, factorized laws and pentagons are those of model.pmf_refused,
rates.product_law and the optimizer's _Objective.pentagons, each taken once
for the whole group. Each group
holds at most SWEEP_CELL_BUDGET float64 cells, or one past's where that is
more, and its literal terms come in chunks of at most SWEEP_CELL_BUDGET, or
the S * Sa * Sb * |Y| terms of one (past, a row, b row) where that is more;
a chunk that ends inside a past is continued by the next, in the same
order. Tests hold the sweep's literal laws and induced policies to the
one-float-at-a-time loops in tests/reference.py.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError
from .model import FsMacSpec, StrategyChannel, check_channel, pmf_refused
from .optimize import _Objective, _row_cells
from .rates import JointLaw, RatePentagon, TeamPolicy, checked_pentagon, product_law

MAP_CELL_CAP = 1_000_000
HISTORY_CAP = 4096
AUDIT_TERM_CAP = 1 << 28   # literal terms one audit of random codes may add, see check_audit_work
SWEEP_CELL_BUDGET = 1 << 16   # float64 cells one group of pasts or one chunk of terms may hold


@dataclass(frozen=True)
class EncoderMaps:
    """Per-time code tables for both senders.

    ``phi_a[k]`` has shape (messages_a, obs_size_a**k, obs_size_a) and holds
    the input sent at time t = k + 1 given the message, the index of the
    length-k observation history (little-endian: the first observation is
    the least significant digit), and the current observation.
    """

    phi_a: tuple
    phi_b: tuple

    def __post_init__(self):
        for name, phis in (("phi_a", self.phi_a), ("phi_b", self.phi_b)):
            if len(phis) == 0:
                raise ValueError(f"{name} needs at least one time step")
            for k, phi in enumerate(phis):
                if not isinstance(phi, np.ndarray) or phi.dtype.kind not in "iu":
                    raise ValueError(f"{name}[{k}] must be an integer array")
                if phi.ndim != 3 or phi.shape[0] != phis[0].shape[0]:
                    raise ValueError(f"{name}[{k}] has shape {phi.shape}, expected 3 axes "
                                     "with a fixed message count")
                base = phis[0].shape[2]
                if phi.shape[1] != base ** k or phi.shape[2] != base:
                    raise ValueError(f"{name}[{k}] history axis must have size {base}**{k}")
                if np.any(phi < 0):
                    raise ValueError(f"{name}[{k}] has negative input symbols")
        if len(self.phi_a) != len(self.phi_b):
            raise ValueError("phi_a and phi_b must cover the same blocklength")
        if self.messages_a < 1 or self.messages_b < 1:
            raise ValueError("message counts must be >= 1")

    @property
    def blocklength(self) -> int:
        return len(self.phi_a)

    @property
    def messages_a(self) -> int:
        return self.phi_a[0].shape[0]

    @property
    def messages_b(self) -> int:
        return self.phi_b[0].shape[0]


@dataclass(frozen=True)
class ConverseAudit:
    max_deviation: float
    checks: int
    worst_t: int
    worst_sigma: str


def sigma_string(digits) -> str:
    """Serialize a past-state sequence, oldest first ('' if empty).

    Digits are concatenated while they are single characters; any state
    symbol above 9 switches the whole string to comma-joined form, which
    always holds a comma ('12,' for the one-state past (12,)), so it never
    reads as a string of digits.
    """
    digits = [int(d) for d in digits]
    if any(d < 0 for d in digits):
        raise ValueError(f"state digits must be nonnegative, got {digits}")
    if any(d > 9 for d in digits):
        return ",".join(str(d) for d in digits) + ("," if len(digits) == 1 else "")
    return "".join(str(d) for d in digits)


def _product(size: int, length: int) -> np.ndarray:
    """The rows of itertools.product(range(size), repeat=length), in its
    order, as a (size**length, length) int array."""
    return np.indices((size,) * length, dtype=np.int64).reshape(length, size ** length).T


def _check_history(spec: FsMacSpec, blocklength: int) -> None:
    """Refuse a blocklength below 1 or one whose sweep has more than
    HISTORY_CAP pasts; the count stops at the cap."""
    if blocklength < 1:
        raise ValueError(f"blocklength must be >= 1, got {blocklength}")
    total = 0
    for t in range(1, blocklength + 1):
        total += spec.size_s ** (t - 1)
        if total > HISTORY_CAP:
            raise GuardError(f"history sweep guard: blocklength {blocklength} needs "
                             f"more than {HISTORY_CAP} past-state sequences")


def _pasts(spec: FsMacSpec, blocklength: int):
    """Every time with its pasts, as (t, sigmas, alpha): sigmas holds the
    pasts of t - 1 states (oldest first) in itertools.product order, one per
    row, and alpha[i] = P(sigmas[i]) / blocklength is its weight under a
    uniformly drawn time; the weights of all times sum to one. The
    blocklength and the history budget are checked on the call, before the
    first time is drawn; the budget count stops at HISTORY_CAP."""
    _check_history(spec, blocklength)

    def sweep():
        for t in range(1, blocklength + 1):
            sigmas = _product(spec.size_s, t - 1)
            prob = np.ones(len(sigmas))
            for u in range(t - 1):
                prob *= spec.state_pmf[sigmas[:, u]]
            yield t, sigmas, prob / blocklength

    return sweep()


def alpha_sigma_weights(spec: FsMacSpec, blocklength: int) -> dict:
    """Weight of each (time, past states) pair under a uniformly drawn time.

    Keys are sigma strings; values are P(past states) / blocklength. The
    weights over all times and pasts sum to one.
    """
    return {sigma_string(sigma): weight for _, sigmas, alpha in _pasts(spec, blocklength)
            for sigma, weight in zip(sigmas.tolist(), alpha)}


def _check_maps(spec: FsMacSpec, blocklength: int, messages_a: int, messages_b: int) -> None:
    """Refuse code tables of a blocklength or a message count below 1, or of
    more than MAP_CELL_CAP cells; the count stops at the cap."""
    if blocklength < 1:
        raise ValueError(f"blocklength must be >= 1, got {blocklength}")
    if messages_a < 1 or messages_b < 1:
        raise ValueError("message counts must be >= 1")
    cells = 0
    for t in range(1, blocklength + 1):
        cells += messages_a * spec.size_sa ** t + messages_b * spec.size_sb ** t
        if cells > MAP_CELL_CAP:
            raise GuardError(f"encoder map guard: blocklength {blocklength} needs more "
                             f"than {MAP_CELL_CAP} table cells")


def check_audit_work(spec: FsMacSpec, blocklength: int, messages_a: int, messages_b: int,
                     codes: int) -> None:
    """Refuse an audit of codes random codes before the first is drawn:
    random_encoders' checks, then the sweep's, then the literal terms. At
    time t the sweep adds, per code, S^(t-1) pasts x messages_a * Sa^(t-1)
    rows of sender a x messages_b * Sb^(t-1) rows of sender b x S * Sa * Sb
    * |Y| terms; summed over t and times codes, that may be at most
    AUDIT_TERM_CAP. The count is in integers and stops once the cap is
    passed."""
    _check_maps(spec, blocklength, messages_a, messages_b)
    _check_history(spec, blocklength)
    letter = spec.size_s * spec.size_sa * spec.size_sb
    terms = 0
    for t in range(1, blocklength + 1):
        terms += letter ** (t - 1) * messages_a * messages_b * letter * spec.size_y
        if terms * codes > AUDIT_TERM_CAP:
            raise GuardError(f"converse work guard: blocklength {blocklength} over {codes} "
                             f"codes adds more than {AUDIT_TERM_CAP} literal terms")


def random_encoders(spec: FsMacSpec, blocklength: int, messages_a: int,
                    messages_b: int, rng: np.random.Generator) -> EncoderMaps:
    """Uniformly random code tables, mostly for audits and negative controls."""
    _check_maps(spec, blocklength, messages_a, messages_b)
    phi_a = tuple(
        rng.integers(0, spec.size_xa, size=(messages_a, spec.size_sa ** k, spec.size_sa))
        for k in range(blocklength)
    )
    phi_b = tuple(
        rng.integers(0, spec.size_xb, size=(messages_b, spec.size_sb ** k, spec.size_sb))
        for k in range(blocklength)
    )
    return EncoderMaps(phi_a=phi_a, phi_b=phi_b)


def _check_tables(spec: FsMacSpec, maps: EncoderMaps) -> None:
    """Refuse code tables that do not fit the spec's alphabets; ValueError
    names the first that fails, in time order, sender a before b."""
    for t in range(1, maps.blocklength + 1):
        for sender, phi, size_obs, size_in in (
                ("a", maps.phi_a[t - 1], spec.size_sa, spec.size_xa),
                ("b", maps.phi_b[t - 1], spec.size_sb, spec.size_xb)):
            if phi.shape[2] != size_obs or phi.max() >= size_in:
                raise ValueError(f"sender {sender}'s time-{t} table must map {size_obs} "
                                 f"observations to inputs in [0, {size_in})")


def _policies(spec: FsMacSpec, maps: EncoderMaps, t: int, sigmas: np.ndarray) -> tuple:
    """Both senders' time-t table distributions given each past, (pasts, A)
    and (pasts, B): counts over uniform messages, mixing observation
    histories with their probability given the past. A history's
    probability multiplies its observations newest first and is divided by
    the message count; one bincount per sender adds them in (past, message,
    little-endian history index) order."""

    def one_side(phi, obs_rows, size_in, messages):
        size_obs, count = phi.shape[2], size_in ** phi.shape[2]
        hists = _product(size_obs, t - 1)[:, ::-1]   # row h: history index h, oldest first
        weights = np.ones((len(sigmas), len(hists)))
        for u in reversed(range(t - 1)):
            weights *= obs_rows[sigmas[:, u, None], hists[:, u]]
        ids = np.asarray(phi, dtype=np.int64) @ size_in ** np.arange(size_obs)
        bins = np.arange(len(sigmas))[:, None, None] * count + ids
        weights = np.broadcast_to((weights / messages)[:, None], bins.shape)
        return np.bincount(bins.ravel(), weights.ravel(),
                           minlength=len(sigmas) * count).reshape(len(sigmas), count)

    return (one_side(maps.phi_a[t - 1], spec.obs_a, spec.size_xa, maps.messages_a),
            one_side(maps.phi_b[t - 1], spec.obs_b, spec.size_xb, maps.messages_b))


def _sender_rows(phi: np.ndarray, obs_rows: np.ndarray, sigmas: np.ndarray, size_in: int,
                 messages: int) -> tuple:
    """One sender's (message, history) rows at the time of phi, histories in
    itertools.product order: each past's weight of each history, (pasts,
    histories), 1 / messages times each observation's probability given its
    state, oldest first; and per row its inputs (rows, observations) and
    its table id, re-derived digit by digit."""
    size_obs, length = phi.shape[2], sigmas.shape[1]
    hists = _product(size_obs, length)
    path = np.full((len(sigmas), len(hists)), 1.0 / messages)
    for u in range(length):
        path *= obs_rows[sigmas[:, u, None], hists[:, u]]
    # the history index convention is little-endian in time
    inputs = np.asarray(phi, dtype=np.int64)[:, hists @ size_obs ** np.arange(length)]
    inputs = inputs.reshape(-1, size_obs)
    return path, inputs, inputs @ size_in ** np.arange(size_obs)


def _literal_laws(spec: FsMacSpec, maps: EncoderMaps, t: int, sigmas: np.ndarray) -> np.ndarray:
    """P(table_a, table_b, y, s | past) for every past in sigmas, by literal
    summation, (pasts, A, B, Y, S): not the package's (S, A, B, Y) layout,
    on purpose, so agreement with the factorized law cannot come from
    shared code.

    A past's terms run over (message a, history a, message b, history b, s,
    oa, ob, y) in that lexicographic order, histories in itertools.product
    order, and each is ((pa_path * pb_path) * px) * W. np.add.at adds them
    one at a time in that order, so each sum has the bits of a loop that
    adds one float at a time. The terms come in chunks of whole (past, a
    row, b row) units, at most SWEEP_CELL_BUDGET terms or one unit's
    S * Sa * Sb * |Y|; a chunk that ends inside a past is continued by the
    next.
    """
    path_a, in_a, ids_a = _sender_rows(maps.phi_a[t - 1], spec.obs_a, sigmas, spec.size_xa,
                                       maps.messages_a)
    path_b, in_b, ids_b = _sender_rows(maps.phi_b[t - 1], spec.obs_b, sigmas, spec.size_xb,
                                       maps.messages_b)
    px = (spec.state_pmf[:, None] * spec.obs_a)[:, :, None] * spec.obs_b[:, None]
    count_a, count_b = spec.size_xa ** spec.size_sa, spec.size_xb ** spec.size_sb
    size_s, size_y = spec.size_s, spec.size_y
    laws = np.zeros((len(sigmas), count_a, count_b, size_y, size_s))
    units = (len(sigmas), len(ids_a), len(ids_b))
    total, chunk = math.prod(units), max(1, SWEEP_CELL_BUDGET // (px.size * size_y))
    # W's row of (s, xa, xb), and the offset of each (s, y) in a law's (y, s) cells
    w_rows = spec.channel.reshape(-1, size_y)
    s_row = np.arange(size_s)[:, None, None] * spec.size_xa
    ys = np.arange(size_s)[:, None, None, None] + np.arange(size_y) * size_s
    for u0 in range(0, total, chunk):
        p, ra, rb = np.unravel_index(np.arange(u0, min(u0 + chunk, total)), units)
        pab = path_a[p, ra % path_a.shape[1]] * path_b[p, rb % path_b.shape[1]]
        rows = (s_row + in_a[ra][:, None, :, None]) * spec.size_xb + in_b[rb][:, None, None]
        terms = (pab[:, None, None, None] * px)[..., None] * w_rows[rows]
        cells = ((p * count_a + ids_a[ra]) * count_b + ids_b[rb]) * (size_y * size_s)
        cells = np.broadcast_to(cells[:, None, None, None, None] + ys, terms.shape)
        np.add.at(laws.reshape(-1), cells.ravel(), terms.ravel())
    return laws


def _groups(maps: EncoderMaps, t: int, count: int, cells: int):
    """Consecutive slices of a time's count pasts, each of at most
    SWEEP_CELL_BUDGET cells and at least one past. A past counts cells, or
    the (message, history) rows of the larger of the senders' time-t
    tables if that is more: the induced policies weigh every row per past."""
    rows = max(math.prod(phi.shape[:2]) for phi in (maps.phi_a[t - 1], maps.phi_b[t - 1]))
    step = max(1, SWEEP_CELL_BUDGET // max(cells, rows))
    return (slice(i, i + step) for i in range(0, count, step))


def verify_factorization(spec: FsMacSpec, maps: EncoderMaps,
                         chan: StrategyChannel) -> ConverseAudit:
    """Compare the literal letter law with the factorized one everywhere.

    Sweeps every time step and every past-state sequence; returns the largest
    absolute entry difference and where it occurred, the first in sweep
    order among equals. Each group of pasts builds its literal laws, induced
    policies and joint laws as arrays, the laws by joint_law's product_law;
    pmf_refused marks the first past whose policy TeamPolicy would refuse,
    or whose law JointLaw would, and that constructor raises its error.
    """
    check_channel(spec, chan)
    pasts = _pasts(spec, maps.blocklength)
    _check_tables(spec, maps)
    worst, worst_t, worst_sigma, checks = -1.0, 1, "", 0
    for t, sigmas, _ in pasts:
        for group in _groups(maps, t, len(sigmas), chan.q.size):
            literal = _literal_laws(spec, maps, t, sigmas[group])
            pi_a, pi_b = _policies(spec, maps, t, sigmas[group])
            laws = product_law(spec, chan, pi_a, pi_b)
            refused = pmf_refused(pi_a) | pmf_refused(pi_b) | pmf_refused(laws, axes=4)
            first = int(np.argmax(refused))
            if refused[first]:
                TeamPolicy(pi_a=pi_a[first], pi_b=pi_b[first])
                JointLaw(p=laws[first])
            dev = np.abs(literal - laws.transpose(0, 2, 3, 4, 1)).max(axis=(1, 2, 3, 4))
            i = int(np.argmax(dev))
            if dev[i] > worst:
                worst, worst_t, worst_sigma = float(dev[i]), t, sigma_string(sigmas[group][i])
        checks += len(sigmas)
    return ConverseAudit(max_deviation=worst, checks=checks,
                         worst_t=worst_t, worst_sigma=worst_sigma)


def sigma_average_pentagon(spec: FsMacSpec, maps: EncoderMaps,
                           chan: StrategyChannel) -> RatePentagon:
    """Outer bounds for the code: the alpha-weighted average of the bounds of
    its per-(time, past) letter laws.

    The pair (t, sigma) acts as a time-sharing variable, so each bound of the
    averaged law is the weighted sum of the per-slice bounds. Each group of
    pasts of positive weight reads the checked pentagons of its induced
    policies off one objective on the channel's factors, the region's
    _Objective.pentagons, so no letter law is built; the pasts before the
    first whose policy pmf_refused marks add their bounds in sweep order,
    that past's TeamPolicy raises, and the sum is checked once more.
    """
    check_channel(spec, chan)
    pasts = _pasts(spec, maps.blocklength)
    _check_tables(spec, maps)
    obj = _Objective(chan)
    bounds = np.zeros(3)
    for t, sigmas, alpha in pasts:
        sigmas, alpha = sigmas[alpha != 0.0], alpha[alpha != 0.0]
        for group in _groups(maps, t, len(sigmas), 3 * _row_cells(obj.shape)):
            pi_a, pi_b = _policies(spec, maps, t, sigmas[group])
            refused = pmf_refused(pi_a) | pmf_refused(pi_b)
            stop = int(np.argmax(refused)) if refused.any() else len(refused)
            for weight, pent in zip(alpha[group], obj.pentagons(pi_a[:stop], pi_b[:stop])):
                bounds += weight * np.array([pent.bound_a, pent.bound_b, pent.bound_sum])
            if stop < len(refused):
                TeamPolicy(pi_a=pi_a[stop], pi_b=pi_b[stop])
    return checked_pentagon(*bounds, spec.size_y)
