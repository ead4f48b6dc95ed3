"""Single-letterization audit for block codes.

Any blocklength-n code run over the channel induces, at each time t, a
distribution over per-letter strategy tables for each sender: the table is
whatever the encoder would do to its current observation given its message
and observation history. Conditioned on the past state sequence, the two
senders' tables are independent (their observation histories are independent
given the states, and the messages are private), and the current letter then
follows the one-shot strategy-channel law exactly.

This module makes that claim checkable by brute force. ``brute_force_conditional``
assembles the conditional letter law straight from the code tables with
nothing but literal sums, ``induced_sigma_policy`` builds the claimed table
distributions by counting, and ``verify_factorization`` compares the two
across every time and past-state sequence. ``sigma_average_pentagon``
averages the outer bounds the factorization licenses over the same (time,
past) slices through the optimizer's factored objective, with no letter law.
One sweep, ``_pasts``, walks those slices for every function here.
"""

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import GuardError
from .model import FsMacSpec, StrategyChannel, check_channel
from .optimize import _Objective
from .rates import RatePentagon, TeamPolicy, checked_pentagon, joint_law

MAP_CELL_CAP = 1_000_000
HISTORY_CAP = 4096


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


def _pasts(spec: FsMacSpec, blocklength: int):
    """Every (t, sigma, alpha): a time, a past of t - 1 states (oldest first)
    and alpha = P(sigma) / blocklength, its weight under a uniformly drawn
    time; the weights sum to one. The blocklength and the history budget are
    checked on the call, before the first triple is drawn; the budget count
    stops at HISTORY_CAP."""
    if blocklength < 1:
        raise ValueError(f"blocklength must be >= 1, got {blocklength}")
    total = 0
    for t in range(1, blocklength + 1):
        total += spec.size_s ** (t - 1)
        if total > HISTORY_CAP:
            raise GuardError(f"history sweep guard: blocklength {blocklength} needs "
                             f"more than {HISTORY_CAP} past-state sequences")

    def sweep():
        for t in range(1, blocklength + 1):
            for sigma in itertools.product(range(spec.size_s), repeat=t - 1):
                prob = 1.0
                for s in sigma:
                    prob *= spec.state_pmf[s]
                yield t, sigma, prob / blocklength

    return sweep()


def alpha_sigma_weights(spec: FsMacSpec, blocklength: int) -> dict:
    """Weight of each (time, past states) pair under a uniformly drawn time.

    Keys are sigma strings; values are P(past states) / blocklength. The
    weights over all times and pasts sum to one.
    """
    return {sigma_string(sigma): alpha for _, sigma, alpha in _pasts(spec, blocklength)}


def random_encoders(spec: FsMacSpec, blocklength: int, messages_a: int,
                    messages_b: int, rng: np.random.Generator) -> EncoderMaps:
    """Uniformly random code tables, mostly for audits and negative controls."""
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
    phi_a = tuple(
        rng.integers(0, spec.size_xa, size=(messages_a, spec.size_sa ** k, spec.size_sa))
        for k in range(blocklength)
    )
    phi_b = tuple(
        rng.integers(0, spec.size_xb, size=(messages_b, spec.size_sb ** k, spec.size_sb))
        for k in range(blocklength)
    )
    return EncoderMaps(phi_a=phi_a, phi_b=phi_b)


def _history_weights(obs_rows: np.ndarray, sigma) -> np.ndarray:
    """P(observation history | past states) over little-endian history index."""
    return reduce(lambda w, v: np.multiply.outer(w, v).ravel(),
                  (obs_rows[s] for s in reversed(sigma)), np.ones(1))


def _time_and_past(spec: FsMacSpec, maps: EncoderMaps, t: int, sigma) -> tuple:
    """sigma as a tuple of ints, once t is a time of the code whose tables
    fit the spec's alphabets and sigma a past of t - 1 states of the
    alphabet; ValueError otherwise."""
    sigma = tuple(int(s) for s in sigma)
    if not 1 <= t <= maps.blocklength:
        raise ValueError(f"time {t} outside 1..{maps.blocklength}")
    for sender, phi, size_obs, size_in in (("a", maps.phi_a[t - 1], spec.size_sa, spec.size_xa),
                                           ("b", maps.phi_b[t - 1], spec.size_sb, spec.size_xb)):
        if phi.shape[2] != size_obs or phi.max() >= size_in:
            raise ValueError(f"sender {sender}'s time-{t} table must map {size_obs} "
                             f"observations to inputs in [0, {size_in})")
    if len(sigma) != t - 1:
        raise ValueError(f"time {t} needs {t - 1} past states, got {len(sigma)}")
    if any(not 0 <= s < spec.size_s for s in sigma):
        raise ValueError(f"past state sequence {sigma} outside the state alphabet")
    return sigma


def induced_sigma_policy(spec: FsMacSpec, maps: EncoderMaps, t: int, sigma) -> TeamPolicy:
    """Distribution of both senders' time-t tables given the past states.

    Counts over uniform messages, mixing observation histories with their
    probability given the state sequence.
    """
    sigma = _time_and_past(spec, maps, t, sigma)

    def one_side(phi, obs_rows, input_size, messages):
        powers = input_size ** np.arange(phi.shape[2])
        ids = (phi * powers).sum(axis=2)                     # (messages, histories)
        hist_w = _history_weights(obs_rows, sigma)
        weights = np.tile(hist_w, messages) / messages
        return np.bincount(ids.ravel(), weights=weights,
                           minlength=input_size ** phi.shape[2])

    pi_a = one_side(maps.phi_a[t - 1], spec.obs_a, spec.size_xa, maps.messages_a)
    pi_b = one_side(maps.phi_b[t - 1], spec.obs_b, spec.size_xb, maps.messages_b)
    return TeamPolicy(pi_a=pi_a, pi_b=pi_b)


def brute_force_conditional(spec: FsMacSpec, maps: EncoderMaps, t: int, sigma) -> np.ndarray:
    """Letter law P(table_a, table_b, y, s | past states), by literal summation.

    Axis order (table_a, table_b, y, s) on purpose: it is not the layout the
    rest of the package uses, so agreement with the factorized law cannot be
    an artifact of shared code. Nothing here touches the strategy-channel
    construction; tables are identified by re-deriving their id digit by
    digit.
    """
    sigma = _time_and_past(spec, maps, t, sigma)
    count_a = spec.size_xa ** spec.size_sa
    count_b = spec.size_xb ** spec.size_sb
    out = np.zeros((count_a, count_b, spec.size_y, spec.size_s))
    phi_a, phi_b = maps.phi_a[t - 1], maps.phi_b[t - 1]
    for wa in range(maps.messages_a):
        for oa_hist in itertools.product(range(spec.size_sa), repeat=t - 1):
            pa_path = 1.0 / maps.messages_a
            for u, o in enumerate(oa_hist):
                pa_path *= spec.obs_a[sigma[u], o]
            if pa_path == 0.0:
                continue
            # the history index convention is little-endian in time
            ha = sum(o * spec.size_sa ** u for u, o in enumerate(oa_hist))
            row_a = phi_a[wa, ha]
            ta = sum(int(row_a[o]) * spec.size_xa ** o for o in range(spec.size_sa))
            for wb in range(maps.messages_b):
                for ob_hist in itertools.product(range(spec.size_sb), repeat=t - 1):
                    pb_path = 1.0 / maps.messages_b
                    for u, o in enumerate(ob_hist):
                        pb_path *= spec.obs_b[sigma[u], o]
                    if pb_path == 0.0:
                        continue
                    hb = sum(o * spec.size_sb ** u for u, o in enumerate(ob_hist))
                    row_b = phi_b[wb, hb]
                    tb = sum(int(row_b[o]) * spec.size_xb ** o for o in range(spec.size_sb))
                    for s in range(spec.size_s):
                        for oa in range(spec.size_sa):
                            for ob in range(spec.size_sb):
                                px = spec.state_pmf[s] * spec.obs_a[s, oa] * spec.obs_b[s, ob]
                                if px == 0.0:
                                    continue
                                xa = phi_a[wa, ha, oa]
                                xb = phi_b[wb, hb, ob]
                                for y in range(spec.size_y):
                                    out[ta, tb, y, s] += (
                                        pa_path * pb_path * px * spec.channel[s, xa, xb, y]
                                    )
    return out


def factorized_conditional(spec: FsMacSpec, chan: StrategyChannel,
                           policy: TeamPolicy) -> np.ndarray:
    """The claimed factorization, in brute_force_conditional's axis order."""
    return joint_law(spec, chan, policy).p.transpose(1, 2, 3, 0)


def verify_factorization(spec: FsMacSpec, maps: EncoderMaps,
                         chan: StrategyChannel) -> ConverseAudit:
    """Compare the literal letter law with the factorized one everywhere.

    Sweeps every time step and every past-state sequence; returns the largest
    absolute entry difference and where it occurred.
    """
    check_channel(spec, chan)
    pasts = _pasts(spec, maps.blocklength)
    worst = -1.0
    worst_t, worst_sigma = 1, ""
    checks = 0
    for t, sigma, _ in pasts:
        literal = brute_force_conditional(spec, maps, t, sigma)
        policy = induced_sigma_policy(spec, maps, t, sigma)
        dev = float(np.abs(literal - factorized_conditional(spec, chan, policy)).max())
        checks += 1
        if dev > worst:
            worst, worst_t, worst_sigma = dev, t, sigma_string(sigma)
    return ConverseAudit(max_deviation=worst, checks=checks,
                         worst_t=worst_t, worst_sigma=worst_sigma)


def sigma_average_pentagon(spec: FsMacSpec, maps: EncoderMaps,
                           chan: StrategyChannel) -> RatePentagon:
    """Outer bounds for the code: the alpha-weighted average of the bounds of
    its per-(time, past) letter laws.

    The pair (t, sigma) acts as a time-sharing variable, so each bound of the
    averaged law is the weighted sum of the per-slice bounds. Each slice's
    induced policy is read through one objective on the channel's factors,
    so no letter law is built; the sum is checked once as a pentagon.
    """
    check_channel(spec, chan)
    pasts = _pasts(spec, maps.blocklength)
    obj = _Objective(chan)
    bounds = np.zeros(3)
    for t, sigma, alpha in pasts:
        if alpha == 0.0:
            continue
        pent = obj.pentagon(induced_sigma_policy(spec, maps, t, sigma))
        bounds += alpha * np.array([pent.bound_a, pent.bound_b, pent.bound_sum])
    return checked_pentagon(*bounds, spec.size_y)
