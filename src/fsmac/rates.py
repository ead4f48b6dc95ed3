"""Single-letter information quantities for strategy policies.

The central object is the joint law over (state, strategy a, strategy b,
output) built from a product policy: the senders draw strategies
independently of each other and of the state, the output follows the induced
strategy channel. Axis order everywhere is (s, ta, tb, y).

All logs are base 2. Cells with zero probability contribute exactly zero;
there is no epsilon smoothing anywhere. Every reported rate, pentagon bound,
sum rate or oracle value, passes checked_rate, the one owner of its range.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, ValidationError
from .model import (PMF_ATOL, FsMacSpec, StrategyChannel, check_channel, check_entries, check_pmf,
                    float_array, pmf_refused, read_json_object)

AXES = {"s": 0, "ta": 1, "tb": 2, "y": 3}
MI_FLOOR = -1e-12
PENTAGON_SLACK = 1e-9


@dataclass(frozen=True)
class TeamPolicy:
    """Independent strategy distributions, one per sender."""

    pi_a: np.ndarray
    pi_b: np.ndarray

    def __post_init__(self):
        for name in ("pi_a", "pi_b"):
            pi = np.asarray(getattr(self, name), dtype=np.float64)
            if pi.ndim != 1:
                raise ValidationError(f"{name}: must be one-dimensional")
            check_pmf(pi, name)
            pi.setflags(write=False)
            object.__setattr__(self, name, pi)

    def to_dict(self) -> dict:
        return {"pi_a": self.pi_a.tolist(), "pi_b": self.pi_b.tolist()}


def load_policy(path) -> TeamPolicy:
    """Read a policy JSON file {"pi_a": [...], "pi_b": [...]}."""
    doc = read_json_object(path, "policy")
    unknown = set(doc) - {"pi_a", "pi_b"}
    if unknown:
        raise ValidationError(f"unknown policy key {sorted(unknown)[0]!r}")
    for key in ("pi_a", "pi_b"):
        if key not in doc:
            raise ValidationError(f"missing policy key {key!r}")
    return TeamPolicy(pi_a=float_array(doc["pi_a"], "pi_a"),
                      pi_b=float_array(doc["pi_b"], "pi_b"))


@dataclass(frozen=True)
class JointLaw:
    """Joint pmf over (s, ta, tb, y), one row pmf_refused admits: finite, nonnegative, mass 1."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 4:
            raise ValidationError(f"joint law must have 4 axes, got {p.ndim}")
        if pmf_refused(p, axes=4):
            check_entries(p, "joint law")
            with np.errstate(over="ignore"):
                raise ValidationError(f"joint law: total mass {float(p.sum())!r}, "
                                      f"expected 1 within {PMF_ATOL}")
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True)
class RatePentagon:
    """The three rate bounds a policy supports.

    bound_a caps sender a's rate, bound_b sender b's, bound_sum the total.
    Always satisfies 0 <= max(bound_a, bound_b) <= bound_sum <= bound_a + bound_b.
    """

    bound_a: float
    bound_b: float
    bound_sum: float


def log2_floor(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log2 with zero cells read as about -996 instead of -inf, in out if given."""
    floor = np.maximum(p, 1e-300, out=out)
    return np.log2(floor, out=floor)


def entropy_rows(p: np.ndarray, log: np.ndarray | None = None) -> np.ndarray:
    """Entropy along the last axis, no validation (internal batched helper);
    log, if given, is log2_floor(p), already held.

    Below 8 cells numpy's sum adds a row's cells one by one from the left, so
    the cells are added as whole columns in that order, one vectorized add
    per cell rather than one reduction call per row, with .sum's bits. The
    first column is seeded with + 0.0, as .sum's is, so an all-zero row sums
    to +0.0. From 8 cells on, .sum adds pairwise, and it is kept, as it is
    for an axis of no cells."""
    # p * log2_floor(p) is exactly 0 at p == 0, no nan cleanup needed
    terms = p * (log2_floor(p) if log is None else log)
    if not 0 < terms.shape[-1] < 8:
        return -terms.sum(axis=-1)
    total = terms[..., 0] + 0.0
    for k in range(1, terms.shape[-1]):
        total += terms[..., k]
    return -total


def check_policy(chan: StrategyChannel, pol: TeamPolicy) -> None:
    """Refuse a policy whose pmfs do not have one entry per strategy."""
    for name, pi, space in (("pi_a", pol.pi_a, chan.space_a), ("pi_b", pol.pi_b, chan.space_b)):
        if pi.shape[0] != space.count:
            raise ValidationError(
                f"{name}: length {pi.shape[0]} does not match {space.count} strategies")


def product_law(spec: FsMacSpec, chan: StrategyChannel, pi_a: np.ndarray,
                pi_b: np.ndarray) -> np.ndarray:
    """p_s * pi_a * pi_b * q, unchecked, (..., S, A, B, Y) for pmfs (..., A) and (..., B), each
    law with its bits alone: the four-operand einsum's order, without its buffers."""
    weights = (spec.state_pmf[:, None] * pi_a[..., None, :])[..., None] * pi_b[..., None, None, :]
    return chan.q * weights[..., None]


def joint_law(spec: FsMacSpec, chan: StrategyChannel, pol: TeamPolicy) -> JointLaw:
    """Product-policy joint law p(s, ta, tb, y) = p_s * pi_a * pi_b * q."""
    check_channel(spec, chan)
    check_policy(chan, pol)
    return JointLaw(p=product_law(spec, chan, pol.pi_a, pol.pi_b))


def _marginal(p: np.ndarray, keep: tuple) -> np.ndarray:
    drop = tuple(ax for ax in range(4) if ax not in keep)
    return p.sum(axis=drop, keepdims=True) if drop else p


def conditional_mutual_information(law: JointLaw, x, y, z=()) -> float:
    """I(X; Y | Z) in bits from a joint law.

    x, y, z name disjoint groups of axes from {"s", "ta", "tb", "y"};
    axes in none of the groups are marginalized out.
    The value is the raw sum, so rounding may leave it a few ulps below 0;
    checked_rate checks and clamps it.
    """
    groups = []
    for part in (x, y, z):
        if isinstance(part, str):
            part = (part,)
        groups.append(tuple(AXES[name] for name in part))
    ax_x, ax_y, ax_z = groups
    if len(set(ax_x + ax_y + ax_z)) != len(ax_x) + len(ax_y) + len(ax_z):
        raise ValueError("x, y, z groups must be disjoint")
    if not ax_x or not ax_y:
        raise ValueError("x and y groups must be nonempty")

    p_xyz = _marginal(law.p, ax_x + ax_y + ax_z)
    p_xz = _marginal(p_xyz, ax_x + ax_z)
    p_yz = _marginal(p_xyz, ax_y + ax_z)
    p_z = _marginal(p_xyz, ax_z)

    p_xyz, p_xz, p_yz, p_z = np.broadcast_arrays(p_xyz, p_xz, p_yz, p_z)
    mask = p_xyz > 0
    p_pos = p_xyz[mask]
    # a ratio of conditionals, (p_xyz / p_xz) / (p_yz / p_z): every factor is
    # at least p_xyz, so it stays finite where p_xyz * p_z and p_xz * p_yz
    # would underflow to 0 / 0; a single log keeps cancellation at the ulp level
    return float((p_pos * np.log2((p_pos / p_xz[mask]) / (p_yz[mask] / p_z[mask]))).sum())


def checked_rate(value, size_y: int, name: str) -> float:
    """value clamped into [0, log2 |Y|], where every mutual information of a product
    policy lies; InternalInvariantError names it if it is non-finite, below
    MI_FLOOR or above log2 |Y| + PENTAGON_SLACK."""
    value, cap = float(value), float(np.log2(size_y))
    if not np.isfinite(value):
        raise InternalInvariantError(f"{name} {value!r} is non-finite")
    if value < MI_FLOOR:
        raise InternalInvariantError(f"{name} {value!r} below {MI_FLOOR}")
    if value > cap + PENTAGON_SLACK:
        raise InternalInvariantError(f"{name} {value!r} exceeds log2 |Y| = {cap!r}")
    return min(max(value, 0.0), cap)


def checked_pentagon(bound_a, bound_b, bound_sum, size_y: int) -> RatePentagon:
    """The pentagon of three bounds after the checks every route shares: each
    bound through checked_rate, then max(bound_a, bound_b) <= bound_sum <=
    bound_a + bound_b within PENTAGON_SLACK."""
    bound_a, bound_b, bound_sum = (checked_rate(value, size_y, name) for value, name in (
        (bound_a, "bound_a"), (bound_b, "bound_b"), (bound_sum, "bound_sum")))
    if max(bound_a, bound_b) > bound_sum + PENTAGON_SLACK:
        raise InternalInvariantError(f"pentagon breach: max({bound_a!r}, {bound_b!r}) > "
                                     f"bound_sum {bound_sum!r}")
    if bound_sum > bound_a + bound_b + PENTAGON_SLACK:
        raise InternalInvariantError(f"pentagon breach: bound_sum {bound_sum!r} > "
                                     f"bound_a + bound_b = {bound_a + bound_b!r}")
    return RatePentagon(bound_a=bound_a, bound_b=bound_b, bound_sum=bound_sum)


def pentagon(law: JointLaw) -> RatePentagon:
    """The three bounds a policy supports, read off its joint law and checked."""
    return checked_pentagon(
        conditional_mutual_information(law, x="ta", y="y", z=("tb", "s")),
        conditional_mutual_information(law, x="tb", y="y", z=("ta", "s")),
        conditional_mutual_information(law, x=("ta", "tb"), y="y", z="s"),
        law.p.shape[3],
    )
