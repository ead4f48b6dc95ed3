"""Single-letter information quantities for strategy policies.

The central object is the joint law over (state, strategy a, strategy b,
output) built from a product policy: the senders draw strategies
independently of each other and of the state, the output follows the induced
strategy channel. Axis order everywhere is (s, ta, tb, y).

All logs are base 2. Cells with zero probability contribute exactly zero;
there is no epsilon smoothing anywhere.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InternalInvariantError, ValidationError
from .model import PMF_ATOL, FsMacSpec, StrategyChannel, float_array, read_json_object

AXES = {"s": 0, "ta": 1, "tb": 2, "y": 3}
MI_FLOOR = -1e-12
PENTAGON_SLACK = 1e-9


def _check_pmf(vec: np.ndarray, name: str) -> None:
    if vec.ndim != 1:
        raise ValidationError(f"{name}: must be one-dimensional")
    bad = np.flatnonzero(~np.isfinite(vec))
    if bad.size:
        raise ValidationError(f"{name}: entry {int(bad[0])} is not finite")
    neg = np.argwhere(vec < 0)
    if neg.size:
        raise ValidationError(f"{name}: entry {int(neg[0][0])} is negative")
    total = vec.sum()
    if abs(total - 1.0) > PMF_ATOL:
        raise ValidationError(f"{name}: sums to {total!r}, expected 1 within {PMF_ATOL}")


@dataclass(frozen=True)
class TeamPolicy:
    """Independent strategy distributions, one per sender."""

    pi_a: np.ndarray
    pi_b: np.ndarray

    def __post_init__(self):
        pi_a = np.asarray(self.pi_a, dtype=np.float64)
        pi_b = np.asarray(self.pi_b, dtype=np.float64)
        _check_pmf(pi_a, "pi_a")
        _check_pmf(pi_b, "pi_b")
        pi_a.setflags(write=False)
        pi_b.setflags(write=False)
        object.__setattr__(self, "pi_a", pi_a)
        object.__setattr__(self, "pi_b", pi_b)

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
    """Joint pmf over (s, ta, tb, y); total mass 1 within PMF_ATOL."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 4:
            raise ValidationError(f"joint law must have 4 axes, got {p.ndim}")
        if np.any(p < 0):
            idx = tuple(int(i) for i in np.argwhere(p < 0)[0])
            raise ValidationError(f"joint law: entry {idx} is negative")
        total = p.sum()
        if abs(total - 1.0) > PMF_ATOL:
            raise ValidationError(f"joint law: total mass {total!r}, expected 1 within {PMF_ATOL}")
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


def entropy(p) -> float:
    """Shannon entropy in bits. Zero cells are skipped exactly."""
    p = np.asarray(p, dtype=np.float64)
    _check_pmf(p.reshape(-1), "entropy argument")
    pos = p[p > 0]
    return float(-(pos * np.log2(pos)).sum())


def log2_floor(p: np.ndarray) -> np.ndarray:
    """log2 with zero cells read as about -996 instead of -inf."""
    return np.log2(np.maximum(p, 1e-300))


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Entropy along the last axis, no validation (internal batched helper)."""
    # p * log2_floor(p) is exactly 0 at p == 0, no nan cleanup needed
    return -(p * log2_floor(p)).sum(axis=-1)


def joint_law(spec: FsMacSpec, chan: StrategyChannel, pol: TeamPolicy) -> JointLaw:
    """Product-policy joint law p(s, ta, tb, y) = p_s * pi_a * pi_b * q."""
    if pol.pi_a.shape[0] != chan.space_a.count:
        raise ValidationError(
            f"pi_a: length {pol.pi_a.shape[0]} does not match {chan.space_a.count} strategies"
        )
    if pol.pi_b.shape[0] != chan.space_b.count:
        raise ValidationError(
            f"pi_b: length {pol.pi_b.shape[0]} does not match {chan.space_b.count} strategies"
        )
    p = np.einsum("s,a,b,saby->saby", spec.state_pmf, pol.pi_a, pol.pi_b, chan.q)
    return JointLaw(p=p)


def _marginal(p: np.ndarray, keep: tuple) -> np.ndarray:
    drop = tuple(ax for ax in range(4) if ax not in keep)
    m = p.sum(axis=drop, keepdims=True) if drop else p
    return m


def conditional_mutual_information(law, x, y, z=()) -> float:
    """I(X; Y | Z) in bits from a 4-axis joint law.

    x, y, z name disjoint groups of axes from {"s", "ta", "tb", "y"};
    axes in none of the groups are marginalized out. law may be a JointLaw
    or a plain 4-axis array (any sizes, e.g. a composite state axis).
    """
    p = law.p if isinstance(law, JointLaw) else np.asarray(law, dtype=np.float64)
    if p.ndim != 4:
        raise ValidationError(f"law must have 4 axes, got {p.ndim}")
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

    p_xyz = _marginal(p, ax_x + ax_y + ax_z)
    p_xz = _marginal(p_xyz, ax_x + ax_z)
    p_yz = _marginal(p_xyz, ax_y + ax_z)
    p_z = _marginal(p_xyz, ax_z)

    mask = p_xyz > 0
    # single log of the full ratio keeps cancellation error at the ulp level
    num = p_xyz * p_z
    den = p_xz * p_yz
    ratio = np.where(mask, num / np.where(mask, den, 1.0), 1.0)
    value = float((p_xyz[mask] * np.log2(ratio[mask])).sum())
    if value < MI_FLOOR:
        raise InternalInvariantError(
            f"conditional mutual information {value!r} below {MI_FLOOR}"
        )
    return max(value, 0.0)


def pentagon(law: JointLaw) -> RatePentagon:
    """Evaluate the three bounds a policy supports and check their ordering."""
    bound_a = conditional_mutual_information(law, x="ta", y="y", z=("tb", "s"))
    bound_b = conditional_mutual_information(law, x="tb", y="y", z=("ta", "s"))
    bound_sum = conditional_mutual_information(law, x=("ta", "tb"), y="y", z="s")
    size_y = law.p.shape[3]
    if bound_sum > np.log2(size_y) + PENTAGON_SLACK:
        raise InternalInvariantError(
            f"bound_sum {bound_sum!r} exceeds log2 |Y| = {np.log2(size_y)!r}"
        )
    if max(bound_a, bound_b) > bound_sum + PENTAGON_SLACK:
        raise InternalInvariantError(
            f"pentagon breach: max({bound_a!r}, {bound_b!r}) > bound_sum {bound_sum!r}"
        )
    if bound_sum > bound_a + bound_b + PENTAGON_SLACK:
        raise InternalInvariantError(
            f"pentagon breach: bound_sum {bound_sum!r} > bound_a + bound_b "
            f"= {bound_a + bound_b!r}"
        )
    return RatePentagon(bound_a=bound_a, bound_b=bound_b, bound_sum=bound_sum)
