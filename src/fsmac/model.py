"""Channel model: two senders, one receiver, i.i.d. state with noisy causal
state observations at the senders and the full state at the receiver.

A model instance bundles six alphabet sizes, the state distribution, one
observation channel per sender (rows indexed by the state), and the transfer
law W(y | xa, xb, s). JSON wire schema::

    {
      "alphabets": {"xa": 2, "xb": 2, "s": 2, "sa": 2, "sb": 2, "y": 2},
      "state_pmf": [...],
      "obs_a": [[...], ...],       # |s| rows over the sender-a observation alphabet
      "obs_b": [[...], ...],
      "channel": [[[[...]]]],      # indexed [s][xa][xb][y]
      "labels": {...}              # optional display names per alphabet
    }

Unknown keys are rejected. All probability rows must be nonnegative and sum
to 1 within PMF_ATOL.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import GuardError, SpecFormatError, ValidationError
from .strategy import DEFAULT_STRATEGY_CAP, StrategySpace, enumerate_strategies

PMF_ATOL = 1e-9
STRATEGY_PRODUCT_CAP = 10**7
Q_CELL_CAP = 1 << 24   # float64 cells of the strategy channel q, S*A*B*Y

_ALPHABET_KEYS = ("xa", "xb", "s", "sa", "sb", "y")
_TOP_KEYS = {"alphabets", "state_pmf", "obs_a", "obs_b", "channel", "labels"}


@dataclass(frozen=True)
class FsMacSpec:
    """Validated model instance. Arrays are read-only after construction."""

    size_xa: int
    size_xb: int
    size_s: int
    size_sa: int
    size_sb: int
    size_y: int
    state_pmf: np.ndarray  # (s,)
    obs_a: np.ndarray      # (s, sa)
    obs_b: np.ndarray      # (s, sb)
    channel: np.ndarray    # (s, xa, xb, y)
    labels: dict | None = None


@dataclass(frozen=True)
class StrategyChannel:
    """Per-state channel from strategy pairs to the output, kept in factors.

    mix_a[s, ta, xa] is the probability that strategy ta sends xa in state s,
    with sender a's observation averaged out; mix_b likewise. The channel
    q[s, ta, tb, y] is the probability of output y when the state is s and
    the senders committed to strategies ta and tb:

        q[s, ta, tb, y] = sum over (xa, xb) of
            mix_a[s, ta, xa] * mix_b[s, tb, xb] * channel[s, xa, xb, y].

    q is built on first access and cached; the optimizer works on the
    factors alone and never builds it.
    """

    mix_a: np.ndarray    # (s, count_a, xa)
    mix_b: np.ndarray    # (s, count_b, xb)
    channel: np.ndarray  # (s, xa, xb, y), the transfer law
    space_a: StrategySpace
    space_b: StrategySpace

    @cached_property
    def q(self) -> np.ndarray:
        """The full (s, count_a, count_b, y) tensor, read-only."""
        size_s, _, _, size_y = self.channel.shape
        q = np.empty((size_s, self.space_a.count, self.space_b.count, size_y))
        for s in range(size_s):
            q[s] = np.einsum("tx,vz,xzy->tvy", self.mix_a[s], self.mix_b[s], self.channel[s])
        q.setflags(write=False)
        return q


def _check_pmf_rows(arr: np.ndarray, name: str) -> None:
    if np.any(arr < 0):
        idx = tuple(int(i) for i in np.argwhere(arr < 0)[0])
        raise ValidationError(f"{name}: entry {idx} is negative ({arr[idx]!r})")
    sums = arr.sum(axis=-1)
    bad = np.abs(sums - 1.0) > PMF_ATOL
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        row = sums[idx] if idx else sums.item()
        raise ValidationError(
            f"{name}: row {idx if idx else 0} sums to {row!r}, expected 1 within {PMF_ATOL}"
        )


def float_array(value, name: str) -> np.ndarray:
    """value as a float64 array; anything else raises ValidationError naming it."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not a numeric array ({exc})") from None


def _as_float_array(value, name: str, shape: tuple) -> np.ndarray:
    arr = float_array(value, name)
    if arr.shape != shape:
        raise ValidationError(f"{name}: shape {arr.shape} does not match alphabets, expected {shape}")
    if not np.all(np.isfinite(arr)):
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
        raise ValidationError(f"{name}: entry {idx} is not finite")
    return arr


def spec_from_dict(doc: dict, strategy_cap: int = DEFAULT_STRATEGY_CAP) -> FsMacSpec:
    """Build and validate a model instance from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise SpecFormatError(f"spec document must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown spec key {sorted(unknown)[0]!r}")
    for key in ("alphabets", "state_pmf", "obs_a", "obs_b", "channel"):
        if key not in doc:
            raise ValidationError(f"missing spec key {key!r}")

    alpha = doc["alphabets"]
    if not isinstance(alpha, dict):
        raise ValidationError("alphabets: must be an object")
    unknown = set(alpha) - set(_ALPHABET_KEYS)
    if unknown:
        raise ValidationError(f"alphabets: unknown key {sorted(unknown)[0]!r}")
    sizes = {}
    for key in _ALPHABET_KEYS:
        if key not in alpha:
            raise ValidationError(f"alphabets: missing key {key!r}")
        val = alpha[key]
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise ValidationError(f"alphabets: {key} must be an integer >= 1, got {val!r}")
        sizes[key] = val

    state_pmf = _as_float_array(doc["state_pmf"], "state_pmf", (sizes["s"],))
    obs_a = _as_float_array(doc["obs_a"], "obs_a", (sizes["s"], sizes["sa"]))
    obs_b = _as_float_array(doc["obs_b"], "obs_b", (sizes["s"], sizes["sb"]))
    channel = _as_float_array(
        doc["channel"], "channel", (sizes["s"], sizes["xa"], sizes["xb"], sizes["y"])
    )

    labels = doc.get("labels")
    if labels is not None and not isinstance(labels, dict):
        raise ValidationError("labels: must be an object when present")

    spec = FsMacSpec(
        size_xa=sizes["xa"], size_xb=sizes["xb"], size_s=sizes["s"],
        size_sa=sizes["sa"], size_sb=sizes["sb"], size_y=sizes["y"],
        state_pmf=state_pmf, obs_a=obs_a, obs_b=obs_b, channel=channel,
        labels=labels,
    )
    validate_spec(spec, strategy_cap=strategy_cap)
    for arr in (state_pmf, obs_a, obs_b, channel):
        arr.setflags(write=False)
    return spec


def validate_spec(spec: FsMacSpec, strategy_cap: int = DEFAULT_STRATEGY_CAP) -> None:
    """Raise ValidationError or GuardError on the first violated invariant."""
    _check_pmf_rows(spec.state_pmf, "state_pmf")
    _check_pmf_rows(spec.obs_a, "obs_a")
    _check_pmf_rows(spec.obs_b, "obs_b")
    _check_pmf_rows(spec.channel, "channel")

    if spec.labels is not None:
        for key, names in spec.labels.items():
            if key not in _ALPHABET_KEYS:
                raise ValidationError(f"labels: unknown alphabet {key!r}")

    count_a = spec.size_xa**spec.size_sa
    count_b = spec.size_xb**spec.size_sb
    if count_a > strategy_cap:
        raise GuardError(
            f"strategy space cap: sender a has {count_a} strategies, cap is {strategy_cap}"
        )
    if count_b > strategy_cap:
        raise GuardError(
            f"strategy space cap: sender b has {count_b} strategies, cap is {strategy_cap}"
        )
    _check_channel_size(spec, count_a, count_b)


def _check_channel_size(spec: FsMacSpec, count_a: int, count_b: int) -> None:
    """Refuse a strategy channel over STRATEGY_PRODUCT_CAP pairs or Q_CELL_CAP
    cells, counted arithmetically before anything of that size exists."""
    if count_a * count_b > STRATEGY_PRODUCT_CAP:
        raise GuardError(
            f"strategy product cap: {count_a} * {count_b} strategy pairs exceed {STRATEGY_PRODUCT_CAP}"
        )
    cells = spec.size_s * count_a * count_b * spec.size_y
    if cells > Q_CELL_CAP:
        raise GuardError(
            f"channel cell cap: S*A*B*Y = {spec.size_s} * {count_a} * {count_b} * {spec.size_y}"
            f" = {cells} cells exceed {Q_CELL_CAP}"
        )


def read_json_object(path, what: str) -> dict:
    """The object a JSON file holds. Bytes that do not decode, bad JSON,
    nesting too deep to parse and any other top-level value raise
    SpecFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SpecFormatError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecFormatError(
            f"{path}: {what} document must be a JSON object, got {type(doc).__name__}")
    return doc


def load_spec(path, strategy_cap: int = DEFAULT_STRATEGY_CAP) -> FsMacSpec:
    """Read a spec JSON file. Parse failures raise SpecFormatError."""
    return spec_from_dict(read_json_object(path, "spec"), strategy_cap=strategy_cap)


def induced_strategy_channel(spec: FsMacSpec,
                             strategy_cap: int = DEFAULT_STRATEGY_CAP) -> StrategyChannel:
    """Average the senders' observations out of the transfer law.

    For each state s the observation channels and a strategy pair induce

        q(y | s, ta, tb) = sum over (oa, ob) of
            obs_a[s, oa] * obs_b[s, ob] * channel[s, ta(oa), tb(ob), y].

    Only the factors are computed here: each strategy collapsed to its
    per-state input distribution. The channel's q contracts them with the
    transfer law when first read.
    """
    space_a = enumerate_strategies(spec.size_sa, spec.size_xa, cap=strategy_cap)
    space_b = enumerate_strategies(spec.size_sb, spec.size_xb, cap=strategy_cap)
    _check_channel_size(spec, space_a.count, space_b.count)
    hot_a = space_a.one_hot()  # (ta, oa, xa)
    hot_b = space_b.one_hot()
    mix_a = np.stack([np.einsum("u,tux->tx", spec.obs_a[s], hot_a) for s in range(spec.size_s)])
    mix_b = np.stack([np.einsum("u,tux->tx", spec.obs_b[s], hot_b) for s in range(spec.size_s)])
    mix_a.setflags(write=False)
    mix_b.setflags(write=False)
    return StrategyChannel(mix_a=mix_a, mix_b=mix_b, channel=spec.channel,
                           space_a=space_a, space_b=space_b)
