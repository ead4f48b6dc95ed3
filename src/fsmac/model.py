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
      "labels": {"y": [...], ...}  # optional: per alphabet, one name string per symbol
    }

Unknown keys are rejected. Every probability row must pass pmf_refused, the one
pmf rule (nonnegative, sum within PMF_ATOL of 1), and is then rescaled to sum 1.
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpecFormatError, ValidationError
from .strategy import CELL_CAP, StrategySpace, check_cells, enumerate_strategies, strategy_count

PMF_ATOL = 1e-9
# Bytes a spec or policy file may hold. A spec's largest array, the transfer
# law, has at most CELL_CAP cells once the guard passes (Sa = Sb = 1 reaches
# it), and a JSON double with sign, exponent and separator takes at most 26
# bytes; 32 per cell leaves room for brackets and spaces.
SPEC_BYTE_CAP = 32 * CELL_CAP

_ALPHABET_KEYS = ("xa", "xb", "s", "sa", "sb", "y")
_ARRAY_KEYS = ("state_pmf", "obs_a", "obs_b", "channel")
_TOP_KEYS = {"alphabets", *_ARRAY_KEYS, "labels"}


@dataclass(frozen=True)
class FsMacSpec:
    """Model instance, validated on construction: each array's shape must
    match the alphabets, every row must be a pmf, the labels must name the
    symbols, and the channel cell guard must pass. ValidationError or
    GuardError names the first violation. Arrays are float64 and read-only.

    Each row is then divided by its sum, so a row off 1 by up to PMF_ATOL
    sums to 1 within rounding, and a row that sums to exactly 1.0 keeps
    every bit. Unscaled, the row errors would multiply in q and in the joint
    law past the tolerance their own checks allow."""

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

    def __post_init__(self):
        shapes = {"state_pmf": (self.size_s,), "obs_a": (self.size_s, self.size_sa),
                  "obs_b": (self.size_s, self.size_sb),
                  "channel": (self.size_s, self.size_xa, self.size_xb, self.size_y)}
        for name, shape in shapes.items():
            arr = float_array(getattr(self, name), name)
            if arr.shape != shape:
                raise ValidationError(
                    f"{name}: shape {arr.shape} does not match alphabets, expected {shape}")
            object.__setattr__(self, name, arr)
        if self.labels is not None and not isinstance(self.labels, dict):
            raise ValidationError("labels: must be an object when present")
        for name in shapes:
            arr = getattr(self, name)
            check_pmf(arr, name)
            object.__setattr__(self, name, arr / arr.sum(axis=-1, keepdims=True))
        for key, names in (self.labels or {}).items():
            if key not in _ALPHABET_KEYS:
                raise ValidationError(f"labels: unknown alphabet {key!r}")
            size = getattr(self, f"size_{key}")
            if not (isinstance(names, list) and len(names) == size
                    and all(isinstance(name, str) for name in names)):
                raise ValidationError(f"labels: {key} must be a list of {size} strings, one per symbol")
        check_channel_cells(self)
        for name in shapes:
            getattr(self, name).setflags(write=False)


@dataclass(frozen=True)
class StrategyChannel:
    """Per-state channel from strategy pairs to the output, kept in factors.

    spec is the model instance the channel was induced from; every entry
    that takes a spec and a channel refuses a channel of another spec (see
    check_channel). mix_a[s, ta, xa] is the probability that strategy ta
    sends xa in state s, with sender a's observation averaged out; mix_b
    likewise. The channel q[s, ta, tb, y] is the probability of output y
    when the state is s and the senders committed to strategies ta and tb:

        q[s, ta, tb, y] = sum over (xa, xb) of
            mix_a[s, ta, xa] * mix_b[s, tb, xb] * spec.channel[s, xa, xb, y].

    q is built on first access and cached; the optimizer works on the
    factors alone and never builds it.
    """

    spec: FsMacSpec
    mix_a: np.ndarray    # (s, count_a, xa)
    mix_b: np.ndarray    # (s, count_b, xb)
    space_a: StrategySpace
    space_b: StrategySpace

    @cached_property
    def q(self) -> np.ndarray:
        """The full (s, count_a, count_b, y) tensor, read-only."""
        w = self.spec.channel
        q = np.empty((w.shape[0], self.space_a.count, self.space_b.count, w.shape[3]))
        for s in range(w.shape[0]):
            q[s] = np.einsum("tx,vz,xzy->tvy", self.mix_a[s], self.mix_b[s], w[s])
        q.setflags(write=False)
        return q


def check_channel(spec: FsMacSpec, chan: StrategyChannel) -> None:
    """Refuse a strategy channel induced from a spec other than spec."""
    if chan.spec is not spec:
        raise ValidationError("strategy channel was induced from another spec")


def check_entries(arr: np.ndarray, name: str) -> None:
    """Raise ValidationError naming arr's first entry that is not finite or is
    negative."""
    for bad, what in ((~np.isfinite(arr), "is not finite"), (arr < 0, "is negative")):
        if np.any(bad):
            idx = tuple(int(i) for i in np.argwhere(bad)[0])
            raise ValidationError(f"{name}: entry {idx[0] if len(idx) == 1 else idx} {what}")


def pmf_refused(arr: np.ndarray, axes: int = 1) -> np.ndarray:
    """The pmf rule over a batch, one bool per row, the last axes axes of arr: an
    entry NaN or negative, or a sum not finite or off 1 by over PMF_ATOL."""
    row = tuple(range(-axes, 0))
    with np.errstate(over="ignore", invalid="ignore"):   # an inf or nan sum is refused, unwarned
        return ~((arr >= 0).all(axis=row) & (np.abs(arr.sum(axis=row) - 1.0) <= PMF_ATOL))


def check_pmf(arr: np.ndarray, name: str) -> None:
    """Raise ValidationError if pmf_refused refuses a last-axis row: with
    check_entries' message if an entry is to blame, else the first row's sum."""
    bad = pmf_refused(arr)
    if np.any(bad):
        check_entries(arr, name)
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        with np.errstate(over="ignore"):
            row = float(arr.sum(axis=-1)[idx])
        raise ValidationError(f"{name}: row {idx[0] if len(idx) == 1 else idx or 0} sums to "
                              f"{row!r}, expected 1 within {PMF_ATOL}")


def float_array(value, name: str) -> np.ndarray:
    """value as a float64 array; anything else, an integer too large for a
    float included, raises ValidationError naming it."""
    try:
        return np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{name}: not a numeric array ({exc})") from None


def spec_from_dict(doc: dict) -> FsMacSpec:
    """The model instance a parsed JSON document describes. The document's
    keys and alphabet sizes are checked here, the arrays by FsMacSpec."""
    if not isinstance(doc, dict):
        raise SpecFormatError(f"spec document must be a JSON object, got {type(doc).__name__}")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValidationError(f"unknown spec key {sorted(unknown)[0]!r}")
    for key in ("alphabets", *_ARRAY_KEYS):
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
        sizes[f"size_{key}"] = val
    return FsMacSpec(**sizes, **{key: doc[key] for key in _ARRAY_KEYS}, labels=doc.get("labels"))


def check_channel_cells(spec: FsMacSpec) -> None:
    """Refuse a strategy channel whose build would make an array over CELL_CAP
    cells: a sender's one-hot table (A*Sa*Xa, B*Sb*Xb), its per-state input
    law (S*A*Xa, S*B*Xb) or q (S*A*B*Y). Counted on the sizes alone, before
    anything of that size exists; each strategy count stops past the cap."""
    count_a = strategy_count(spec.size_sa, spec.size_xa, "sender a")
    count_b = strategy_count(spec.size_sb, spec.size_xb, "sender b")
    check_cells("sender a's input law S*A*Xa", (spec.size_s, count_a, spec.size_xa))
    check_cells("sender b's input law S*B*Xb", (spec.size_s, count_b, spec.size_xb))
    check_cells("S*A*B*Y", (spec.size_s, count_a, count_b, spec.size_y))


def read_json_object(path, what: str) -> dict:
    """The object a JSON file holds. A file over SPEC_BYTE_CAP bytes, bytes
    that do not decode, bad JSON, an integer literal too long to parse,
    nesting too deep to parse and any other top-level value raise
    SpecFormatError."""
    with open(path, "rb") as fh:
        raw = fh.read(SPEC_BYTE_CAP + 1)
    if len(raw) > SPEC_BYTE_CAP:
        raise SpecFormatError(f"{path}: {what} file exceeds {SPEC_BYTE_CAP} bytes")
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError) as exc:   # JSONDecodeError and UnicodeDecodeError too
        raise SpecFormatError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise SpecFormatError(
            f"{path}: {what} document must be a JSON object, got {type(doc).__name__}")
    return doc


def load_spec(path) -> FsMacSpec:
    """Read a spec JSON file. Parse failures raise SpecFormatError."""
    return spec_from_dict(read_json_object(path, "spec"))


def induced_strategy_channel(spec: FsMacSpec) -> StrategyChannel:
    """Average the senders' observations out of the transfer law.

    For each state s the observation channels and a strategy pair induce

        q(y | s, ta, tb) = sum over (oa, ob) of
            obs_a[s, oa] * obs_b[s, ob] * channel[s, ta(oa), tb(ob), y].

    Only the factors are computed here: each strategy collapsed to its
    per-state input distribution. The channel's q contracts them with the
    transfer law when first read.
    """
    space_a = enumerate_strategies(spec.size_sa, spec.size_xa)
    space_b = enumerate_strategies(spec.size_sb, spec.size_xb)
    hot_a = space_a.one_hot()  # (ta, oa, xa)
    hot_b = space_b.one_hot()
    mix_a = np.einsum("su,tux->stx", spec.obs_a, hot_a)
    mix_b = np.einsum("su,tux->stx", spec.obs_b, hot_b)
    mix_a.setflags(write=False)
    mix_b.setflags(write=False)
    return StrategyChannel(spec=spec, mix_a=mix_a, mix_b=mix_b, space_a=space_a, space_b=space_b)
