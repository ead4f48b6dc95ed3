"""Deterministic encoding strategies: tables from observation symbols to inputs.

A strategy for a user with observation alphabet of size m and input alphabet
of size k is a table t of length m with entries in [0, k). The full space has
k**m members. Ids are mixed-radix little-endian: id = sum(t[i] * k**i), so
id 0 is the all-zeros table and the first observation symbol is the least
significant digit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import GuardError

DEFAULT_STRATEGY_CAP = 4096


def strategy_count(obs_size: int, input_size: int) -> int:
    if obs_size < 1 or input_size < 1:
        raise ValueError(f"alphabet sizes must be >= 1, got obs={obs_size} input={input_size}")
    return input_size**obs_size


def encode_table(table, input_size: int) -> int:
    """Inverse of decode_id."""
    table = np.asarray(table)
    if table.ndim != 1:
        raise ValueError("table must be one-dimensional")
    if np.any(table < 0) or np.any(table >= input_size):
        raise ValueError(f"table entries must lie in [0, {input_size})")
    sid = 0
    for digit in table[::-1]:
        sid = sid * input_size + int(digit)
    return sid


def decode_id(sid: int, obs_size: int, input_size: int) -> np.ndarray:
    """Table for a strategy id, little-endian digits of sid in base input_size."""
    if not 0 <= sid < strategy_count(obs_size, input_size):
        raise ValueError(f"strategy id {sid} out of range for {input_size}**{obs_size} tables")
    digits = np.empty(obs_size, dtype=np.int64)
    for i in range(obs_size):
        digits[i] = sid % input_size
        sid //= input_size
    return digits


@dataclass(frozen=True)
class StrategySpace:
    """All strategies for one user, tables stacked in id order."""

    obs_size: int
    input_size: int
    tables: np.ndarray  # (count, obs_size), row i is the table with id i

    @property
    def count(self) -> int:
        return self.tables.shape[0]

    def one_hot(self) -> np.ndarray:
        """Indicator tensor e[sid, obs, x] = 1 if tables[sid, obs] == x."""
        eye = np.eye(self.input_size)
        return eye[self.tables]


def enumerate_strategies(obs_size: int, input_size: int,
                         cap: int = DEFAULT_STRATEGY_CAP) -> StrategySpace:
    """Enumerate the full strategy space in id order.

    Guard: refuses spaces larger than cap (default 4096) so callers cannot
    accidentally materialize astronomically many tables.
    """
    count = strategy_count(obs_size, input_size)
    if count > cap:
        raise GuardError(
            f"strategy space cap: {input_size}**{obs_size} = {count} tables exceeds cap {cap}"
        )
    ids = np.arange(count, dtype=np.int64)
    tables = np.empty((count, obs_size), dtype=np.int64)
    for i in range(obs_size):
        tables[:, i] = ids % input_size
        ids = ids // input_size
    tables.setflags(write=False)
    return StrategySpace(obs_size=obs_size, input_size=input_size, tables=tables)
