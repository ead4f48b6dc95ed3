"""Deterministic encoding strategies: tables from observation symbols to inputs.

A strategy for a user with observation alphabet of size m and input alphabet
of size k is a table t of length m with entries in [0, k). The full space has
k**m members. Ids are mixed-radix little-endian: id = sum(t[i] * k**i), so
id 0 is the all-zeros table and the first observation symbol is the least
significant digit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError

# float64 cells in any one array a strategy channel build makes: a sender's
# one-hot table, its per-state input law, or q.
CELL_CAP = 1 << 24


def check_cells(what: str, dims: tuple) -> None:
    """Refuse an array of shape dims over CELL_CAP cells before it exists."""
    cells = math.prod(dims)
    if cells > CELL_CAP:
        raise GuardError(f"channel cell cap: {what} = {' * '.join(map(str, dims))}"
                         f" = {cells} cells exceed {CELL_CAP}")


def strategy_count(obs_size: int, input_size: int, who: str = "the strategy space") -> int:
    """input_size ** obs_size, once its one-hot table (count * obs_size *
    input_size cells) passes check_cells. The count multiplies by input_size
    and stops past CELL_CAP, so a refusal takes at most log2(CELL_CAP) + 1
    steps whatever the sizes are, and no huge integer is built."""
    if obs_size < 1 or input_size < 1:
        raise ValueError(f"alphabet sizes must be >= 1, got obs={obs_size} input={input_size}")
    count = 1
    for _ in range(obs_size if input_size > 1 else 0):
        count *= input_size
        if count > CELL_CAP:
            raise GuardError(f"channel cell cap: {who} has {input_size}**{obs_size} "
                             f"strategies, more than {CELL_CAP}")
    check_cells(f"{who}'s one-hot table", (count, obs_size, input_size))
    return count


@dataclass(frozen=True)
class StrategySpace:
    """All strategies for one user, tables stacked in id order."""

    input_size: int
    tables: np.ndarray  # (count, obs_size), row i is the table with id i

    @property
    def count(self) -> int:
        return self.tables.shape[0]

    def one_hot(self) -> np.ndarray:
        """Indicator tensor e[sid, obs, x] = 1 if tables[sid, obs] == x."""
        eye = np.eye(self.input_size)
        return eye[self.tables]


def enumerate_strategies(obs_size: int, input_size: int) -> StrategySpace:
    """Enumerate the full strategy space in id order.

    Guard: strategy_count refuses a space whose one-hot table would exceed
    CELL_CAP cells before any table exists.
    """
    count = strategy_count(obs_size, input_size)
    ids = np.arange(count, dtype=np.int64)
    tables = np.empty((count, obs_size), dtype=np.int64)
    for i in range(obs_size):
        tables[:, i] = ids % input_size
        ids = ids // input_size
    tables.setflags(write=False)
    return StrategySpace(input_size=input_size, tables=tables)
