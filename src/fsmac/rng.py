"""Deterministic random streams.

All randomness in the package flows through Philox, a counter-based 64-bit
generator, so that independent work items (simulation trials, optimizer
restarts) can each own a private stream derived from (seed, item, role).
Streams are independent of scheduling: results merged by item index are
bit-identical however the items are grouped or ordered, which is why
``--threads`` changes nothing.

Key layout: word0 = seed, word1 = (item << 8) | role, handed to Philox as
an explicit uint64 array. Seeds are limited to [0, 2**64) and items to 56
bits, which is far beyond any guard in this package.
"""

import numpy as np

SEED_LIMIT = 1 << 64
ITEM_LIMIT = 1 << 56

ROLE_CODEBOOKS = 0
ROLE_TRIAL = 1
ROLE_RESTART = 2
ROLE_ENCODER = 3


def stream(seed: int, item: int = 0, role: int = 0) -> np.random.Generator:
    """Return the Generator for one (seed, item, role) work item."""
    if not 0 <= role < 256:
        raise ValueError(f"role must be in [0, 256), got {role}")
    if not 0 <= item < ITEM_LIMIT:
        raise ValueError(f"item must be in [0, 2**56), got {item}")
    check_seed(seed)
    key = np.array([seed, (item << 8) | role], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64): it would not be one key word."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
