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

A Philox stream is fixed by its key alone, so ``rekey`` turns any Philox
Generator into the fresh ``stream`` of another work item without building
one, and draws exactly what a fresh stream would give. A Philox word is a
pure function of (key, counter) (Salmon et al., "Parallel Random Numbers:
As Easy as 1, 2, 3", SC 2011), so ``philox_words`` computes the first raw
words of many items' streams at once, numpy's words bit for bit.
``unit_floats`` and ``bounded`` are numpy's own transforms of those words:
``random``'s top 53 bits, and ``integers``' 32-bit step of Lemire ("Fast
Random Integer Generation in an Interval", ACM TOMACS 2019), which also
says when numpy would reject a draw and take another. A test pins the
words and both transforms to numpy's.
"""

import numpy as np

SEED_LIMIT = 1 << 64
ITEM_LIMIT = 1 << 56

ROLE_CODEBOOKS = 0
ROLE_TRIAL = 1
ROLE_RESTART = 2
ROLE_ENCODER = 3

# Philox-4x64-10's round multipliers and key increments, one row per pair
# of counter words a round multiplies, so both products take one array op
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_LOW = 0xFFFFFFFF
_M_LO, _M_HI = _PHILOX_M & _LOW, _PHILOX_M >> 32
_PHILOX_ROUNDS = 10


def _key(seed: int, item: int, role: int) -> tuple:
    """The two Philox key words of one (seed, item, role) work item."""
    if not 0 <= role < 256:
        raise ValueError(f"role must be in [0, 256), got {role}")
    if not 0 <= item < ITEM_LIMIT:
        raise ValueError(f"item must be in [0, 2**56), got {item}")
    check_seed(seed)
    return seed, (item << 8) | role


def stream(seed: int, item: int = 0, role: int = 0) -> np.random.Generator:
    """Return the Generator for one (seed, item, role) work item."""
    key = np.array(_key(seed, item, role), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def rekey(gen: np.random.Generator, seed: int, item: int, role: int) -> None:
    """Reset a Philox Generator to the fresh state of ``stream(seed, item,
    role)``: the new key, the counter at 0, an empty buffer and no cached
    32-bit half, so its draws from here on are that stream's, whatever it
    drew before."""
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _key(seed, item, role)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


def check_seed(seed: int) -> None:
    """Refuse a seed outside [0, 2**64): it would not be one key word."""
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _mulhilo(x: np.ndarray) -> tuple:
    """The low and high words of the 128-bit products of x and the round
    multipliers, the high word from 32-bit halves (Hacker's Delight's
    mulhu), so no partial product overflows."""
    x_lo, x_hi = x & _LOW, x >> 32
    t = x_lo * _M_HI
    x_lo *= _M_LO
    x_lo >>= 32
    t += x_lo
    hi = x_hi * _M_HI
    x_hi *= _M_LO
    x_hi += t & _LOW
    t >>= 32
    hi += t
    x_hi >>= 32
    hi += x_hi
    return x * _PHILOX_M, hi


def philox_words(seed: int, items: range, role: int, words: int) -> np.ndarray:
    """The first ``words`` raw outputs of ``stream(seed, item, role)`` for
    every item, as one (items, words) uint64 array: each row is that
    stream's ``bit_generator.random_raw(words)``.

    numpy's Philox fills its buffer from counters 1, 2, ... (the first word
    increments the counter), four words per counter, so row i holds the
    Philox-4x64-10 blocks of the key of items[i] at those counters. A block
    (v0, v1, v2, v3) is held as its multiplied words (v0, v2) and its other
    two (v1, v3), each a (2, items, blocks) array. Every step is array
    arithmetic, which wraps silently, on arrays of at least one
    dimension."""
    for item in (items[0], items[-1]) if items else (0,):
        _key(seed, item, role)  # items is a range, so its ends bound every item
    blocks = -(-words // 4)
    key = np.empty((2, len(items), 1), dtype=np.uint64)
    key[0] = seed
    key[1, :, 0] = np.arange(items.start, items.stop, items.step, dtype=np.uint64) << 8 | role
    mul = np.zeros((2, 1, blocks), dtype=np.uint64)
    mul[0, 0] = np.arange(1, blocks + 1, dtype=np.uint64)
    other = np.zeros((2, 1, 1), dtype=np.uint64)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        lo, hi = _mulhilo(mul)
        # (v0, v2) <- (hi(v2) ^ v1 ^ key0, hi(v0) ^ v3 ^ key1); (v1, v3) <- (lo(v2), lo(v0))
        mul, other = hi[::-1] ^ other ^ key, lo[::-1]
    out = np.stack(np.broadcast_arrays(mul, other), axis=-1)  # (pair, items, blocks, 2)
    return out.transpose(1, 2, 0, 3).reshape(len(items), 4 * blocks)[:, :words]


def unit_floats(words: np.ndarray) -> np.ndarray:
    """``Generator.random``'s float of each raw word: its top 53 bits
    times 2^-53, exact."""
    return (words >> 11) * (1.0 / (1 << 53))


def bounded(words: np.ndarray, counts: list) -> tuple:
    """``Generator.integers(count)`` for each of at most two counts in turn,
    one row per count, drawn from each raw word's 32-bit halves, low half
    first, by Lemire's step; and whether numpy rejects either draw of a
    word (probability below count / 2^32 each) and takes another. A count
    of 1 takes no draw, so callers leave it out."""
    draws = np.stack([words & _LOW, words >> 32])[:len(counts)]
    counts = np.array(counts, dtype=np.uint64)[:, None]
    scaled = draws * counts
    return scaled >> 32, ((scaled & _LOW) < (1 << 32) % counts).any(axis=0)
