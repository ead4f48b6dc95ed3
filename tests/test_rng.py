"""Counter-based streams: pinned draws, distinct keys and the seed range."""

import numpy as np
import pytest

from fsmac.rng import ROLE_CODEBOOKS, ROLE_TRIAL, stream

# Draws at the two ends of the signed 64-bit seeds, before the key became an
# explicit uint64 array; every seed in [0, 2**63) keeps its stream bit for bit.
PINNED = {
    (0, 0, ROLE_CODEBOOKS): ([106500010600983629, 2227898105101312729], 0.11142585551493822),
    (0, 1, ROLE_TRIAL): ([8735997397408575450, 3886880459819781635], 0.5933727710383503),
    (2**63 - 1, 0, ROLE_CODEBOOKS):
        ([8539059778737004569, 1674689969096962102], 0.6192568763511546),
    (2**63 - 1, 1, ROLE_TRIAL):
        ([7936331423037177616, 1606177526463435823], 0.7643732959890316),
}


@pytest.mark.parametrize("key", sorted(PINNED))
def test_stream_draws_are_pinned(key):
    rng = stream(*key)
    ints, real = PINNED[key]
    assert rng.integers(2**63, size=2).tolist() == ints
    assert rng.random() == real


def test_large_seeds_give_distinct_streams():
    # as a Python list these keys went through float64 and collided
    seeds = [2**63, 2**63 + 1, 2**63 + 1024, 2**64 - 1, 2**63 - 1]
    draws = {tuple(stream(seed, 7, ROLE_TRIAL).integers(2**63, size=4)) for seed in seeds}
    assert len(draws) == len(seeds)


@pytest.mark.parametrize("seed", [-1, -(2**63), 2**64, 2**65])
def test_stream_refuses_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        stream(seed)


def test_stream_refuses_bad_items_and_roles():
    with pytest.raises(ValueError, match="item"):
        stream(0, -1)
    with pytest.raises(ValueError, match="item"):
        stream(0, 2**56)
    with pytest.raises(ValueError, match="role"):
        stream(0, 0, 256)
    assert isinstance(stream(0, 2**56 - 1, 255), np.random.Generator)
