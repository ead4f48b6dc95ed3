"""Counter-based streams: pinned draws, distinct keys, the seed range,
re-keying one generator into the fresh stream of another work item, and
the array kernel that computes many streams' words and numpy's transforms
of them."""

import re
import warnings

import numpy as np
import pytest

from fsmac.rng import (
    ITEM_LIMIT,
    ROLE_CODEBOOKS,
    ROLE_ENCODER,
    ROLE_RESTART,
    ROLE_TRIAL,
    bounded,
    philox_words,
    rekey,
    stream,
    unit_floats,
)

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


def _rekeyed(seed, item=0, role=0):
    gen = stream(5, 6, ROLE_TRIAL)
    rekey(gen, seed, item, role)
    return gen


@pytest.mark.parametrize("seed", [-1, -(2**63), 2**64, 2**65])
def test_stream_refuses_seeds_outside_64_bits(seed):
    for make in (stream, _rekeyed):
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            make(seed)


def test_stream_refuses_bad_items_and_roles():
    for make in (stream, _rekeyed):
        with pytest.raises(ValueError, match="item"):
            make(0, -1)
        with pytest.raises(ValueError, match="item"):
            make(0, 2**56)
        with pytest.raises(ValueError, match="role"):
            make(0, 0, 256)
        assert isinstance(make(0, 2**56 - 1, 255), np.random.Generator)


def test_refused_rekey_leaves_the_generator_as_it_was():
    gen = stream(5, 6, ROLE_TRIAL)
    gen.random(3)
    before = gen.bit_generator.state
    with pytest.raises(ValueError, match="seed"):
        rekey(gen, 2**64, 0, ROLE_TRIAL)
    assert _same_state(gen.bit_generator.state, before)


def _same_state(got, want):
    return (got["state"]["key"].tolist() == want["state"]["key"].tolist()
            and got["state"]["counter"].tolist() == want["state"]["counter"].tolist()
            and got["buffer"].tolist() == want["buffer"].tolist()
            and all(got[k] == want[k] for k in ("buffer_pos", "has_uint32", "uinteger")))


def _mixed_draws(gen, plan):
    """Draws of a plan of ("random" | "integers" | "choice", size) steps."""
    out = []
    for kind, size in plan:
        if kind == "random":
            out.append(gen.random(size))
        elif kind == "integers":
            out.append(gen.integers(2**31, size=size, dtype=np.int32))
        else:
            out.append(gen.choice(7, size=size, p=[0.0, 0.1, 0.2, 0.0, 0.3, 0.4, 0.0]))
    return [a.tolist() for a in out]


def test_rekey_equals_a_fresh_stream():
    # The generator is left in every kind of mid-stream state before each
    # re-key: mid-buffer, and holding the cached upper half of a 64-bit word
    # (has_uint32 = 1) after an odd count of 32-bit draws. A re-key must drop
    # all of it and draw, step for step, what a fresh stream draws.
    plans = np.random.default_rng(8)
    kinds = ("random", "integers", "choice")
    gen = stream(0)
    held = set()
    for case in range(60):
        seed = int(plans.integers(2**64, dtype=np.uint64))
        item, role = int(plans.integers(2**56)), int(plans.integers(256))
        key = [(seed, item, role), (case, case, case % 4)][case % 2]
        plan = [(kinds[int(plans.integers(3))], int(plans.integers(1, 12)))
                for _ in range(int(plans.integers(1, 6)))]
        gen.integers(2**31, size=int(plans.integers(1, 8)), dtype=np.int32)
        state = gen.bit_generator.state
        held.add((state["has_uint32"], state["buffer_pos"] < 4))
        rekey(gen, *key)
        fresh = stream(*key)
        assert _same_state(gen.bit_generator.state, fresh.bit_generator.state), key
        assert _mixed_draws(gen, plan) == _mixed_draws(fresh, plan), (key, plan)
        assert gen.random() == fresh.random()
    # both halves of the cached word and a part-read buffer were re-keyed over
    assert {(1, True), (0, True)} <= held


def _raw(seed, item, role, words):
    key = np.array([seed, (item << 8) | role], dtype=np.uint64)
    return np.random.Philox(key=key).random_raw(words)


@pytest.mark.parametrize("seed", [0, 2**63 - 1, 2**64 - 1])
@pytest.mark.parametrize("item", [0, 2**20, ITEM_LIMIT - 1])
def test_philox_words_are_numpy_words(seed, item):
    # every role, a part-used last block and two whole 2^16-letter streams
    # plus a word; no uint64 scalar may overflow, which would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for role in (ROLE_CODEBOOKS, ROLE_TRIAL, ROLE_RESTART, ROLE_ENCODER, 255):
            for words in [*range(1, 10), 2 * 2**16 + 1]:
                got = philox_words(seed, range(item, item + 1), role, words)
                assert got.shape == (1, words) and got.dtype == np.uint64
                assert np.array_equal(got[0], _raw(seed, item, role, words)), (role, words)


def test_philox_words_of_many_items_are_each_items_stream():
    items = range(2**20 - 3, 2**20 + 4)
    got = philox_words(2**64 - 1, items, ROLE_TRIAL, 11)
    assert got.shape == (len(items), 11)
    for row, item in zip(got, items):
        assert np.array_equal(row, stream(2**64 - 1, item, ROLE_TRIAL).bit_generator.random_raw(11))
    assert philox_words(0, range(0), ROLE_TRIAL, 3).shape == (0, 3)


@pytest.mark.parametrize("seed, items, role, bad_item", [
    (-1, range(3), ROLE_TRIAL, 0),
    (2**64, range(3), ROLE_TRIAL, 0),
    (2**64, range(0), ROLE_TRIAL, 0),
    (0, range(-1, 2), ROLE_TRIAL, -1),
    (0, range(ITEM_LIMIT - 1, ITEM_LIMIT + 1), ROLE_TRIAL, ITEM_LIMIT),
    (0, range(3), 256, 0),
    (0, range(3), -1, 0),
])
def test_philox_words_refuse_what_stream_refuses(seed, items, role, bad_item):
    with pytest.raises(ValueError) as refused:
        stream(seed, bad_item, role)
    with pytest.raises(ValueError, match=f"^{re.escape(str(refused.value))}$"):
        philox_words(seed, items, role, 4)


@pytest.mark.parametrize("count", [2, 3, 6, 338, 10**6, 2**20])
def test_transforms_are_numpy_draws(count):
    # random()'s float of a word, and integers(count) of its two 32-bit
    # halves in order, wherever Lemire's step keeps the draw
    items = range(400)
    words = philox_words(7, items, ROLE_TRIAL, 3)
    pair, reject_pair = bounded(words[:, 0], [count, count])
    one, reject_one = bounded(words[:, 0], [count])
    assert np.array_equal(one, pair[:1]) and (reject_pair >= reject_one).all()
    for j, item in enumerate(items):
        gen = stream(7, item, ROLE_TRIAL)
        want = [int(gen.integers(count)), int(gen.integers(count))]
        if not reject_pair[j]:
            assert pair[:, j].tolist() == want, (item, count)
        gen = stream(7, item, ROLE_TRIAL)
        assert unit_floats(words[j]).tolist() == gen.random(3).tolist()
