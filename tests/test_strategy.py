import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fsmac.errors import GuardError
from fsmac.strategy import (
    DEFAULT_STRATEGY_CAP,
    decode_id,
    encode_table,
    enumerate_strategies,
    strategy_count,
)


def test_frozen_small_spaces():
    sp = enumerate_strategies(1, 2)
    assert sp.count == 2
    assert sp.tables.tolist() == [[0], [1]]

    sp = enumerate_strategies(2, 2)
    assert sp.count == 4
    assert sp.tables.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_frozen_id_37():
    # mixed-radix little-endian: 37 = 1 + 1*4 + 2*16
    table = decode_id(37, obs_size=3, input_size=4)
    assert table.tolist() == [1, 1, 2]
    assert encode_table([1, 1, 2], input_size=4) == 37


def test_enumeration_matches_product_oracle():
    # independent route: itertools.product varies the last slot fastest, so
    # little-endian id order is the reversed tuples
    for m, k in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
        sp = enumerate_strategies(m, k)
        expect = [tup[::-1] for tup in itertools.product(range(k), repeat=m)]
        assert sp.count == len(expect) == strategy_count(m, k)
        for sid, tup in enumerate(expect):
            assert sp.tables[sid].tolist() == list(tup)


def test_roundtrip_exhaustive():
    for m, k in [(2, 2), (3, 2), (2, 4), (4, 2), (3, 3)]:
        sp = enumerate_strategies(m, k)
        for sid in range(sp.count):
            table = decode_id(sid, m, k)
            assert encode_table(table, k) == sid
            assert np.array_equal(sp.tables[sid], table)


def test_no_duplicate_tables():
    for m, k in [(3, 2), (2, 4), (3, 3)]:
        sp = enumerate_strategies(m, k)
        seen = {tuple(row) for row in sp.tables.tolist()}
        assert len(seen) == sp.count


@given(st.integers(1, 4), st.integers(1, 5), st.data())
def test_roundtrip_random(m, k, data):
    count = strategy_count(m, k)
    sid = data.draw(st.integers(0, count - 1))
    assert encode_table(decode_id(sid, m, k), k) == sid


def test_one_hot_matches_tables():
    sp = enumerate_strategies(2, 3)
    e = sp.one_hot()
    assert e.shape == (9, 2, 3)
    for sid in range(sp.count):
        for obs in range(2):
            x = sp.tables[sid, obs]
            assert e[sid, obs, x] == 1.0
            assert e[sid, obs].sum() == 1.0


def test_guards_and_errors():
    with pytest.raises(GuardError, match="strategy space cap"):
        enumerate_strategies(13, 2)
    # 4**6 == 4096 sits exactly at the default cap
    assert enumerate_strategies(6, 4).count == DEFAULT_STRATEGY_CAP

    with pytest.raises(ValueError):
        decode_id(-1, 2, 2)
    with pytest.raises(ValueError):
        decode_id(4, 2, 2)
    with pytest.raises(ValueError):
        encode_table([0, 2], input_size=2)
    with pytest.raises(ValueError):
        strategy_count(0, 2)
