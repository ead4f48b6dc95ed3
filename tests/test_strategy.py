import itertools

import pytest

from fsmac.errors import GuardError
from fsmac.strategy import enumerate_strategies, strategy_count


def test_frozen_small_spaces():
    sp = enumerate_strategies(1, 2)
    assert sp.count == 2
    assert sp.tables.tolist() == [[0], [1]]

    sp = enumerate_strategies(2, 2)
    assert sp.count == 4
    assert sp.tables.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1]]


def test_frozen_id_37():
    # mixed-radix little-endian: 37 = 1 + 1*4 + 2*16
    assert enumerate_strategies(3, 4).tables[37].tolist() == [1, 1, 2]


def test_enumeration_matches_product_oracle():
    # independent route: itertools.product varies the last slot fastest, so
    # little-endian id order is the reversed tuples
    for m, k in [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)]:
        sp = enumerate_strategies(m, k)
        expect = [tup[::-1] for tup in itertools.product(range(k), repeat=m)]
        assert sp.count == len(expect) == strategy_count(m, k)
        for sid, tup in enumerate(expect):
            assert sp.tables[sid].tolist() == list(tup)


def test_no_duplicate_tables():
    for m, k in [(3, 2), (2, 4), (3, 3)]:
        sp = enumerate_strategies(m, k)
        seen = {tuple(row) for row in sp.tables.tolist()}
        assert len(seen) == sp.count


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
    # the one-hot table is the guarded array: 4096 * 1 * 4096 cells sit
    # exactly at the cap, 4097 * 1 * 4097 are over it
    assert enumerate_strategies(1, 4096).count == 4096
    with pytest.raises(GuardError, match=r"one-hot table = 4097 \* 1 \* 4097 = 16785409"):
        enumerate_strategies(1, 4097)
    with pytest.raises(GuardError, match=r"has 1000000\*\*1000000 strategies, more than"):
        enumerate_strategies(10**6, 10**6)

    with pytest.raises(ValueError):
        strategy_count(0, 2)
