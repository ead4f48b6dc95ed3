import json
import tracemalloc

import numpy as np
import pytest

from conftest import dirichlet_rows, oversized_channel_doc, random_spec, spec_with
from fsmac import examples
from fsmac.errors import GuardError, SpecFormatError, ValidationError
from fsmac.model import (
    FsMacSpec,
    induced_strategy_channel,
    load_spec,
    spec_from_dict,
    validate_spec,
)
from fsmac.strategy import enumerate_strategies

ORACLE_ATOL = 1e-12


def oracle_q(spec):
    """Independent route: explicit sums over both observation symbols."""
    sp_a = enumerate_strategies(spec.size_sa, spec.size_xa)
    sp_b = enumerate_strategies(spec.size_sb, spec.size_xb)
    q = np.zeros((spec.size_s, sp_a.count, sp_b.count, spec.size_y))
    for s in range(spec.size_s):
        for ta in range(sp_a.count):
            for tb in range(sp_b.count):
                for oa in range(spec.size_sa):
                    for ob in range(spec.size_sb):
                        xa = sp_a.tables[ta, oa]
                        xb = sp_b.tables[tb, ob]
                        q[s, ta, tb] += (
                            spec.obs_a[s, oa] * spec.obs_b[s, ob] * spec.channel[s, xa, xb]
                        )
    return q


def test_bundled_specs_load_and_validate():
    for name in examples.NAMES:
        spec = examples.load(name)
        validate_spec(spec)
    spec = examples.load("mod2-adder-noiseless")
    assert (spec.size_xa, spec.size_y, spec.size_s) == (2, 2, 2)
    assert spec.labels == {"y": ["xor0", "xor1"], "s": ["even", "odd"]}


def test_induced_channel_rows_are_pmfs(rng):
    for _ in range(5):
        spec = random_spec(rng)
        q = induced_strategy_channel(spec).q
        assert q.min() >= 0
        np.testing.assert_allclose(q.sum(axis=-1), 1.0, atol=1e-9)


def test_induced_channel_against_brute_force(rng):
    for _ in range(5):
        spec = random_spec(rng)
        q = induced_strategy_channel(spec).q
        np.testing.assert_allclose(q, oracle_q(spec), atol=ORACLE_ATOL)


def test_noiseless_observation_collapses_to_table_lookup():
    # with perfect observations, q(y|s,ta,tb) is just the transfer row at
    # the letters the tables pick for state s
    spec = examples.load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    for s in range(2):
        for ta in range(4):
            for tb in range(4):
                xa = chan.space_a.tables[ta, s]
                xb = chan.space_b.tables[tb, s]
                np.testing.assert_allclose(chan.q[s, ta, tb], spec.channel[s, xa, xb], atol=0)


def test_input_independent_channel_ignores_strategies(rng):
    spec = random_spec(rng, sizes={"xa": 2, "xb": 2, "s": 2, "sa": 2, "sb": 2, "y": 3})
    row = dirichlet_rows(rng, (2, 3))  # one row per state, same for all inputs
    chan = np.broadcast_to(row[:, None, None, :], (2, 2, 2, 3))
    spec = spec_with(spec, channel=chan)
    q = induced_strategy_channel(spec).q
    for s in range(2):
        np.testing.assert_allclose(q[s], np.broadcast_to(row[s], q[s].shape), atol=ORACLE_ATOL)


def test_stateless_spec_strategies_are_inputs():
    spec = examples.load("stateless-mac")
    chan = induced_strategy_channel(spec)
    assert chan.q.shape == (1, 2, 2, 3)
    np.testing.assert_allclose(chan.q[0], spec.channel[0], atol=0)


def test_linearity_in_each_observation_channel(rng):
    spec = random_spec(rng, sizes={"xa": 2, "xb": 3, "s": 2, "sa": 2, "sb": 2, "y": 2})
    obs1 = dirichlet_rows(rng, (2, 2))
    obs2 = dirichlet_rows(rng, (2, 2))
    lam = 0.37
    q1 = induced_strategy_channel(spec_with(spec, obs_a=obs1)).q
    q2 = induced_strategy_channel(spec_with(spec, obs_a=obs2)).q
    qmix = induced_strategy_channel(spec_with(spec, obs_a=lam * obs1 + (1 - lam) * obs2)).q
    np.testing.assert_allclose(qmix, lam * q1 + (1 - lam) * q2, atol=ORACLE_ATOL)


def test_degraded_observation_two_evaluation_orders(rng):
    # composing the observation channel with a stochastic matrix, then
    # inducing, must match mixing the matrix into the table indicators first
    spec = random_spec(rng, sizes={"xa": 2, "xb": 2, "s": 2, "sa": 2, "sb": 2, "y": 2})
    degrade = dirichlet_rows(rng, (2, 2))
    path1 = induced_strategy_channel(spec_with(spec, obs_a=spec.obs_a @ degrade)).q

    sp_a = enumerate_strategies(spec.size_sa, spec.size_xa)
    sp_b = enumerate_strategies(spec.size_sb, spec.size_xb)
    hot_a = degrade @ sp_a.one_hot()          # (ta, sa, xa) with degraded lookup
    hot_b = sp_b.one_hot()
    path2 = np.empty_like(path1)
    for s in range(spec.size_s):
        mix_a = np.einsum("u,tux->tx", spec.obs_a[s], hot_a)
        mix_b = np.einsum("u,tux->tx", spec.obs_b[s], hot_b)
        path2[s] = np.einsum("tx,vz,xzy->tvy", mix_a, mix_b, spec.channel[s])
    np.testing.assert_allclose(path1, path2, atol=ORACLE_ATOL)


def eager_q(spec):
    """The strategy channel as it was built eagerly, one einsum per state."""
    hot_a = enumerate_strategies(spec.size_sa, spec.size_xa).one_hot()
    hot_b = enumerate_strategies(spec.size_sb, spec.size_xb).one_hot()
    q = np.empty((spec.size_s, hot_a.shape[0], hot_b.shape[0], spec.size_y))
    for s in range(spec.size_s):
        mix_a = np.einsum("u,tux->tx", spec.obs_a[s], hot_a)
        mix_b = np.einsum("u,tux->tx", spec.obs_b[s], hot_b)
        q[s] = np.einsum("tx,vz,xzy->tvy", mix_a, mix_b, spec.channel[s])
    return q


def test_q_is_built_lazily_and_equals_the_eager_build(rng):
    sizes = [None] * 6 + [{"xa": 2, "xb": 3, "s": 1, "sa": 3, "sb": 2, "y": 4},
                          {"xa": 2, "xb": 2, "s": 4, "sa": 8, "sb": 8, "y": 4}]
    for size in sizes:
        spec = random_spec(rng, sizes=size)
        chan = induced_strategy_channel(spec)
        assert "q" not in vars(chan)
        assert chan.mix_a.shape == (spec.size_s, chan.space_a.count, spec.size_xa)
        assert chan.mix_b.shape == (spec.size_s, chan.space_b.count, spec.size_xb)
        q = chan.q
        assert np.array_equal(q, eager_q(spec))
        assert chan.q is q and not q.flags.writeable


def test_big_strategy_table_accepted():
    # 4 inputs, 3 observation symbols: 64 tables, well under the default cap
    rng = np.random.default_rng(7)
    spec = random_spec(rng, sizes={"xa": 4, "xb": 2, "s": 2, "sa": 3, "sb": 1, "y": 2})
    chan = induced_strategy_channel(spec)
    assert chan.space_a.count == 64


def test_validation_messages_name_first_violation(rng):
    spec = random_spec(rng, sizes={"xa": 2, "xb": 2, "s": 2, "sa": 2, "sb": 2, "y": 2})

    bad = np.asarray(spec.state_pmf).copy()
    bad[1] = bad[1] + 0.01
    with pytest.raises(ValidationError, match="state_pmf"):
        spec_with(spec, state_pmf=bad)

    bad_obs = np.asarray(spec.obs_a).copy()
    bad_obs[1, 0] = -0.1
    bad_obs[1, 1] = 1.1
    with pytest.raises(ValidationError, match=r"obs_a: entry \(1, 0\) is negative"):
        spec_with(spec, obs_a=bad_obs)

    bad_chan = np.asarray(spec.channel).copy()
    bad_chan[1, 0, 1] = [0.7, 0.7]
    with pytest.raises(ValidationError, match="channel"):
        spec_with(spec, channel=bad_chan)


def test_schema_rejections():
    doc = {
        "alphabets": {"xa": 2, "xb": 2, "s": 1, "sa": 1, "sb": 1, "y": 2},
        "state_pmf": [1.0],
        "obs_a": [[1.0]],
        "obs_b": [[1.0]],
        "channel": [[[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]],
    }
    spec_from_dict(doc)  # sanity: base document is fine

    with pytest.raises(ValidationError, match="unknown spec key 'extra'"):
        spec_from_dict({**doc, "extra": 1})
    with pytest.raises(ValidationError, match="missing spec key 'channel'"):
        spec_from_dict({k: v for k, v in doc.items() if k != "channel"})
    with pytest.raises(ValidationError, match="alphabets: missing key 'y'"):
        spec_from_dict({**doc, "alphabets": {k: v for k, v in doc["alphabets"].items() if k != "y"}})
    with pytest.raises(ValidationError, match="must be an integer >= 1"):
        spec_from_dict({**doc, "alphabets": {**doc["alphabets"], "y": 0}})
    with pytest.raises(ValidationError, match="shape"):
        spec_from_dict({**doc, "state_pmf": [0.5, 0.5]})
    with pytest.raises(ValidationError, match="not a numeric array"):
        spec_from_dict({**doc, "state_pmf": ["a"]})
    with pytest.raises(ValidationError, match="labels: unknown alphabet"):
        spec_from_dict({**doc, "labels": {"zz": ["?"]}})
    with pytest.raises(SpecFormatError):
        spec_from_dict([1, 2, 3])


def test_load_spec_parse_and_io_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SpecFormatError):
        load_spec(bad)
    with pytest.raises(OSError):
        load_spec(tmp_path / "missing.json")
    good = tmp_path / "roundtrip.json"
    good.write_text(json.dumps(json.loads(examples.spec_path("null-channel").read_text())))
    load_spec(good)


def test_strategy_cap_guards(rng):
    spec = random_spec(rng, sizes={"xa": 2, "xb": 2, "s": 2, "sa": 2, "sb": 2, "y": 2})
    with pytest.raises(GuardError, match="strategy space cap"):
        validate_spec(spec, strategy_cap=3)
    # per-user caps fine but the pair product can still trip
    big = random_spec(rng, sizes={"xa": 2, "xb": 2, "s": 2, "sa": 2, "sb": 2, "y": 2})
    with pytest.raises(GuardError, match="strategy product cap"):
        doc_sizes = {"xa": 4, "xb": 4, "s": 1, "sa": 6, "sb": 6, "y": 2}
        # 4**6 = 4096 per user, product 1.6e7 > 1e7; rows built to match shapes
        gen = np.random.default_rng(0)
        spec_from_dict({
            "alphabets": doc_sizes,
            "state_pmf": [1.0],
            "obs_a": dirichlet_rows(gen, (1, 6)).tolist(),
            "obs_b": dirichlet_rows(gen, (1, 6)).tolist(),
            "channel": dirichlet_rows(gen, (1, 4, 4, 2)).tolist(),
        })
    del big


def test_channel_cell_guard_counts_before_any_array():
    # 4096 x 2048 strategy pairs pass the pair cap, but q would be 2**31 cells (17 GB)
    doc = oversized_channel_doc()
    with pytest.raises(GuardError, match=r"channel cell cap: .* = 2147483648 cells exceed 16777216"):
        spec_from_dict(doc)
    # a spec built directly skips validation; the channel builder refuses it too
    sizes = doc["alphabets"]
    spec = FsMacSpec(
        size_xa=sizes["xa"], size_xb=sizes["xb"], size_s=sizes["s"],
        size_sa=sizes["sa"], size_sb=sizes["sb"], size_y=sizes["y"],
        **{key: np.asarray(doc[key]) for key in ("state_pmf", "obs_a", "obs_b", "channel")},
    )
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match="2147483648 cells"):
            induced_strategy_channel(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20   # the strategy tables only, nothing of q's size
