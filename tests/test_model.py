import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest

from conftest import dirichlet_rows, oversized_channel_doc, random_spec, spec_with
from fsmac import (
    OptimizerConfig,
    SimConfig,
    TeamPolicy,
    estimate_error,
    examples,
    grid_oracle_sum_rate,
    inner_bound_region,
    joint_law,
    maximize_sum_rate,
    pentagon,
    random_encoders,
    sigma_average_pentagon,
    verify_factorization,
)
from fsmac.errors import GuardError, SpecFormatError, ValidationError
from fsmac.model import (
    PMF_ATOL,
    FsMacSpec,
    induced_strategy_channel,
    load_spec,
    spec_from_dict,
)
from fsmac.optimize import check_grid_oracle
from fsmac.rng import ROLE_ENCODER, stream
from fsmac.strategy import enumerate_strategies

ORACLE_ATOL = 1e-12
ARRAYS = ("state_pmf", "obs_a", "obs_b", "channel")


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
        assert all(not arr.flags.writeable and arr.dtype == np.float64
                   for arr in (spec.state_pmf, spec.obs_a, spec.obs_b, spec.channel))
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
    for bad in (float("nan"), float("inf")):
        channel = [[[[0.5, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, bad]]]]
        with pytest.raises(ValidationError, match=r"channel: entry \(0, 1, 1, 1\) is not finite"):
            spec_from_dict({**doc, "channel": channel})
    with pytest.raises(ValidationError, match="state_pmf: entry 0 is not finite"):
        spec_from_dict({**doc, "state_pmf": [float("nan")]})
    with pytest.raises(ValidationError, match="labels: unknown alphabet"):
        spec_from_dict({**doc, "labels": {"zz": ["?"]}})
    for bad in ({"xa": 5}, {"y": ["one"]}, {"y": ["a", "b", "c"]}, {"y": ["a", 1]},
                {"s": "a"}, {"xb": None}):
        with pytest.raises(ValidationError, match="labels: .* must be a list of"):
            spec_from_dict({**doc, "labels": bad})
    spec_from_dict({**doc, "labels": {"y": ["zero", "one"], "s": ["only"]}})
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


def _sized(xa, xb, s, sa, sb, y) -> dict:
    """FsMacSpec's arguments for these sizes, with uniform rows."""
    return dict(
        size_xa=xa, size_xb=xb, size_s=s, size_sa=sa, size_sb=sb, size_y=y,
        state_pmf=np.full(s, 1 / s), obs_a=np.full((s, sa), 1 / sa),
        obs_b=np.full((s, sb), 1 / sb), channel=np.full((s, xa, xb, y), 1 / y),
    )


@pytest.mark.parametrize("sizes, message", [
    ((2, 2, 1, 25, 1, 2), r"sender a has 2\*\*25 strategies, more than 16777216"),
    ((2, 2, 1, 1, 25, 2), r"sender b has 2\*\*25 strategies, more than 16777216"),
    ((2, 1, 1, 23, 1, 2), r"sender a's one-hot table = 8388608 \* 23 \* 2 = 385875968 cells"),
    ((2, 2, 1, 1, 23, 2), r"sender b's one-hot table = 8388608 \* 23 \* 2 = 385875968 cells"),
    ((4096, 1, 16, 1, 1, 1), r"sender a's input law S\*A\*Xa = 16 \* 4096 \* 4096 = 268435456"),
    ((1, 4096, 2, 1, 1, 1), r"sender b's input law S\*B\*Xb = 2 \* 4096 \* 4096 = 33554432"),
    ((4, 4, 1, 6, 6, 2), r"S\*A\*B\*Y = 1 \* 4096 \* 4096 \* 2 = 33554432 cells"),
], ids=["count-a", "count-b", "one-hot-a", "one-hot-b", "input-law-a", "input-law-b", "q"])
def test_cell_guard_counts_every_array_the_build_makes(sizes, message):
    # sizes (xa, xb, s, sa, sb, y). input-law-a once passed every guard (4096
    # strategies, q of 65,536 cells) while its input law would take 2.1 GB.
    # No spec exists past the guard, so the channel builder never sees one.
    args = _sized(*sizes)
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match="channel cell cap: " + message):
            FsMacSpec(**args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20   # refused before any table exists


def test_cell_guard_admits_arrays_at_the_cap():
    # q at exactly 2**24 cells, and a one-hot table at exactly 2**24 cells
    FsMacSpec(**_sized(2, 2, 1, 12, 11, 2**24 // (4096 * 2048)))
    FsMacSpec(**_sized(4096, 1, 1, 1, 1, 1))


def test_huge_alphabets_refused_in_a_few_steps():
    # 10**6 ** 10**6 strategies: the count stops at the first power past the
    # cap, so no six-million-digit integer is built or printed
    args = _sized(10**6, 1, 1, 10**6, 1, 1)
    started = time.perf_counter()
    with pytest.raises(GuardError) as exc:
        FsMacSpec(**args)
    assert time.perf_counter() - started < 0.1
    assert str(exc.value) == ("channel cell cap: sender a has 1000000**1000000 "
                              "strategies, more than 16777216")


def test_channel_cell_guard_counts_before_any_array():
    # both senders' tables and input laws fit, but q would be 2**31 cells (17 GB)
    doc = oversized_channel_doc()
    with pytest.raises(GuardError, match=r"channel cell cap: .* = 2147483648 cells exceed 16777216"):
        spec_from_dict(doc)
    # a spec built directly is refused by the same guard
    sizes = doc["alphabets"]
    args = {f"size_{key}": size for key, size in sizes.items()}
    args.update({key: np.asarray(doc[key]) for key in ("state_pmf", "obs_a", "obs_b", "channel")})
    tracemalloc.start()
    try:
        with pytest.raises(GuardError, match="2147483648 cells"):
            FsMacSpec(**args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20   # the guard runs before any table is built


@pytest.mark.parametrize("field, name, shape", [
    ("size_y", "channel", (2, 2, 2, 3)),
    ("size_s", "state_pmf", (3,)),
    ("size_sa", "obs_a", (2, 3)),
    ("size_xa", "channel", (2, 3, 2, 2)),
], ids=["y", "s", "sa", "xa"])
def test_sizes_that_disagree_with_the_arrays_are_refused(field, name, shape):
    # a size of 3 on the binary adder: size_y = 3 and size_s = 3 once gave a
    # sum rate of 1 bit read against log2 3, and size_sa = 3 and size_xa = 3
    # failed inside the optimizer on a numpy broadcast
    spec = examples.load("mod2-adder-noiseless")
    with pytest.raises(ValidationError) as exc:
        dataclasses.replace(spec, **{field: 3})
    assert str(exc.value) == (f"{name}: shape {getattr(spec, name).shape} does not match "
                              f"alphabets, expected {shape}")


def test_channel_build_holds_one_input_law_beside_its_one_hot_table():
    # S = Sa = 1: the one-hot table and mix_a are the same size, so a build
    # that also stacked per-state slices would peak at 3x mix_a
    spec = FsMacSpec(**_sized(512, 1, 1, 1, 1, 1))
    tracemalloc.start()
    try:
        chan = induced_strategy_channel(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * chan.mix_a.nbytes, (peak, chan.mix_a.nbytes)


def test_rows_are_rescaled_to_sum_to_one():
    # a row that sums to exactly 1.0 keeps every bit
    doc = json.loads(examples.spec_path("mod2-adder-bsc01").read_text())
    spec = spec_from_dict(doc)
    for name in ARRAYS:
        assert np.array_equal(getattr(spec, name), np.array(doc[name])), name
    # rows off 1 by 0.9 PMF_ATOL pass the check and come out summing to 1
    # within rounding, so q and the joint law have no error to compound
    scaled = dataclasses.replace(
        spec, **{name: getattr(spec, name) * (1 + 0.9 * PMF_ATOL) for name in ARRAYS})
    for name in ARRAYS:
        np.testing.assert_allclose(getattr(scaled, name), getattr(spec, name), rtol=1e-15)
        np.testing.assert_allclose(getattr(scaled, name).sum(axis=-1), 1.0, rtol=0, atol=1e-15)
    np.testing.assert_allclose(induced_strategy_channel(scaled).q.sum(axis=-1), 1.0,
                               rtol=0, atol=1e-15)


def _foreign_entries():
    """(name, call) for every entry that takes a spec and its channel, each
    a call on the null channel's spec with the noiseless adder's channel."""
    spec = examples.load("null-channel")
    chan = induced_strategy_channel(examples.load("mod2-adder-noiseless"))
    cfg = OptimizerConfig(restarts=2)
    policy = TeamPolicy(pi_a=np.full(4, 0.25), pi_b=np.full(4, 0.25))
    maps = random_encoders(spec, 2, 2, 2, stream(0, 0, ROLE_ENCODER))
    sim = SimConfig(blocklength=4, rate_a=0.25, rate_b=0.25, trials=10)
    return {
        "maximize_sum_rate": lambda: maximize_sum_rate(spec, chan, cfg),
        "inner_bound_region": lambda: inner_bound_region(spec, chan, cfg, directions=3),
        "check_grid_oracle": lambda: check_grid_oracle(spec, chan, 10),
        "grid_oracle_sum_rate": lambda: grid_oracle_sum_rate(spec, chan, 10),
        "estimate_error": lambda: estimate_error(spec, chan, policy, sim),
        "joint_law": lambda: joint_law(spec, chan, policy),
        "pentagon": lambda: pentagon(joint_law(spec, chan, policy)),
        "verify_factorization": lambda: verify_factorization(spec, maps, chan),
        "sigma_average_pentagon": lambda: sigma_average_pentagon(spec, maps, chan),
    }


@pytest.mark.parametrize("entry", list(_foreign_entries()))
def test_a_channel_of_another_spec_is_refused(entry):
    # the null channel's sum rate is 0; the noiseless adder's channel once
    # gave it 1 bit, a pentagon of (1, 1, 1) and the adder's triangle
    with pytest.raises(ValidationError, match="^strategy channel was induced from another spec$"):
        _foreign_entries()[entry]()
