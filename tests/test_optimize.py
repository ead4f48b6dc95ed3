"""Optimizer, grid oracle, and region tracing tests.

Frozen values used below:
  - noiseless mod-2 adder sum bound = 1.0 bit: mixing the identity and the
    flip table uniformly makes each input equiprobable in every state, the
    output is then uniform, and the table-conditional entropy is zero.
  - stateless binary adder sum bound = 1.5 bits at input probability 1/2
    (output law (1/4, 1/2, 1/4)); confirmed by an out-of-repo dense scan.
"""

import re
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fsmac
import fsmac.optimize as optimize
from fsmac.errors import GuardError, InternalInvariantError
from fsmac.examples import NAMES, load
from fsmac.model import induced_strategy_channel
from fsmac.optimize import (
    DirectionSupport,
    OptimizerConfig,
    RateRegion,
    _behavioral_grid,
    _compositions,
    _grid_max,
    _Objective,
    _simplex_grid,
    convex_hull_2d,
    grid_oracle_sum_rate,
    inner_bound_region,
    maximize_sum_rate,
    pentagon_support,
)
from fsmac.rates import RatePentagon, TeamPolicy, entropy_rows, joint_law, pentagon
from fsmac.rng import ROLE_RESTART, stream

from conftest import random_deterministic_spec, random_spec, spec_with


# ---------------------------------------------------------------- building blocks

def test_compositions_enumerate_exactly():
    rows = _compositions(3, 2)
    assert rows.tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]
    rows = _compositions(6, 4)
    assert rows.shape[0] == 84  # C(9, 3)
    assert np.all(rows.sum(axis=1) == 6)
    assert np.all(rows >= 0)
    assert len({tuple(r) for r in rows.tolist()}) == rows.shape[0]
    assert _compositions(5, 1).tolist() == [[5]]


def test_behavioral_grid_is_full_product():
    grid = _behavioral_grid(2, 2, 2)  # two obs symbols, binary input, step 1/2
    assert grid.shape == (9, 2, 2)
    rows = {tuple(map(tuple, g)) for g in grid.tolist()}
    per_symbol = {(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)}
    assert rows == {(p, q) for p in per_symbol for q in per_symbol}


def test_optimizer_config_validation():
    with pytest.raises(ValueError, match="restarts"):
        OptimizerConfig(restarts=0)


# ---------------------------------------------------------------- pentagon support

def test_pentagon_support_frozen_corners():
    pent = RatePentagon(bound_a=0.5, bound_b=0.5, bound_sum=0.8)
    value, point = pentagon_support(pent, (2.0, 1.0))
    assert point == (0.5, pytest.approx(0.3))
    assert value == pytest.approx(1.3)
    value, point = pentagon_support(pent, (1.0, 3.0))
    assert point == (pytest.approx(0.3), 0.5)
    assert value == pytest.approx(1.8)
    # ties go to the sender-a corner
    _, point = pentagon_support(pent, (1.0, 1.0))
    assert point == (0.5, pytest.approx(0.3))


def test_pentagon_support_matches_dense_scan(rng):
    for _ in range(50):
        a, b = rng.uniform(0.1, 2.0, size=2)
        c = max(a, b) + rng.uniform(0.0, 1.0) * (a + b - max(a, b))
        pent = RatePentagon(bound_a=a, bound_b=b, bound_sum=c)
        ca, cb = rng.uniform(0.0, 1.0, size=2) + 1e-3
        value, point = pentagon_support(pent, (ca, cb))
        ra = np.linspace(0.0, a, 20001)
        rb = np.minimum(b, c - ra)
        scanned = float((ca * ra + cb * rb).max())
        assert value >= scanned - 1e-12
        assert value <= scanned + (ca + cb) * a / 20000 + 1e-12
        assert point[0] <= a + 1e-12 and point[1] <= b + 1e-12
        assert point[0] + point[1] <= c + 1e-12


def test_pentagon_support_rejects_bad_directions():
    pent = RatePentagon(0.5, 0.5, 0.8)
    for bad in [(-1.0, 1.0), (1.0, -0.2), (0.0, 0.0), (float("nan"), 1.0), (1.0, float("inf"))]:
        with pytest.raises(ValueError, match="direction"):
            pentagon_support(pent, bad)


# ---------------------------------------------------------------- convex hull

def test_convex_hull_known_cases():
    pts = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5), (0.2, 0.9)]
    hull = convex_hull_2d(pts)
    assert hull.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert convex_hull_2d([(0, 0), (2, 2), (1, 1)]).tolist() == [[0, 0], [2, 2]]
    assert convex_hull_2d([(0.3, 0.4)]).tolist() == [[0.3, 0.4]]
    assert convex_hull_2d([(1, 1), (1, 1), (0, 0)]).tolist() == [[0, 0], [1, 1]]
    with pytest.raises(ValueError):
        convex_hull_2d(np.zeros((0, 2)))


def _oracle_hull(pts: np.ndarray) -> np.ndarray:
    """O(n^3) directed-edge scan: keep i->j iff every other point is strictly
    to its left, then walk the cycle from the lexicographic minimum."""
    n = pts.shape[0]
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    succ = {}
    for i in range(n):
        for j in range(n):
            if i != j and all(
                cross(pts[i], pts[j], pts[k]) > 0 for k in range(n) if k not in (i, j)
            ):
                succ[i] = j
    start = min(range(n), key=lambda k: (pts[k][0], pts[k][1]))
    order = [start]
    cur = succ[start]
    while cur != start:
        order.append(cur)
        cur = succ[cur]
    return pts[order]


def test_convex_hull_matches_edge_scan_oracle(rng):
    for _ in range(10):
        pts = rng.uniform(0.0, 1.0, size=(100, 2))
        np.testing.assert_allclose(convex_hull_2d(pts), _oracle_hull(pts), atol=1e-12)


# ---------------------------------------------------------------- gradients

# rows with different weights and policies share one batch, so a weight or a
# pmf that leaks from one row into another changes the numbers
_MIXED_WEIGHTS = np.array([(0.45, 0.3, 0.7), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0.3, 0.5, 0.9)],
                          dtype=np.float64)


def _mixed_policies(rng, chan, floor=0.0):
    rows = _MIXED_WEIGHTS.shape[0]
    pa = rng.dirichlet(np.ones(chan.space_a.count), size=rows) + floor
    pb = rng.dirichlet(np.ones(chan.space_b.count), size=rows) + floor
    return pa / pa.sum(axis=1, keepdims=True), pb / pb.sum(axis=1, keepdims=True)


def test_gradients_match_finite_differences(rng):
    spec = random_spec(rng)
    chan = induced_strategy_channel(spec)
    obj = _Objective(chan)
    pa, pb = _mixed_policies(rng, chan, floor=0.1)
    h = 1e-6
    for own, x, other in ((0, pa, pb), (1, pb, pa)):
        f = obj.block(own, _MIXED_WEIGHTS, other)
        point = f.evaluate(x)
        grad, value = f.grad(point), point.value
        for r in range(x.shape[0]):
            # each row alone gives the batch's numbers bit for bit
            alone = obj.block(own, _MIXED_WEIGHTS[r:r + 1], other[r:r + 1])
            alone_point = alone.evaluate(x[r:r + 1])
            assert alone_point.value[0] == value[r]
            assert np.array_equal(alone.grad(alone_point)[0], grad[r])
            for i in range(1, x.shape[1]):
                d = np.zeros_like(x)
                d[r, 0], d[r, i] = -1.0, 1.0
                fd = (f.evaluate(x + h * d).value - f.evaluate(x - h * d).value) / (2 * h)
                assert fd[r] == pytest.approx(float(grad[r] @ d[r]), abs=5e-5)
                others = np.arange(x.shape[0]) != r
                assert np.all(fd[others] == 0.0)


def test_weighted_value_reduces_to_pentagon_combination(rng):
    spec = random_spec(rng)
    chan = induced_strategy_channel(spec)
    obj = _Objective(chan)
    pa, pb = _mixed_policies(rng, chan)
    value_a = obj.block(0, _MIXED_WEIGHTS, pb).evaluate(pa).value
    value_b = obj.block(1, _MIXED_WEIGHTS, pa).evaluate(pb).value
    for r, (wa, wb, wc) in enumerate(_MIXED_WEIGHTS):
        pent = pentagon(joint_law(spec, chan, TeamPolicy(pi_a=pa[r], pi_b=pb[r])))
        expect = wa * pent.bound_a + wb * pent.bound_b + wc * pent.bound_sum
        assert value_a[r] == pytest.approx(expect, abs=1e-10)
        assert value_b[r] == pytest.approx(expect, abs=1e-10)


def _literal_block(q, p, weights, other, x):
    """One sender's block as literal sums over the strategy channel q, that
    sender's strategy axis first: m, u, lin, value and gradient per row."""
    log2e = 1.0 / np.log(2.0)
    w_own, w_other, wc = weights[:, 0], weights[:, 1], weights[:, 2]
    m = np.einsum("s,sab->ab", p, entropy_rows(q))
    u = np.einsum("rb,saby->rsay", other, q)
    lin = (-(w_own + w_other + wc)[:, None] * np.einsum("ab,rb->ra", m, other)
           + w_other[:, None] * np.einsum("s,rsa->ra", p, entropy_rows(u)))
    xu = np.einsum("ra,rsay->rsy", x, u)
    v = np.einsum("ra,saby->rsby", x, q)
    value = (np.einsum("ra,ra->r", x, lin) + wc * np.einsum("s,rs->r", p, entropy_rows(xu))
             + w_own * np.einsum("s,rb,rsb->r", p, other, entropy_rows(v)))
    grad = (lin + wc[:, None] * np.einsum("rsay,s,rsy->ra", u, p, -np.log2(xu) - log2e)
            + w_own[:, None] * np.einsum("saby,s,rb,rsby->ra", q, p, other, -np.log2(v) - log2e))
    return m, u, lin, value, grad


FACTOR_SIZES = (
    None, None, None,
    dict(xa=2, xb=3, s=3, sa=2, sb=1, y=3),   # the senders' input alphabets differ
    dict(xa=3, xb=2, s=1, sa=2, sb=2, y=4),   # one state
)


def test_factorized_objective_matches_literal_q_sums(rng):
    # every _MIXED_WEIGHTS row: the own-bound pass runs for both senders
    for sizes in FACTOR_SIZES:
        spec = random_spec(rng, sizes=sizes)
        chan = induced_strategy_channel(spec)
        obj = _Objective(chan)
        pa, pb = _mixed_policies(rng, chan)
        for own, x, other, q in ((0, pa, pb, chan.q), (1, pb, pa, chan.q.transpose(0, 2, 1, 3))):
            weights = _MIXED_WEIGHTS[:, [own, 1 - own, 2]]
            m, u, lin, value, grad = _literal_block(q, spec.state_pmf, weights, other, x)
            f = obj.block(own, _MIXED_WEIGHTS, other)
            np.testing.assert_allclose(obj._sides[own][2], m, rtol=0, atol=1e-12)
            # the block stores u strategy-major: (rows, own strategy, S*Y)
            rows, size_s, count, size_y = u.shape
            np.testing.assert_allclose(
                f.u, u.transpose(0, 2, 1, 3).reshape(rows, count, size_s * size_y),
                rtol=0, atol=1e-12)
            np.testing.assert_allclose(f.lin, lin, rtol=0, atol=1e-12)
            point = f.evaluate(x)
            np.testing.assert_allclose(point.value, value, rtol=0, atol=1e-12)
            np.testing.assert_allclose(f.grad(point), grad, rtol=0, atol=1e-12)


def _bounds_bytes(pents) -> bytes:
    return np.array([(p.bound_a, p.bound_b, p.bound_sum) for p in pents]).tobytes()


def test_block_rows_alone_match_the_batch_byte_for_byte(rng, monkeypatch):
    # value and grad are stacked products taken row by row; a product over the
    # whole batch at once (one GEMM) would let a row's bits depend on its batch
    for sizes in FACTOR_SIZES:
        spec = random_spec(rng, sizes=sizes)
        chan = induced_strategy_channel(spec)
        obj = _Objective(chan)
        pa, pb = _mixed_policies(rng, chan)
        for own, x, other in ((0, pa, pb), (1, pb, pa)):
            f = obj.block(own, _MIXED_WEIGHTS, other)
            point = f.evaluate(x)
            value, grad = point.value, f.grad(point)
            for i in range(x.shape[0]):
                alone = f.take(np.array([i]))
                alone_point = alone.evaluate(x[i:i + 1])
                assert alone_point.value.tobytes() == value[i:i + 1].tobytes()
                assert alone.grad(alone_point).tobytes() == grad[i:i + 1].tobytes()
        # so are pentagons: the batch in one chunk, then one policy's 3-row
        # block per chunk
        batch = obj.pentagons(pa, pb)
        with monkeypatch.context() as patch:
            patch.setattr(optimize, "BATCH_CELL_BUDGET", 3 * optimize._row_cells(obj.shape))
            assert _bounds_bytes(obj.pentagons(pa, pb)) == _bounds_bytes(batch)
    # the region's supports carry the pentagons their policies have alone
    region = inner_bound_region(spec, chan, OptimizerConfig(restarts=2), directions=5)
    monkeypatch.setattr(optimize, "BATCH_CELL_BUDGET", 3 * optimize._row_cells(obj.shape))
    alone = [obj.pentagons(s.policy.pi_a[None], s.policy.pi_b[None])[0] for s in region.supports]
    assert _bounds_bytes(alone) == _bounds_bytes(s.pentagon for s in region.supports)


def _assert_fresh(f, point):
    """point carries exactly the tables, value and gradient that a fresh
    evaluation of f at point.x gives, byte for byte."""
    fresh = f.evaluate(point.x)
    assert point.value.tobytes() == fresh.value.tobytes()
    assert point.log.tobytes() == fresh.log.tobytes()
    assert (point.own_log is None) == (fresh.own_log is None)
    if fresh.own_log is not None:
        assert point.own_log.tobytes() == fresh.own_log.tobytes()
    assert f.grad(point).tobytes() == f.grad(fresh).tobytes()


def test_a_line_search_carries_each_rows_probe_tables(rng):
    # _MIXED_WEIGHTS holds sum rows and own rows for both blocks; the steep
    # direction makes some rows fall at step 1 and rise only at a halved
    # step, and a descent direction leaves rows unmoved
    for sizes in FACTOR_SIZES:
        spec = random_spec(rng, sizes=sizes)
        chan = induced_strategy_channel(spec)
        obj = _Objective(chan)
        pa, pb = _mixed_policies(rng, chan)
        for own, x, other in ((0, pa, pb), (1, pb, pa)):
            weights = _MIXED_WEIGHTS[:, [own, 1 - own, 2]]
            for rows in (np.arange(x.shape[0]), [3], [int(np.flatnonzero(weights[:, 0])[0])]):
                f = obj.block(own, _MIXED_WEIGHTS[rows], other[rows])
                point = f.evaluate(x[rows])
                grad = f.grad(point)
                ascent = grad - grad.max(axis=1, keepdims=True)
                descent = np.where(np.arange(len(rows)) % 2, 1.0, -1.0)[:, None]
                for z in (ascent, 200.0 * ascent, descent * ascent):
                    new, moved = optimize._line_search(f, point, z)
                    _assert_fresh(f, new)
                    # unmoved rows keep the point's x and value
                    assert np.array_equal(new.x[~moved], point.x[~moved])
                    assert np.array_equal(new.value[~moved], point.value[~moved])


def test_rows_that_rise_only_at_a_halved_step_carry_that_probes_tables():
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    obj = _Objective(chan)
    pa, pb = _mixed_policies(np.random.default_rng(21), chan, floor=0.05)
    halved = 0
    for own, x, other in ((0, pa, pb), (1, pb, pa)):
        f = obj.block(own, _MIXED_WEIGHTS, other)
        point = f.evaluate(x)
        grad = f.grad(point)
        z = 200.0 * (grad - grad.max(axis=1, keepdims=True))
        first = optimize._probe(f, x, z, 1.0)
        new, moved = optimize._line_search(f, point, z)
        late = moved & (first.value <= point.value)
        halved += int(late.sum())
        _assert_fresh(f, new)
        # a block taken after the search, with its point, still reads fresh tables
        keep = moved.copy()
        keep[np.flatnonzero(moved)[0]] = False
        assert keep.any() and not keep.all()
        _assert_fresh(f.take(keep), new.take(keep))
        assert f.take(keep).grad(new.take(keep)).tobytes() == f.grad(new)[keep].tobytes()
    assert halved >= 2


def test_a_search_on_the_own_free_rows_of_a_mixed_block_runs(rng):
    # once every own-weighted row has stopped, an ascent goes on with the
    # sum rows of a block that had own rows: a row there that does not rise
    # at step 1 keeps the taken point's tables
    spec = random_spec(rng, sizes=FACTOR_SIZES[3])
    chan = induced_strategy_channel(spec)
    obj = _Objective(chan)
    pa, pb = _mixed_policies(rng, chan, floor=0.05)
    for own, x, other in ((0, pa, pb), (1, pb, pa)):
        f = obj.block(own, _MIXED_WEIGHTS, other)
        point = f.evaluate(x)
        free = _MIXED_WEIGHTS[:, own] == 0
        assert free.any() and not free.all()
        f, point = f.take(free), point.take(free)
        assert point.own_log is None
        grad = f.grad(point)
        ascent = grad - grad.max(axis=1, keepdims=True)
        # the first row walks down its gradient, the others up it
        z = np.where(np.arange(ascent.shape[0]) == 0, -1.0, 1.0)[:, None] * ascent
        new, moved = optimize._line_search(f, point, z)
        assert not moved[0] and moved[1:].all()
        _assert_fresh(f, new)


def test_every_ascent_gradient_reads_tables_a_fresh_evaluation_gives(rng, monkeypatch):
    # the sum rate's rows and a region's own rows, through row compaction
    grad = optimize._Block.grad
    calls = []

    def checked(f, point):
        calls.append(point.x.shape[0])
        fresh = f.evaluate(point.x)
        assert point.log.tobytes() == fresh.log.tobytes()
        if fresh.own_log is not None:
            assert point.own_log.tobytes() == fresh.own_log.tobytes()
        return grad(f, point)

    monkeypatch.setattr(optimize._Block, "grad", checked)
    for spec in (load("mod2-adder-bsc01"), random_spec(rng, sizes=FACTOR_SIZES[3])):
        chan = induced_strategy_channel(spec)
        inner_bound_region(spec, chan, OptimizerConfig(restarts=2, seed=5), directions=3)
    assert len(calls) > 20 and min(calls) < max(calls)


LARGE_SIZES = dict(xa=2, xb=2, s=4, sa=8, sb=8, y=4)


def _large_spec(seed=8):
    """256 x 256 strategies, S = Y = 4: q would hold 2**20 cells, 8 MB."""
    return random_spec(np.random.default_rng(seed), sizes=LARGE_SIZES)


def test_objective_memory_stays_far_below_q(monkeypatch):
    spec = _large_spec()
    chan = induced_strategy_channel(spec)
    q_bytes = 8 * spec.size_s * chan.space_a.count * chan.space_b.count * spec.size_y
    assert q_bytes == 8 << 20
    pa, pb = _mixed_policies(np.random.default_rng(9), chan)
    monkeypatch.setattr(optimize, "BATCH_CELL_BUDGET", 1 << 15)
    tracemalloc.start()
    try:
        obj = _Objective(chan)
        f = obj.block(0, _MIXED_WEIGHTS, pb)
        f.grad(f.evaluate(pa))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q_bytes / 4, peak
    assert "q" not in vars(chan)


def test_ascent_never_builds_q(monkeypatch):
    cfg = OptimizerConfig(restarts=2, seed=4)
    for spec in (*map(load, NAMES), random_spec(np.random.default_rng(3))):
        chan = induced_strategy_channel(spec)
        maximize_sum_rate(spec, chan, cfg)
        assert "q" not in vars(chan)
        # the region reads its pentagons off the objective, not a joint law
        inner_bound_region(spec, chan, cfg, directions=3)
        assert "q" not in vars(chan)
    # the large spec's whole sum-rate run stays under a quarter of q's bytes
    spec = _large_spec()
    chan = induced_strategy_channel(spec)
    monkeypatch.setattr(optimize, "BATCH_CELL_BUDGET", 1 << 15)
    monkeypatch.setattr(optimize, "MAX_ITERS", 3)
    tracemalloc.start()
    try:
        maximize_sum_rate(spec, chan, OptimizerConfig(restarts=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * chan.mix_a.shape[1] * chan.mix_b.shape[1] * spec.size_s * spec.size_y / 4
    assert "q" not in vars(chan)


# ---------------------------------------------------------------- sum-rate ascent

def test_sum_rate_null_channel_is_zero():
    spec = load("null-channel")
    chan = induced_strategy_channel(spec)
    res = maximize_sum_rate(spec, chan, OptimizerConfig(restarts=3, seed=5))
    assert res.value == pytest.approx(0.0, abs=1e-9)
    assert res.converged


def test_sum_rate_mod2_adder_hits_one_bit():
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    res = maximize_sum_rate(spec, chan)
    assert res.value == pytest.approx(1.0, abs=1e-6)
    assert res.converged
    assert 0 <= res.best_restart < 16
    hist = np.array(res.history)
    assert np.all(np.diff(hist) >= -1e-12)


def test_sum_rate_stateless_adder_hits_frozen_value():
    spec = load("stateless-mac")
    chan = induced_strategy_channel(spec)
    res = maximize_sum_rate(spec, chan, OptimizerConfig(restarts=8, seed=2))
    assert res.value == pytest.approx(1.5, abs=1e-6)
    # the maximizer sits on the resolution-200 grid, so the scan is exact too
    assert grid_oracle_sum_rate(spec, chan, 200) == pytest.approx(1.5, abs=1e-9)


@pytest.mark.parametrize("shift, reported", [(5e-13, 1.0), (-5e-10, 1.0 - 5e-10)])
def test_sum_rate_and_oracle_values_take_the_rate_rule(monkeypatch, shift, reported):
    # both pass rates.checked_rate: rounding past [0, log2 |Y|] is clamped, the
    # raw history is kept, and more than rounding is refused
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    cfg = OptimizerConfig(restarts=2)
    (best,) = optimize._maximize(optimize._Objective(chan), cfg, [optimize._SUM_RATE])
    monkeypatch.setattr(optimize, "_maximize", lambda *args: [(1.0 + shift, *best[1:])])
    res = maximize_sum_rate(spec, chan, cfg)
    assert res.value == pytest.approx(reported, abs=0) and res.history == best[6]
    monkeypatch.setattr(optimize, "_grid_max", lambda *args: 1.0 + shift)
    assert grid_oracle_sum_rate(spec, chan, 2) == pytest.approx(reported, abs=0)
    for value, message in ((-1e-11, "below"), (1.0 + 1e-8, "exceeds log2")):
        monkeypatch.setattr(optimize, "_maximize", lambda *args: [(value, *best[1:])])
        with pytest.raises(InternalInvariantError, match=f"^sum rate .* {message}"):
            maximize_sum_rate(spec, chan, cfg)
        monkeypatch.setattr(optimize, "_grid_max", lambda *args: value)
        with pytest.raises(InternalInvariantError, match=f"^grid-oracle sum rate .* {message}"):
            grid_oracle_sum_rate(spec, chan, 2)


def _same_sum_rate(a, b) -> bool:
    return (a.value == b.value and a.iterations == b.iterations
            and a.converged == b.converged and a.best_restart == b.best_restart
            and a.history == b.history and a.kkt_gaps == b.kkt_gaps
            and np.array_equal(a.policy.pi_a, b.policy.pi_a)
            and np.array_equal(a.policy.pi_b, b.policy.pi_b))


def test_maximize_is_deterministic_and_chunk_invariant(monkeypatch):
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    cfg = OptimizerConfig(restarts=5, seed=11)
    first = maximize_sum_rate(spec, chan, cfg)
    assert _same_sum_rate(first, maximize_sum_rate(spec, chan, cfg))
    # chunks of one and of two rows: every restart climbs alone or in a pair
    for budget in (1, 2 * optimize._row_cells(_Objective(chan).shape)):
        monkeypatch.setattr(optimize, "BATCH_CELL_BUDGET", budget)
        assert _same_sum_rate(first, maximize_sum_rate(spec, chan, cfg))


def test_kkt_gap_flags_a_non_stationary_policy():
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    cfg = OptimizerConfig(restarts=4, seed=7)
    res = maximize_sum_rate(spec, chan, cfg)
    assert res.converged and max(res.kkt_gaps) < 1e-6
    # the best restart's Dirichlet start, where its ascent began
    start = stream(cfg.seed, res.best_restart, ROLE_RESTART)
    pa = start.dirichlet(np.ones(chan.space_a.count))
    pb = start.dirichlet(np.ones(chan.space_b.count))
    obj = _Objective(chan)
    gaps = optimize._kkt_gaps(obj, pa, pb)
    assert min(gaps) > 1e-3
    # each gap bounds what that sender's best response still gains
    for own, x, other, gap in ((0, pa, pb, gaps[0]), (1, pb, pa, gaps[1])):
        f = obj.block(own, np.array([(0.0, 0.0, 1.0)]), other[None])
        start = f.evaluate(x[None])
        start_value = start.value
        _, best = optimize._ascend(f, start, 1e-12)
        assert 1e-4 < best[0] - start_value[0] <= gap


def test_ascent_work_guard_counts_before_the_objective(monkeypatch):
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    cfg = OptimizerConfig(restarts=2)
    work = 2 * (4 * 4 + optimize._row_cells((2, 4, 4, 2))) * optimize.MAX_ITERS
    monkeypatch.setattr(optimize, "ASCENT_WORK_CAP", work)
    assert maximize_sum_rate(spec, chan, cfg).value == pytest.approx(1.0, abs=1e-6)

    def refuse(*args):
        raise AssertionError("objective built before the work guard")

    monkeypatch.setattr(optimize, "ASCENT_WORK_CAP", work - 1)
    monkeypatch.setattr(optimize, "_Objective", refuse)
    with pytest.raises(GuardError, match=f"ascent work guard: 2 rows .* = {work} exceed"):
        maximize_sum_rate(spec, chan, cfg)
    # two directions and the sum rate, each with its two restarts
    with pytest.raises(GuardError, match="ascent work guard: 6 rows"):
        inner_bound_region(spec, chan, cfg, directions=2)


def test_ascent_work_guard_at_the_cell_cap():
    # counts only, at the channel cell cap (4096 x 2048 strategies, S = 1,
    # Y = 2); the refused ascents take minutes and are never run
    sizes = dict(xa=2, xb=2, s=1, sa=12, sb=11, y=2)
    chan = induced_strategy_channel(random_spec(np.random.default_rng(0), sizes=sizes))
    optimize.check_ascent_work(chan, 1)   # sumrate --restarts 1: 4.2e9
    for rows in (16, 34 * 16):            # default sumrate and region: 6.8e10 and 2.3e12
        with pytest.raises(GuardError, match="ascent work guard"):
            optimize.check_ascent_work(chan, rows)
    # the large spec's default region, 34 groups x 16 restarts (2.7e10), runs
    optimize.check_ascent_work(induced_strategy_channel(_large_spec(0)), 34 * 16)


# ---------------------------------------------------------------- grid oracle

def test_grid_oracle_paths_agree_on_deterministic_channel():
    # through the one evaluator, the collapsed point set must give the same
    # maximum as the strategy-grid point set, linear term included
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    collapsed = _grid_max(spec, _behavioral_grid(spec.size_sa, spec.size_xa, 6),
                          _behavioral_grid(spec.size_sb, spec.size_xb, 6))
    grid_a, grid_b = _simplex_grid(chan.space_a.count, 6), _simplex_grid(chan.space_b.count, 6)
    m = np.einsum("s,sab->ab", spec.state_pmf, entropy_rows(chan.q))
    literal = _grid_max(spec, np.einsum("ia,aox->iox", grid_a, chan.space_a.one_hot()),
                        np.einsum("ib,box->iox", grid_b, chan.space_b.one_hot()),
                        (grid_a @ m, grid_b))
    assert collapsed == pytest.approx(literal, abs=1e-12)
    assert grid_oracle_sum_rate(spec, chan, 6) == pytest.approx(collapsed, abs=0)


def _literal_grid_max(spec, chan, resolution):
    """The oracle's definition, pair by pair: the best pentagon sum bound over
    the product of strategy simplex grids."""
    return max(pentagon(joint_law(spec, chan, TeamPolicy(pi_a=pa, pi_b=pb))).bound_sum
               for pa in _simplex_grid(chan.space_a.count, resolution)
               for pb in _simplex_grid(chan.space_b.count, resolution))


ORACLE_SIZES = (
    dict(xa=2, xb=2, s=2, sa=2, sb=2, y=2),
    dict(xa=2, xb=3, s=3, sa=2, sb=1, y=3),
    dict(xa=4, xb=2, s=2, sa=1, sb=1, y=3),
    dict(xa=3, xb=2, s=3, sa=1, sb=2, y=2),
)


@pytest.mark.parametrize("draw", [random_spec, random_deterministic_spec])
def test_grid_oracle_matches_literal_pentagon_scan(draw):
    rng = np.random.default_rng(606)
    for sizes in ORACLE_SIZES:
        spec = draw(rng, sizes=sizes)
        chan = induced_strategy_channel(spec)
        deterministic = bool(np.all(chan.q.max(axis=-1) == 1.0))
        assert deterministic == (draw is random_deterministic_spec)
        for resolution in (2, 3, 4):
            assert grid_oracle_sum_rate(spec, chan, resolution) == pytest.approx(
                _literal_grid_max(spec, chan, resolution), abs=1e-12), (sizes, resolution)


def _unpruned_grid_max(spec, beh_a, beh_b, cost=None):
    """_grid_max as it was before the scan pruned: every chunk gathers every
    pair, and its chunk size does not count the per-state tables."""
    keys = [[np.unique(mix[:, s], axis=0, return_inverse=True) for s in range(spec.size_s)]
            for mix in (np.einsum("so,iox->isx", spec.obs_a, beh_a),
                        np.einsum("so,iox->isx", spec.obs_b, beh_b))]
    widest = max(u.shape[0] for u, _ in keys[0])
    chunk = max(1, optimize.ORACLE_CELL_BUDGET
                // (4 * (beh_a.shape[0] + widest * (spec.size_y + 1))))
    best = -np.inf
    buf = np.empty((min(chunk, beh_b.shape[0]), beh_a.shape[0]))
    for j0 in range(0, beh_b.shape[0], chunk):
        values = buf[:min(chunk, beh_b.shape[0] - j0)]
        for s, ((ua, ka), (ub, kb)) in enumerate(zip(*keys)):
            present, local = np.unique(kb[j0:j0 + chunk], return_inverse=True)
            t = np.einsum("jz,xzy->xyj", ub[present], spec.channel[s])
            r = (ua @ t.reshape(ua.shape[1], -1)).reshape(ua.shape[0], -1, present.size)
            table = spec.state_pmf[s] * entropy_rows(r.transpose(2, 0, 1))
            if s:
                values += table[local].take(ka, axis=1)
            else:
                (table[local] + 0.0).take(ka, axis=1, out=values)
        if cost is not None:
            values -= cost[1][j0:j0 + chunk] @ cost[0].T
        best = max(best, float(values.max()))
    return best


def _same_float(a: float, b: float) -> bool:
    return a == b and np.copysign(1.0, a) == np.copysign(1.0, b)


@pytest.mark.parametrize("draw", [random_spec, random_deterministic_spec])
def test_pruned_grid_oracle_matches_unpruned_scan_bit_for_bit(draw, monkeypatch):
    # a small budget cuts each scan into many chunks, so most of them run
    # against a running maximum that an earlier chunk set
    rng = np.random.default_rng(909)
    monkeypatch.setattr(optimize, "ORACLE_CELL_BUDGET", 1 << 14)
    for sizes in ORACLE_SIZES:
        spec = draw(rng, sizes=sizes)
        chan = induced_strategy_channel(spec)
        for resolution in range(1, 9):
            pruned = grid_oracle_sum_rate(spec, chan, resolution)
            with monkeypatch.context() as m:
                m.setattr(optimize, "_grid_max", _unpruned_grid_max)
                unpruned = grid_oracle_sum_rate(spec, chan, resolution)
            assert _same_float(pruned, unpruned), (sizes, resolution, pruned.hex(), unpruned.hex())


class _CountingNumpy:
    """numpy, with every flatnonzero call's input and output sizes recorded:
    the scan picks the b-points it gathers with one call per chunk."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def flatnonzero(self, a):
        out = np.flatnonzero(a)
        self.calls.append((a.size, out.size))
        return out


def test_grid_oracle_gathers_few_b_points_on_the_noiseless_adder(monkeypatch):
    # resolution 30 is 961 collapsed points per sender; the first chunk's
    # maximum is already 1 bit, the sum bound's cap, so no later b-point can
    # beat it. The budget is cut so that the scan has many chunks.
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    monkeypatch.setattr(optimize, "ORACLE_CELL_BUDGET", 1 << 16)
    counting = _CountingNumpy()
    monkeypatch.setattr(optimize, "np", counting)
    value = grid_oracle_sum_rate(spec, chan, 30)
    assert value == 1.0
    scanned = sum(size for size, _ in counting.calls)
    gathered = sum(kept for _, kept in counting.calls)
    assert scanned == 961 and len(counting.calls) > 10
    assert gathered <= scanned // 10, (gathered, scanned)
    monkeypatch.setattr(optimize, "np", np)
    monkeypatch.setattr(optimize, "_grid_max", _unpruned_grid_max)
    assert _same_float(value, grid_oracle_sum_rate(spec, chan, 30))


def test_grid_oracle_memory_stays_within_chunk_budget(monkeypatch):
    # 4 strategies per sender at resolution 20 is 1771 points each; with one
    # observation symbol every point has its own marginal, so a full (a keys x
    # b keys) entropy table would hold 3.1e6 cells (25 MB), its output law twice that.
    # The scan keeps every state's (b key x a key) table of a chunk until it
    # gathers; at the larger budget a chunk holds dozens of b-points.
    for states in (2, 3):
        spec = random_spec(np.random.default_rng(5),
                           sizes=dict(xa=4, xb=4, s=states, sa=1, sb=1, y=2))
        chan = induced_strategy_channel(spec)
        grid = _simplex_grid(chan.space_a.count, 20)
        beh = np.einsum("ia,aox->iox", grid, chan.space_a.one_hot())
        marginals = np.einsum("so,iox->isx", spec.obs_a, beh)
        assert all(np.unique(marginals[:, s], axis=0).shape[0] == grid.shape[0] == 1771
                   for s in range(spec.size_s))
        expected = grid_oracle_sum_rate(spec, chan, 20)
        for budget in (1 << 16, 1 << 20):
            monkeypatch.setattr(optimize, "ORACLE_CELL_BUDGET", budget)
            tracemalloc.start()
            try:
                value = grid_oracle_sum_rate(spec, chan, 20)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            monkeypatch.undo()
            assert _same_float(value, expected), (states, budget, value.hex(), expected.hex())
            assert peak <= 4 * 8 * budget, (states, budget, peak)


def test_grid_oracle_zero_is_positive_zero():
    # a constant output makes every entropy in the scan -0.0; the scan's first
    # state is written into its buffer, not added to zeros, and must still
    # report 0.0 as the sum from zeros did
    for s in (1, 2):
        spec = random_spec(np.random.default_rng(s), sizes=dict(xa=2, xb=2, s=s, sa=1, sb=1, y=2))
        constant = np.zeros(spec.channel.shape)
        constant[..., 0] = 1.0
        spec = spec_with(spec, channel=constant)
        value = grid_oracle_sum_rate(spec, induced_strategy_channel(spec), 4)
        assert value == 0.0 and np.copysign(1.0, value) == 1.0, (s, value)


def test_grid_oracle_never_beats_ascent():
    cases = [
        ("mod2-adder-noiseless", 12, 1e-6),
        ("mod2-adder-bsc01", 16, 2e-2),
        ("stateless-mac", 200, 1e-6),
        ("null-channel", 8, 1e-9),
    ]
    for name, resolution, gap in cases:
        spec = load(name)
        chan = induced_strategy_channel(spec)
        best = maximize_sum_rate(spec, chan, OptimizerConfig(restarts=8, seed=7)).value
        scanned = grid_oracle_sum_rate(spec, chan, resolution)
        assert scanned <= best + 1e-9, name
        assert best - scanned <= gap, name


def test_grid_oracle_guard_and_validation():
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    with pytest.raises(ValueError, match="resolution"):
        grid_oracle_sum_rate(spec, chan, 0)
    big = random_spec(np.random.default_rng(0), sizes=dict(xa=2, xb=2, s=2, sa=2, sb=2, y=2))
    big_chan = induced_strategy_channel(big)
    assert big_chan.space_a.count == 4  # sanity: right at the guard boundary
    three_obs = random_spec(np.random.default_rng(1), sizes=dict(xa=2, xb=2, s=2, sa=3, sb=1, y=2))
    with pytest.raises(GuardError, match="grid oracle"):
        grid_oracle_sum_rate(three_obs, induced_strategy_channel(three_obs), 4)


def test_grid_oracle_grid_size_guard_fires_before_any_grid(monkeypatch):
    # resolution 1000 with 4 strategies per sender is C(1003, 3) ~ 1.7e8 points
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    assert optimize._grid_points(4, 1000) == 167_668_501
    # the largest scan in use, resolution 60 on this spec, stays admitted
    assert optimize._grid_points(4, 60) == 39_711 <= optimize.ORACLE_GRID_CAP

    def refuse(*args):
        raise AssertionError("grid built before the guard")

    monkeypatch.setattr(optimize, "_compositions", refuse)
    with pytest.raises(GuardError, match="grid oracle guard: 167668501 x 167668501"):
        grid_oracle_sum_rate(spec, chan, 1000)
    deterministic = load("mod2-adder-noiseless")
    with pytest.raises(GuardError, match="grid oracle guard: 1002001 x 1002001"):
        grid_oracle_sum_rate(deterministic, induced_strategy_channel(deterministic), 1000)


def test_grid_oracle_pair_guard_fires_before_any_grid(monkeypatch):
    # each sender passes the grid-size cap, but the scan covers every pair
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    assert optimize._grid_points(4, 71) == 64_824 <= optimize.ORACLE_GRID_CAP
    # admitted: resolution 60 here (1.6e9 pairs), 100 on the deterministic adder (1.0e8)
    assert optimize._grid_points(4, 60) ** 2 <= optimize.ORACLE_PAIR_CAP
    assert optimize._grid_points(2, 100) ** 4 <= optimize.ORACLE_PAIR_CAP

    def refuse(*args):
        raise AssertionError("grid built before the guard")

    for builder in ("_compositions", "_simplex_grid", "_behavioral_grid", "_grid_max"):
        monkeypatch.setattr(optimize, builder, refuse)
    with pytest.raises(GuardError, match="pair guard: 64824 x 64824 policy pairs"):
        grid_oracle_sum_rate(spec, chan, 71)
    deterministic = load("mod2-adder-noiseless")
    with pytest.raises(GuardError, match="pair guard: 63001 x 63001 policy pairs"):
        grid_oracle_sum_rate(deterministic, induced_strategy_channel(deterministic), 250)


# ---------------------------------------------------------------- region tracing

def test_region_of_mod2_adder_is_unit_triangle():
    spec = load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    region = inner_bound_region(spec, chan, OptimizerConfig(restarts=4, seed=1), directions=9)
    np.testing.assert_allclose(
        region.vertices, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], atol=1e-5
    )
    assert len(region.supports) == 9
    for rec in region.supports:
        assert isinstance(rec, DirectionSupport)
        ca, cb = rec.direction
        assert rec.value == pytest.approx(ca * rec.point[0] + cb * rec.point[1], abs=1e-12)
        ref = pentagon(joint_law(spec, chan, rec.policy))   # the joint-law route
        np.testing.assert_allclose(
            [rec.pentagon.bound_a, rec.pentagon.bound_b, rec.pentagon.bound_sum],
            [ref.bound_a, ref.bound_b, ref.bound_sum], rtol=0, atol=1e-12)
    assert region.supports[0].direction == (1.0, 0.0)
    assert region.supports[-1].direction == (0.0, 1.0)


def test_region_validation(monkeypatch):
    spec = load("null-channel")
    chan = induced_strategy_channel(spec)
    with pytest.raises(ValueError, match="directions"):
        inner_bound_region(spec, chan, OptimizerConfig(restarts=2), directions=1)
    region = inner_bound_region(spec, chan, OptimizerConfig(restarts=2, seed=4), directions=3)
    assert region.vertices.shape == (1, 2)  # the null channel carries nothing
    np.testing.assert_allclose(region.vertices, [[0.0, 0.0]], atol=1e-9)

    def refuse(*args):
        raise AssertionError("rows allocated before the guard")

    monkeypatch.setattr(optimize, "_maximize", refuse)
    with pytest.raises(GuardError, match="region guard"):
        inner_bound_region(spec, chan, OptimizerConfig(restarts=2),
                           directions=optimize.DIRECTIONS_CAP + 1)


def _region_record(region):
    return (region.vertices.tolist(),
            [(s.direction, s.value, s.point, s.pentagon, s.policy.pi_a.tolist(),
              s.policy.pi_b.tolist()) for s in region.supports])


def test_region_batch_is_chunk_invariant_and_carries_the_sum_rate(monkeypatch):
    spec = load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    cfg = OptimizerConfig(restarts=4, seed=3)
    region = inner_bound_region(spec, chan, cfg, directions=7)
    # the outer sum rides in the region's batch with maximize_sum_rate's rows
    assert _same_sum_rate(region.outer_sum, maximize_sum_rate(spec, chan, cfg))
    monkeypatch.setattr(optimize, "BATCH_CELL_BUDGET", 1)   # one row per chunk
    alone = inner_bound_region(spec, chan, cfg, directions=7)
    assert _region_record(alone) == _region_record(region)
    assert _same_sum_rate(alone.outer_sum, region.outer_sum)


def test_region_rows_run_within_the_cell_budget(monkeypatch):
    # 3 groups x 4096 restarts, admitted; only a chunk of them may be held at once
    spec = load("stateless-mac")
    chan = induced_strategy_channel(spec)
    cfg = OptimizerConfig(restarts=4096)
    budget = 1 << 13
    inner_bound_region(spec, chan, OptimizerConfig(restarts=2), directions=2)   # warm caches
    monkeypatch.setattr(optimize, "MAX_ITERS", 1)
    monkeypatch.setattr(optimize, "BATCH_CELL_BUDGET", budget)
    row_cells = optimize._row_cells(_Objective(chan).shape)
    whole = 3 * cfg.restarts * row_cells * 8   # bytes, were every row held at once
    tracemalloc.start()
    try:
        region = inner_bound_region(spec, chan, cfg, directions=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert region.outer_sum.value == pytest.approx(1.5, abs=1e-3)
    assert peak <= 4 * budget * 8 < whole / 4, (peak, budget * 8, whole)


def test_region_stays_finite_where_policy_weights_underflow():
    # seed 0 draws the benchmark's sumrate-large spec; its optima hold
    # strategy weights so small that a product of two marginals underflows
    spec = _large_spec(seed=0)
    chan = induced_strategy_channel(spec)
    region = inner_bound_region(spec, chan, OptimizerConfig(restarts=1), directions=3)
    assert min(min(s.policy.pi_a.min(), s.policy.pi_b.min()) for s in region.supports) < 1e-150
    bounds = [(s.pentagon.bound_a, s.pentagon.bound_b, s.pentagon.bound_sum)
              for s in region.supports]
    assert np.all(np.isfinite(bounds)) and np.all(np.isfinite(region.vertices))
    assert region.vertices.sum(axis=1).max() <= region.outer_sum.value + 1e-6
    assert "q" not in vars(chan)


def test_rate_region_rejects_bad_vertex_lists():
    with pytest.raises(InternalInvariantError, match="not finite"):
        RateRegion(vertices=np.array([[0.0, 0.0], [np.nan, 0.5]]))
    with pytest.raises(InternalInvariantError, match="origin"):
        RateRegion(vertices=np.array([[0.5, 0.0], [1.0, 0.0]]))
    with pytest.raises(InternalInvariantError, match="quadrant"):
        RateRegion(vertices=np.array([[0.0, 0.0], [-0.5, 1.0]]))
    with pytest.raises(InternalInvariantError, match="counterclockwise"):
        RateRegion(vertices=np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    region = RateRegion(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert not region.vertices.flags.writeable


def test_capacity_bounds_demo_runs(capsys, monkeypatch):
    # the demo's resolution-60 oracles take about 16 s, 12 s of it on the null
    # channel, where nothing prunes; resolution 8 exercises the same path
    demo = Path(__file__).resolve().parents[1] / "demos" / "capacity_bounds.py"
    monkeypatch.setattr(fsmac, "grid_oracle_sum_rate",
                        lambda spec, chan, resolution: grid_oracle_sum_rate(spec, chan, 8))
    monkeypatch.setattr(sys, "argv", [str(demo)])
    runpy.run_path(str(demo), run_name="__main__")
    out = capsys.readouterr().out
    rates = [float(v) for v in re.findall(r"optimized sum rate: (\S+) bits", out)]
    assert rates == pytest.approx([1.0, 1.0, 1.5, 0.0], abs=1e-6)
    assert out.count("grid oracle (resolution 60)") == 4
