"""Sum-rate maximization, achievable-region tracing, and their grid oracle.

Both jobs maximize J = wa*bound_a + wb*bound_b + wc*bound_sum over product
strategy policies: the sum rate is wc alone, a region direction mixes two of
the three pentagon bounds. With one sender's pmf held fixed, J is concave in
the other's (Shannon's strategy reduction: output entropies are concave, the
table-conditional entropy is linear). So the ascent alternates blocks:
_WeightedBounds.block(own, other) builds that single-sender function once,
and a multiplicative-weights step with backtracking line search climbs it.
A probe costs O(S*A*Y), plus one pass over q only when J carries the
climbing sender's own single-sender bound.

Every restart owns a private random stream; results merge by restart index,
so runs are reproducible for any thread count.
"""

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InternalInvariantError
from .model import FsMacSpec, StrategyChannel
from .rates import RatePentagon, TeamPolicy, entropy_rows, joint_law, log2_floor, pentagon
from .rng import ROLE_RESTART, stream

_LOG2E = 1.0 / np.log(2.0)
_EG_STEPS = 30
_BACKTRACKS = 40
_MONOTONE_SLACK = 1e-12
ORACLE_GRID_CAP = 1 << 16  # grid points per sender the oracle may scan
ORACLE_PAIR_CAP = 1 << 31  # policy pairs, which set the oracle's time
DIRECTIONS_CAP = 1 << 12   # region directions, checked before any is allocated


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    max_iters: int = 500
    rel_tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.restarts <= 1 << 20:
            raise ValueError(f"restarts must be in [1, 2**20], got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not self.rel_tol > 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")


@dataclass(frozen=True)
class SumRateResult:
    value: float
    policy: TeamPolicy
    iterations: int
    converged: bool
    best_restart: int
    history: tuple  # objective after each alternating round of the best restart


@dataclass(frozen=True)
class DirectionSupport:
    """One traced direction: which policy won and what it supports."""

    direction: tuple
    value: float
    point: tuple
    pentagon: RatePentagon
    policy: TeamPolicy


@dataclass(frozen=True)
class RateRegion:
    """Convex hull of the traced rate points, counterclockwise from (0, 0)."""

    vertices: np.ndarray  # (k, 2)
    supports: tuple = ()

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"vertices must be (k, 2), got {v.shape}")
        if np.any(v < -1e-12):
            raise InternalInvariantError("rate region vertex outside the nonnegative quadrant")
        if not (abs(v[0, 0]) <= 1e-12 and abs(v[0, 1]) <= 1e-12):
            raise InternalInvariantError("rate region must start at the origin")
        n = v.shape[0]
        if n >= 3:
            for i in range(n):
                o, a, b = v[i], v[(i + 1) % n], v[(i + 2) % n]
                cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
                if cross < -1e-12:
                    raise InternalInvariantError("rate region vertices are not counterclockwise")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)


class _Block:
    """J(x) = x @ lin + wc * H(Y|S) + w_own * H(Y|T_other,S) for one sender's
    pmf x: u is the output law given (s, own table) mixed over the other
    sender, lin the two terms linear in x, and H(Y|S) depends on x @ u only."""

    def __init__(self, q, p, m, other, w_own, w_other, wc):
        self.q, self.p, self.other = q, p, other
        self.w_own, self.wc = w_own, wc
        self.u = np.einsum("b,saby->say", other, q)   # (S,A,Y)
        wsum = w_own + w_other + wc
        self.lin = -wsum * (m @ other) + w_other * (p @ entropy_rows(self.u))

    def value(self, x: np.ndarray) -> float:
        out = float(x @ self.lin)
        if self.wc:
            out += self.wc * float(self.p @ entropy_rows(x @ self.u))
        if self.w_own:
            v = np.einsum("a,saby->sby", x, self.q)   # law given the other's table
            out += self.w_own * float(self.p @ entropy_rows(v) @ self.other)
        return out

    def grad(self, x: np.ndarray) -> np.ndarray:
        grad = self.lin.copy()
        if self.wc:
            lr = -log2_floor(x @ self.u) - _LOG2E
            grad += self.wc * np.einsum("say,s,sy->a", self.u, self.p, lr)
        if self.w_own:
            v = np.einsum("a,saby->sby", x, self.q)
            lv = -log2_floor(v) - _LOG2E
            grad += self.w_own * np.einsum("saby,s,b,sby->a", self.q, self.p, self.other, lv)
        return grad


class _WeightedBounds:
    """J = wa*bound_a + wb*bound_b + wc*bound_sum for a fixed channel."""

    def __init__(self, q: np.ndarray, state_pmf: np.ndarray, wa: float, wb: float, wc: float):
        self.q = q
        self.p = state_pmf
        self.wc = float(wc)
        self.m = np.einsum("s,sab->ab", state_pmf, entropy_rows(q))   # (A,B)
        # per sender: q and m with its own axis first, then its own and the other's weight
        self._sides = {"a": (q, self.m, float(wa), float(wb)),
                       "b": (q.transpose(0, 2, 1, 3), self.m.T, float(wb), float(wa))}

    def block(self, own: str, other: np.ndarray) -> _Block:
        """J as a function of sender own's pmf, the other sender's pmf fixed."""
        q, m, w_own, w_other = self._sides[own]
        return _Block(q, self.p, m, other, w_own, w_other, self.wc)


def _ascend_block(f: _Block, x: np.ndarray, tol: float):
    """Climb one block to local stationarity by exponentiated gradient with
    backtracking; returns (new block pmf, value)."""
    value = f.value(x)
    for _ in range(_EG_STEPS):
        grad = f.grad(x)
        step = 1.0
        for _ in range(_BACKTRACKS):
            cand = x * np.exp(step * (grad - grad.max()))
            total = cand.sum()
            if total > 0 and np.isfinite(total):
                cand = cand / total
                cand_value = f.value(cand)
                if cand_value > value:
                    break
            step *= 0.5
        else:
            break   # no step improved
        gain = cand_value - value
        x, value = cand, cand_value
        if gain <= tol * max(1.0, abs(value)):
            break
    return x, value


def _run_restart(obj: _WeightedBounds, cfg: OptimizerConfig, item: int):
    rng = stream(cfg.seed, item, ROLE_RESTART)
    pa = rng.dirichlet(np.ones(obj.q.shape[1]))
    pb = rng.dirichlet(np.ones(obj.q.shape[2]))
    value = obj.block("a", pb).value(pa)
    history = [value]
    converged = False
    rounds = 0
    for rounds in range(1, cfg.max_iters + 1):
        pa, _ = _ascend_block(obj.block("a", pb), pa, cfg.rel_tol)
        pb, new_value = _ascend_block(obj.block("b", pa), pb, cfg.rel_tol)
        if new_value < value - _MONOTONE_SLACK * max(1.0, abs(value)):
            raise InternalInvariantError(
                f"objective decreased from {value!r} to {new_value!r} during ascent"
            )
        history.append(new_value)
        if new_value - value <= cfg.rel_tol * max(1.0, abs(new_value)):
            value = new_value
            converged = True
            break
        value = new_value
    return value, pa, pb, rounds, converged, history


def _maximize_weighted(obj: _WeightedBounds, cfg: OptimizerConfig,
                       item_base: int, threads: int = 1):
    items = [item_base + r for r in range(cfg.restarts)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda it: _run_restart(obj, cfg, it), items))
    else:
        results = [_run_restart(obj, cfg, it) for it in items]
    best = max(range(cfg.restarts), key=lambda r: (results[r][0], -r))
    value, pa, pb, rounds, converged, history = results[best]
    return value, pa, pb, rounds, converged, best, tuple(history)


def maximize_sum_rate(spec: FsMacSpec, chan: StrategyChannel,
                      cfg: OptimizerConfig | None = None, threads: int = 1) -> SumRateResult:
    """Best sum bound over product strategy policies (multi-start ascent)."""
    cfg = cfg if cfg is not None else OptimizerConfig()
    obj = _WeightedBounds(chan.q, spec.state_pmf, 0.0, 0.0, 1.0)
    value, pa, pb, rounds, converged, best, history = _maximize_weighted(obj, cfg, 0, threads)
    cap = np.log2(spec.size_y) + 1e-9
    if not -1e-9 <= value <= cap:
        raise InternalInvariantError(f"sum-rate value {value!r} outside [0, log2 |Y|]")
    return SumRateResult(
        value=max(value, 0.0),
        policy=TeamPolicy(pi_a=pa, pi_b=pb),
        iterations=rounds,
        converged=converged,
        best_restart=best,
        history=history,
    )


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    bars = np.array(
        list(itertools.combinations(range(total + parts - 1), parts - 1)), dtype=np.int64
    )
    padded = np.hstack([
        np.full((bars.shape[0], 1), -1, dtype=np.int64),
        bars,
        np.full((bars.shape[0], 1), total + parts - 1, dtype=np.int64),
    ])
    return np.diff(padded, axis=1) - 1


def _grid_points(dim: int, resolution: int) -> int:
    """Row count of _simplex_grid(dim, resolution), without building it."""
    return math.comb(resolution + dim - 1, dim - 1)


def _simplex_grid(dim: int, resolution: int) -> np.ndarray:
    return _compositions(resolution, dim) / float(resolution)


def _behavioral_grid(obs_size: int, input_size: int, resolution: int) -> np.ndarray:
    """Product over observation symbols of per-symbol input simplex grids."""
    base = _simplex_grid(input_size, resolution)       # (g, x)
    g = base.shape[0]
    idx = np.indices((g,) * obs_size).reshape(obs_size, -1).T   # (g**m, m)
    return base[idx]                                   # (g**m, m, x)


def _grid_max_deterministic(spec: FsMacSpec, resolution: int) -> float:
    # Exact fiber collapse: when every strategy-channel row is a point mass
    # the objective only depends on the per-symbol input marginals, and the
    # image of the strategy-simplex grid is the full product of per-symbol
    # grids (integer per-column marginals always lift to an integer table).
    beh_a = _behavioral_grid(spec.size_sa, spec.size_xa, resolution)
    beh_b = _behavioral_grid(spec.size_sb, spec.size_xb, resolution)
    mix_a = np.einsum("so,iox->isx", spec.obs_a, beh_a)     # (i, s, xa)
    mix_b = np.einsum("so,iox->isx", spec.obs_b, beh_b)
    t = np.einsum("jsz,sxzy->jsxy", mix_b, spec.channel)    # (j, s, xa, y)
    best = -np.inf
    chunk = max(1, int(2**22 // max(1, mix_a.shape[0] * spec.size_s * spec.size_y)))
    for j0 in range(0, t.shape[0], chunk):
        tj = t[j0:j0 + chunk]
        r = np.einsum("isx,jsxy->ijsy", mix_a, tj, optimize=True)
        values = np.einsum("s,ijs->ij", spec.state_pmf, entropy_rows(r))
        best = max(best, float(values.max()))
    return best


def _grid_max_generic(q: np.ndarray, state_pmf: np.ndarray, resolution: int) -> float:
    count_a, count_b = q.shape[1], q.shape[2]
    grid_a = _simplex_grid(count_a, resolution)
    grid_b = _simplex_grid(count_b, resolution)
    m = _WeightedBounds(q, state_pmf, 0.0, 0.0, 1.0).m
    best = -np.inf
    chunk = max(1, int(2**21 // max(1, grid_a.shape[0] * q.shape[0] * q.shape[3])))
    for j0 in range(0, grid_b.shape[0], chunk):
        gb = grid_b[j0:j0 + chunk]
        u = np.einsum("jb,saby->jsay", gb, q)
        r = np.einsum("ia,jsay->ijsy", grid_a, u, optimize=True)
        cond = np.einsum("s,ijs->ij", state_pmf, entropy_rows(r))
        values = cond - grid_a @ m @ gb.T
        best = max(best, float(values.max()))
    return best


def grid_oracle_sum_rate(spec: FsMacSpec, chan: StrategyChannel, resolution: int) -> float:
    """Exhaustive maximum of the sum bound over the product of simplex grids.

    Scans every pair of policies whose weights are multiples of 1/resolution.
    Deterministic strategy channels take an exact collapsed route through
    per-symbol behavioral marginals, which is the same scan with the fibers
    of equal objective value deduplicated; everything else is evaluated
    pairwise. Guards: at most 4 strategies, ORACLE_GRID_CAP grid points per
    sender and ORACLE_PAIR_CAP pairs, all checked before any grid is built.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if chan.space_a.count > 4 or chan.space_b.count > 4:
        raise GuardError(
            "grid oracle guard: strategy spaces "
            f"{chan.space_a.count} x {chan.space_b.count} exceed 4 per sender"
        )
    deterministic = bool(np.all(chan.q.max(axis=-1) == 1.0))
    if deterministic:
        points = (_grid_points(spec.size_xa, resolution) ** spec.size_sa,
                  _grid_points(spec.size_xb, resolution) ** spec.size_sb)
    else:
        points = (_grid_points(chan.space_a.count, resolution),
                  _grid_points(chan.space_b.count, resolution))
    if max(points) > ORACLE_GRID_CAP:
        raise GuardError(
            f"grid oracle guard: {points[0]} x {points[1]} grid points at resolution "
            f"{resolution} exceed {ORACLE_GRID_CAP} per sender"
        )
    if points[0] * points[1] > ORACLE_PAIR_CAP:
        raise GuardError(
            f"grid oracle pair guard: {points[0]} x {points[1]} policy pairs at "
            f"resolution {resolution} exceed {ORACLE_PAIR_CAP}"
        )
    if deterministic:
        return _grid_max_deterministic(spec, resolution)
    return _grid_max_generic(chan.q, spec.state_pmf, resolution)


def pentagon_support(pent: RatePentagon, direction) -> tuple:
    """Support value of a pentagon in a nonnegative direction, with argmax.

    The optimum sits at the corner (bound_a, bound_sum - bound_a) when the
    direction favors sender a at least as much as b, else at the mirrored
    corner; the two differ by (ca - cb) * (bound_a + bound_b - bound_sum).
    """
    ca, cb = (float(direction[0]), float(direction[1]))
    if ca < 0 or cb < 0 or ca + cb <= 0:
        raise ValueError(f"direction must be nonnegative and nonzero, got {direction!r}")
    if ca >= cb:
        point = (pent.bound_a, max(pent.bound_sum - pent.bound_a, 0.0))
    else:
        point = (max(pent.bound_sum - pent.bound_b, 0.0), pent.bound_b)
    return ca * point[0] + cb * point[1], point


def convex_hull_2d(points) -> np.ndarray:
    """Convex hull vertices, counterclockwise, collinear points dropped."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a nonempty (n, 2) array")
    uniq = np.unique(pts, axis=0)
    if uniq.shape[0] == 1:
        return uniq
    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out
    lower = chain(uniq)
    upper = chain(uniq[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _direction_weights(ca: float, cb: float) -> tuple:
    if ca >= cb:
        return ca - cb, 0.0, cb
    return 0.0, cb - ca, ca


def inner_bound_region(spec: FsMacSpec, chan: StrategyChannel,
                       cfg: OptimizerConfig | None = None, directions: int = 33,
                       threads: int = 1) -> RateRegion:
    """Trace the achievable region: maximize the pentagon support along
    directions spanning the first quadrant, hull the collected corners."""
    cfg = cfg if cfg is not None else OptimizerConfig()
    if directions < 2:
        raise ValueError(f"directions must be >= 2, got {directions}")
    if directions > DIRECTIONS_CAP:
        raise GuardError(f"region guard: {directions} directions exceed cap {DIRECTIONS_CAP}")
    thetas = np.linspace(0.0, np.pi / 2.0, directions)
    points = [(0.0, 0.0)]
    supports = []
    for k, theta in enumerate(thetas):
        if k == 0:
            ca, cb = 1.0, 0.0
        elif k == directions - 1:
            ca, cb = 0.0, 1.0
        else:
            ca, cb = float(np.cos(theta)), float(np.sin(theta))
        wa, wb, wc = _direction_weights(ca, cb)
        obj = _WeightedBounds(chan.q, spec.state_pmf, wa, wb, wc)
        _, pa, pb, _, _, _, _ = _maximize_weighted(obj, cfg, (k + 1) << 20, threads)
        policy = TeamPolicy(pi_a=pa, pi_b=pb)
        pent = pentagon(joint_law(spec, chan, policy))
        value, point = pentagon_support(pent, (ca, cb))
        points.append(point)
        supports.append(DirectionSupport(direction=(ca, cb), value=value,
                                         point=point, pentagon=pent, policy=policy))
        if k == 0:
            points.append((pent.bound_a, 0.0))
        if k == directions - 1:
            points.append((0.0, pent.bound_b))
    # near-rel_tol structure is optimizer noise, not geometry; snap it away
    snapped = np.maximum(np.round(np.array(points), 7), 0.0)
    vertices = convex_hull_2d(snapped)
    return RateRegion(vertices=vertices, supports=tuple(supports))
