"""Sum-rate maximization, achievable-region tracing, and their grid oracle.

Both jobs maximize J = wa*bound_a + wb*bound_b + wc*bound_sum over product
strategy policies: the sum rate is wc alone, a region direction mixes two of
the three pentagon bounds. With one sender's pmf held fixed, J is concave in
the other's (Shannon's strategy reduction: output entropies are concave, the
table-conditional entropy is linear). So the ascent alternates blocks:
_Objective.block builds that single-sender function once per block, and a
multiplicative-weights step with backtracking line search climbs it.

Neither the ascent nor the region builds the strategy channel q. They work
on q's factors, each sender's per-state input law and the transfer law, so a
block's laws and a probe cost O(S*(A*Xa + B*Xb)*Y) per row, the own-bound
pass included. A block stores its output law strategy-major, (rows, T, S*Y),
built in that layout where it is made, so the block's value and gradient are
each one stacked matrix-vector product per row. One law pass serves both: a
probe's evaluation keeps the log tables of its laws, and the gradient at an
accepted point reads them, so no gradient builds a law again. Only the
table-conditional entropy m needs strategy pairs: it
is (A, B), built once per objective, per state in chunks of a-rows. The
region and the converse's outer bound read a batch of product policies'
pentagons off the objective (_Objective.pentagons): J at the unit weights
(1, 0, 0), (0, 1, 0) and (0, 0, 1) is bound_a, bound_b and bound_sum. These,
the sum rate and the oracle's value pass rates.checked_rate; history stays raw.

All restarts climb together as rows of one array. A row is one (weights,
restart) pair: the sum rate's restarts, or every restart of every region
direction plus the sum rate's. Each row follows the single-restart path
exactly (its own start, steps, backtracks and stopping tests) and leaves the
batch when it stops; every probe evaluates all rows still searching. Rows
never mix: each product is taken row by row, so a row gives the same numbers
in any batch. Rows run in chunks of at most BATCH_CELL_BUDGET cells.

Every restart owns a private random stream and restarts merge by index, so
results do not depend on how rows are chunked. The ascent's work is counted
from sizes alone, before m or any row exists (check_ascent_work).

The grid oracle is the ascent's independent check and never calls it. As q
factors through each sender's input law given the state, H(Y | S=s) depends
on a policy pair only through the senders' marginals in state s: _grid_max
scores each distinct pair of marginals once per chunk of b-points and gathers
the pair scores. Its point sets are the strategy grids and, for deterministic
channels, the collapsed per-symbol grids. The scan is an exact branch and
bound: a b-point is gathered only if its bound, the sum over states of its
row's best score, beats the running maximum, and the result is the full
scan's, bit for bit (see _grid_max).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import GuardError, InternalInvariantError
from .model import FsMacSpec, StrategyChannel, check_channel
from .rates import (RatePentagon, TeamPolicy, checked_pentagon, checked_rate, entropy_rows,
                    log2_floor)
from .rng import ROLE_RESTART, stream

_LOG2E = 1.0 / np.log(2.0)
_EG_STEPS = 30
_BACKTRACKS = 40
_MONOTONE_SLACK = 1e-12
ORACLE_GRID_CAP = 1 << 16  # grid points per sender the oracle may scan
ORACLE_PAIR_CAP = 1 << 31  # policy pairs, which set the oracle's time
ORACLE_CELL_BUDGET = 1 << 21   # float64 cells one chunk of oracle b-points may hold
DIRECTIONS = 33   # region directions traced by default
DIRECTIONS_CAP = 1 << 12   # region directions, checked before any is allocated
BATCH_CELL_BUDGET = 1 << 22   # float64 cells one chunk of ascent rows may hold
MAX_ITERS = 500   # alternating rounds a restart may climb
RESTART_CAP = 1 << 20   # restarts per group; each region direction owns this many items
ASCENT_WORK_CAP = 1 << 35   # rows x (A*B + row cells) x MAX_ITERS, see check_ascent_work
REL_TOL = 1e-9    # a round or a step that gains less than this, relative, stops


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 16
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.restarts <= RESTART_CAP:
            raise ValueError(f"restarts must be in [1, 2**{RESTART_CAP.bit_length() - 1}], "
                             f"got {self.restarts}")


@dataclass(frozen=True)
class SumRateResult:
    value: float
    policy: TeamPolicy
    iterations: int
    converged: bool
    best_restart: int
    history: tuple  # objective after each alternating round of the best restart
    kkt_gaps: tuple  # (a, b): each sender's block-KKT gap at the policy, see _kkt_gaps


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
    outer_sum: SumRateResult | None = None   # maximize_sum_rate's answer, from the same batch

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=np.float64)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"vertices must be (k, 2), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise InternalInvariantError("rate region vertex is not finite")
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


@dataclass(frozen=True)
class _Sender:
    """One sender's factors of the strategy channel q."""

    mix: np.ndarray    # (S, T, X): the input law of each strategy in each state
    rows: np.ndarray   # (T, S*X): mix with the strategy axis first
    law: np.ndarray    # (S, X, X_other*Y): the transfer law with this sender's input first

    @classmethod
    def of(cls, mix: np.ndarray, law: np.ndarray) -> "_Sender":
        size_s, count, size_x = mix.shape
        rows = mix.transpose(1, 0, 2).reshape(count, size_s * size_x)
        return cls(mix, rows, law.reshape(size_s, size_x, -1))


def _law_given(x: np.ndarray, src: _Sender, dst: _Sender, strategy_major: bool = False):
    """sum_t x[r, t] * q[s, t, t', y] over src's strategies t: the output law
    given (s, dst's strategy t'), (rows, S, T', Y), or (rows, T', S*Y) when
    strategy_major. Three products, each taken row by row: x through src's
    mix, then the transfer law, then dst's mix. The last one writes straight
    into the strategy-major layout, so no copy re-lays the law out."""
    n, size_s = x.shape[0], src.mix.shape[0]
    letters = np.matmul(x[:, None, :], src.rows).reshape(n, size_s, 1, -1)
    per_input = np.matmul(letters, src.law).reshape(n, size_s, dst.mix.shape[2], -1)
    if not strategy_major:
        return np.matmul(dst.mix, per_input)
    law = np.empty((n, dst.mix.shape[1], size_s, per_input.shape[3]))
    np.matmul(dst.mix, per_input, out=law.transpose(0, 2, 1, 3))
    return law.reshape(n, dst.mix.shape[1], -1)


def _pull_back(c: np.ndarray, src: _Sender, dst: _Sender) -> np.ndarray:
    """The adjoint of _law_given: sum over (s, t', y) of q[s, t, t', y] * c[r, s, t', y],
    (rows, T), through the same three factors in reverse."""
    n, size_s = c.shape[:2]
    per_input = np.matmul(dst.mix.transpose(0, 2, 1), c).reshape(n, size_s, -1, 1)
    letters = np.matmul(src.law, per_input).reshape(n, -1, 1)
    return np.matmul(src.rows, letters)[:, :, 0]


@dataclass
class _Point:
    """A block evaluated at x, one row per block row: J's value and the log
    tables its gradient reads, log2_floor of the mixed law x @ u, (rows, S,
    Y), and of the own law, (own rows, S, T', Y), for the rows that owns
    marks alone, in row order. own_log is None exactly when owns marks no
    row, as it is for the block's evaluate. Only put changes a point."""

    x: np.ndarray
    value: np.ndarray
    log: np.ndarray
    own_log: np.ndarray | None
    owns: np.ndarray

    def take(self, rows: np.ndarray) -> "_Point":
        """The rows the mask rows marks, with their tables."""
        own_log = self.own_log
        if own_log is not None:
            own_rows = rows[self.owns]
            own_log = own_log[own_rows] if own_rows.any() else None
        return _Point(self.x[rows], self.value[rows], self.log[rows], own_log, self.owns[rows])

    def put(self, rows: np.ndarray, src: "_Point", src_rows: np.ndarray) -> None:
        """Write src's rows that the mask src_rows marks, tables and all,
        over the rows that the mask rows marks, in order; src is a point of
        this block or of a block taken from it."""
        self.x[rows], self.value[rows] = src.x[src_rows], src.value[src_rows]
        self.log[rows] = src.log[src_rows]
        if src.own_log is not None:
            self.own_log[rows[self.owns]] = src.own_log[src_rows[src.owns]]


class _Block:
    """One sender's block of J for a batch of rows, each with its own weights
    and the other sender's pmf held fixed: J(x) = x @ lin + wc * H(Y|S) +
    w_own * H(Y|T_other,S). Row r's u is the output law given (s, own table)
    mixed over the other sender, stored strategy-major as (rows, T, S*Y); lin
    holds J's two terms linear in x, and H(Y|S) depends on x @ u only. So
    evaluate's x @ u and grad's u @ (p * log-law) are each one stacked
    matrix-vector product per row, and a row's numbers do not depend on which
    rows share its batch. evaluate builds each law and its log once; grad
    reads the logs off that evaluation."""

    def __init__(self, own_sender, other_sender, p, u, lin, other, w_own, wc):
        self.own_sender, self.other_sender = own_sender, other_sender
        self.p, self.u, self.lin, self.other = p, u, lin, other
        self.w_own, self.wc = w_own, wc
        # only the rows whose own bound carries weight pay the own-bound pass
        self.owns = w_own != 0
        own_rows = np.flatnonzero(self.owns)
        self.any_own = own_rows.size > 0
        self.own = slice(None) if own_rows.size == w_own.size else own_rows
        self.own_other, self.own_weight = other[self.own], w_own[self.own]

    def take(self, rows: np.ndarray) -> "_Block":
        return _Block(self.own_sender, self.other_sender, self.p, self.u[rows], self.lin[rows],
                      self.other[rows], self.w_own[rows], self.wc[rows])

    def evaluate(self, x: np.ndarray) -> _Point:
        """J at x with the log tables grad reads. The mixed law x @ u, the
        output law given s, (rows, S, Y), and for the own rows the output
        law given (s, the other's table), own pmf mixed in, are each built
        once, with their logs."""
        n = x.shape[0]
        mixed = np.matmul(x[:, None, :], self.u).reshape(n, self.p.size, -1)
        log = log2_floor(mixed)
        # a few (S, Y) rows per probe: one .sum call beats Y column adds
        h = -np.multiply(mixed, log, out=mixed).sum(axis=-1)
        value = np.matmul(x[:, None, :], self.lin[:, :, None])[:, 0, 0]
        value += self.wc * np.matmul(self.p, h[:, :, None])[:, 0]
        own_log = None
        if self.any_own:
            law = _law_given(x[self.own], self.own_sender, self.other_sender)
            own_log = log2_floor(law)
            h = np.matmul(np.matmul(self.p, entropy_rows(law, own_log))[:, None, :],
                          self.own_other[:, :, None])
            value[self.own] += self.own_weight * h[:, 0, 0]
        return _Point(x, value, log, own_log, self.owns)

    def grad(self, point: _Point) -> np.ndarray:
        """J's gradient at point, an evaluation of this block."""
        lr = -point.log - _LOG2E
        lr *= self.p[:, None]
        grad = self.lin + self.wc[:, None] * np.matmul(
            self.u, lr.reshape(lr.shape[0], -1, 1))[:, :, 0]
        if self.any_own:
            lv = -point.own_log - _LOG2E
            lv *= self.p[:, None, None] * self.own_other[:, None, :, None]
            grad[self.own] += self.own_weight[:, None] * _pull_back(
                lv, self.own_sender, self.other_sender)
        return grad


def _row_cells(shape: tuple) -> int:
    """Cells one row is budgeted on a channel of shape (S, A, B, Y):
    4*S*Y*(A+B), plus its objective history. A block of T own strategies,
    the other sender's T', holds u (T*S*Y) and up to two row-subset copies
    of it, the compacted rows' and a backtrack's. The accepted point and a
    probe's candidate each carry their log tables, the mixed law's (S*Y)
    and, on an own-weighted row, the own law's (S*T'*Y), and a probe's own
    law and its log add two more while it is evaluated: about 3*T + 4*T'
    columns of S*Y cells, beside O(T) pmfs and gradients."""
    s, a, b, y = shape
    return 4 * s * y * (a + b) + 2 * (MAX_ITERS + 1)


def check_ascent_work(chan: StrategyChannel, rows: int) -> None:
    """Refuse an ascent of rows rows before m or any row exists. Each round
    builds every row's blocks, O(A*B) for m @ other plus the row's cells, so
    rows x (A*B + row cells) x MAX_ITERS bounds the work; it may be at most
    ASCENT_WORK_CAP."""
    shape = (*chan.mix_a.shape[:2], chan.mix_b.shape[1], chan.spec.size_y)
    per_row = shape[1] * shape[2] + _row_cells(shape)
    work = rows * per_row * MAX_ITERS
    if work > ASCENT_WORK_CAP:
        raise GuardError(
            f"ascent work guard: {rows} rows x {per_row} cells x {MAX_ITERS} rounds = "
            f"{work} exceed cap {ASCENT_WORK_CAP}"
        )


class _Objective:
    """J = wa*bound_a + wb*bound_b + wc*bound_sum on a fixed channel, for
    rows that each carry their own weights (wa, wb, wc). Works on the
    channel's factors; only m, the table-conditional entropy of every
    strategy pair, is (A, B)."""

    def __init__(self, chan: StrategyChannel):
        mix_a, mix_b, w, state_pmf = chan.mix_a, chan.mix_b, chan.spec.channel, chan.spec.state_pmf
        (size_s, count_a, _), (_, count_b, size_xb), size_y = mix_a.shape, mix_b.shape, w.shape[3]
        self.p, self.shape = state_pmf, (size_s, count_a, count_b, size_y)
        # m[a, b] = sum_s p_s H(q[s, a, b, :]), per state in chunks of a-rows;
        # an a-row holds its output law, entropy_rows' temporaries and its letter law
        m = np.zeros((count_a, count_b))
        chunk = max(1, BATCH_CELL_BUDGET // (4 * count_b * size_y + size_xb * size_y))
        for s in range(size_s):
            for a0 in range(0, count_a, chunk):
                law = mix_b[s] @ np.einsum("tx,xzy->tzy", mix_a[s, a0:a0 + chunk], w[s])
                m[a0:a0 + chunk] += state_pmf[s] * entropy_rows(law)
        sender_a = _Sender.of(mix_a, w)
        sender_b = _Sender.of(mix_b, w.transpose(0, 2, 1, 3))
        # per sender: its factors, the other's, m with its own axis first,
        # its own and the other's weight column
        self._sides = ((sender_a, sender_b, m, 0, 1), (sender_b, sender_a, m.T, 1, 0))

    def block(self, own: int, weights: np.ndarray, other: np.ndarray) -> _Block:
        """J as a function of sender own's pmf (0 for a, 1 for b), row r
        weighted by weights[r] with the other sender's pmf other[r] fixed."""
        own_sender, other_sender, m, i_own, i_other = self._sides[own]
        w_own, w_other, wc = weights[:, i_own], weights[:, i_other], weights[:, 2]
        u = _law_given(other, other_sender, own_sender, strategy_major=True)
        wsum = w_own + w_other + wc
        lin = (-wsum[:, None] * np.matmul(m, other[:, :, None])[:, :, 0]
               + w_other[:, None] * np.matmul(
                   entropy_rows(u.reshape(*u.shape[:2], self.p.size, -1)), self.p))
        return _Block(own_sender, other_sender, self.p, u, lin, other, w_own, wc)

    def pentagons(self, pi_a: np.ndarray, pi_b: np.ndarray) -> list:
        """The checked pentagons of k product policies (k, A) and (k, B): policy i is rows a,
        b and sum of a block at the unit weights, at most BATCH_CELL_BUDGET // _row_cells rows
        or one policy's three per chunk. Rows never mix, so each has the bits it has alone."""
        step = max(1, BATCH_CELL_BUDGET // _row_cells(self.shape) // 3)
        pents = []
        for i in range(0, len(pi_a), step):
            pa, pb = (np.repeat(pi[i:i + step], 3, axis=0) for pi in (pi_a, pi_b))
            values = self.block(0, np.tile(np.eye(3), (len(pa) // 3, 1)), pb).evaluate(pa).value
            pents += [checked_pentagon(*row, self.shape[3]) for row in values.reshape(-1, 3)]
        return pents


def _probe(f: _Block, x: np.ndarray, z: np.ndarray, step: float) -> _Point:
    """f's evaluation at the candidate x * exp(step * z) of every row,
    renormalized; a row whose candidate vanished reads -inf."""
    cand = x * np.exp(step * z)
    total = cand.sum(axis=1)
    ok = (total > 0) & np.isfinite(total)
    cand /= np.where(ok, total, 1.0)[:, None]
    point = f.evaluate(cand)
    point.value[~ok] = -np.inf
    return point


def _line_search(f: _Block, point: _Point, z: np.ndarray):
    """Halve each row's step from 1 until its objective rises, at most
    _BACKTRACKS tries; returns (the new point, moved). A row that moved
    holds the candidate it rose at, with that probe's tables; an unmoved
    row holds point's."""
    cand = _probe(f, point.x, z, 1.0)
    moved = cand.value > point.value
    if moved.all():
        return cand, moved
    cand.put(~moved, point, ~moved)
    pend, step = ~moved, 1.0
    for _ in range(_BACKTRACKS - 1):
        step *= 0.5
        trial = _probe(f.take(pend), point.x[pend], z[pend], step)
        rose = trial.value > point.value[pend]
        hit = np.zeros_like(pend)
        hit[pend] = rose
        cand.put(hit, trial, rose)
        moved |= hit
        pend &= ~hit
        if not pend.any():
            break
    return cand, moved


def _ascend(f: _Block, point: _Point, tol: float):
    """Climb every row of one block to local stationarity by exponentiated
    gradient with backtracking, from point, f's evaluation at the start;
    returns the new (x, value). Each row steps and stops on its own tests; a
    row no step improves stops where it is. A row that keeps stepping has
    moved, so each gradient reads the tables of the probe that moved it."""
    x_out, value_out = point.x.copy(), point.value.copy()
    live = np.arange(x_out.shape[0])   # rows still stepping; f and point hold exactly these
    for _ in range(_EG_STEPS):
        grad = f.grad(point)
        new, moved = _line_search(f, point, grad - grad.max(axis=1, keepdims=True))
        go = moved & (new.value - point.value > tol * np.maximum(1.0, np.abs(new.value)))
        point = new
        if not go.all():
            x_out[live], value_out[live] = point.x, point.value
            if not go.any():
                return x_out, value_out
            live, point, f = live[go], point.take(go), f.take(go)
    x_out[live], value_out[live] = point.x, point.value
    return x_out, value_out


def _climb(obj: _Objective, cfg: OptimizerConfig, weights: np.ndarray, items: np.ndarray):
    """Alternate the two blocks for one chunk of rows until each converges or
    runs out of rounds; row r starts from the stream of items[r]. Returns per
    row (value, pa, pb, rounds, converged) and its objective history, row r's
    start and its value after each of its rounds[r] rounds."""
    n, (count_a, count_b) = items.size, obj.shape[1:3]
    pa, pb = np.empty((n, count_a)), np.empty((n, count_b))
    ones_a, ones_b = np.ones(count_a), np.ones(count_b)
    for r, item in enumerate(items.tolist()):
        rng = stream(cfg.seed, item, ROLE_RESTART)
        pa[r], pb[r] = rng.dirichlet(ones_a), rng.dirichlet(ones_b)
    value_out, pa_out, pb_out = np.empty(n), np.empty_like(pa), np.empty_like(pb)
    rounds, converged = np.full(n, MAX_ITERS), np.zeros(n, dtype=bool)
    live = np.arange(n)
    blk = obj.block(0, weights, pb)
    start = blk.evaluate(pa)
    value = start.value
    # column-major, so a round writes one run of cells and unrun rounds touch no pages
    history = np.empty((n, MAX_ITERS + 1), order="F")
    history[:, 0] = value
    for k in range(1, MAX_ITERS + 1):
        pa, _ = _ascend(blk, start, REL_TOL)
        del start   # its own-law log is not held through the other block's ascent
        blk = obj.block(1, weights, pa)
        pb, new = _ascend(blk, blk.evaluate(pb), REL_TOL)
        fell = np.flatnonzero(new < value - _MONOTONE_SLACK * np.maximum(1.0, np.abs(value)))
        if fell.size:
            i = fell[0]
            raise InternalInvariantError(
                f"objective decreased from {float(value[i])!r} to {float(new[i])!r} during ascent"
            )
        history[live, k] = new
        done = new - value <= REL_TOL * np.maximum(1.0, np.abs(new))
        value = new
        stop = done | (k == MAX_ITERS)
        if stop.any():
            rows = live[stop]
            value_out[rows], pa_out[rows], pb_out[rows] = value[stop], pa[stop], pb[stop]
            rounds[rows], converged[rows] = k, done[stop]
            keep = ~stop
            if not keep.any():
                break
            live, pa, pb, weights, value = live[keep], pa[keep], pb[keep], weights[keep], value[keep]
        blk = obj.block(0, weights, pb)
        start = blk.evaluate(pa)
    return value_out, pa_out, pb_out, rounds, converged, history


def _maximize(obj: _Objective, cfg: OptimizerConfig, groups: list) -> list:
    """Multi-start ascent for every group at once. A group is (weights,
    first item) and owns the restarts first .. first + restarts - 1; its rows
    run in (group, restart) order, in chunks of at most BATCH_CELL_BUDGET
    cells. Returns per group the best restart (highest value, then lowest
    index) as (value, pa, pb, rounds, converged, restart, history)."""
    weights = np.array([w for w, _ in groups], dtype=np.float64)
    firsts = np.array([first for _, first in groups], dtype=np.int64)
    chunk = max(1, BATCH_CELL_BUDGET // _row_cells(obj.shape))
    total = len(groups) * cfg.restarts
    best = [None] * len(groups)
    for r0 in range(0, total, chunk):
        grp, rst = np.divmod(np.arange(r0, min(r0 + chunk, total)), cfg.restarts)
        value, pa, pb, rounds, converged, history = _climb(obj, cfg, weights[grp],
                                                           firsts[grp] + rst)
        bounds = np.flatnonzero(np.diff(grp)) + 1
        for lo, hi in zip([0, *bounds.tolist()], [*bounds.tolist(), grp.size]):
            i = lo + int(np.argmax(value[lo:hi]))
            g = int(grp[i])
            if best[g] is None or value[i] > best[g][0]:
                best[g] = (float(value[i]), pa[i].copy(), pb[i].copy(), int(rounds[i]),
                           bool(converged[i]), int(rst[i]),
                           tuple(history[i, :rounds[i] + 1].tolist()))
    return best


_SUM_RATE = ((0.0, 0.0, 1.0), 0)   # the sum rate's group: weights and first item


def _kkt_gaps(obj: _Objective, pa: np.ndarray, pb: np.ndarray) -> tuple:
    """Each sender's block-KKT gap of the sum rate at (pa, pb): max_i g_i -
    pi . g, g the block's gradient at pi with the other sender fixed. J is
    concave in the block, so the gap bounds what a best response to the other
    sender could still gain; it is zero at a block optimum, up to rounding."""
    w = np.array([_SUM_RATE[0]])
    gaps = []
    for own, x, other in ((0, pa, pb), (1, pb, pa)):
        blk = obj.block(own, w, other[None])
        g = blk.grad(blk.evaluate(x[None]))[0]
        gaps.append(max(0.0, float(g.max() - x @ g)))   # never -0.0
    return tuple(gaps)


def _sum_rate_result(obj: _Objective, best: tuple) -> SumRateResult:
    value, pa, pb, rounds, converged, restart, history = best
    return SumRateResult(
        value=checked_rate(value, obj.shape[3], "sum rate"),
        policy=TeamPolicy(pi_a=pa, pi_b=pb),
        iterations=rounds,
        converged=converged,
        best_restart=restart,
        history=history,
        kkt_gaps=_kkt_gaps(obj, pa, pb),
    )


def maximize_sum_rate(spec: FsMacSpec, chan: StrategyChannel,
                      cfg: OptimizerConfig | None = None) -> SumRateResult:
    """Best sum bound over product strategy policies (multi-start ascent)."""
    check_channel(spec, chan)
    cfg = cfg if cfg is not None else OptimizerConfig()
    check_ascent_work(chan, cfg.restarts)
    obj = _Objective(chan)
    (best,) = _maximize(obj, cfg, [_SUM_RATE])
    return _sum_rate_result(obj, best)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length summing to total."""
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


def _grid_max(spec: FsMacSpec, beh_a: np.ndarray, beh_b: np.ndarray, cost=None) -> float:
    """Max over point pairs (i, j) of sum_s p_s * H(Y | S=s), less cost[0][i] @ cost[1][j].

    beh[i] is a point's per-symbol input law. H(Y | S=s) depends on a pair only
    through each sender's input marginal in state s, so per state each point is
    keyed to its distinct marginal. Each chunk of b-points (at most
    ORACLE_CELL_BUDGET cells) scores the keys it holds with one matmul into a
    (b key x a key) table per state; no full (a keys x b keys) table is ever built.

    The scan then gathers only the b-points that can beat the running maximum
    (branch and bound). A b-point's bound is the sum over states of its
    table row's maximum, added in the gather's own order. Rounding is
    monotone, so no pair of that b-point sums above the bound, and the cost,
    which is >= 0, only lowers a pair's value. A b-point whose bound does not
    exceed the running maximum holds no pair that would raise it, so skipping
    it leaves the maximum unchanged, bit for bit.
    """
    # per sender, per state: the distinct marginals and each point's key
    keys = [[np.unique(mix[:, s], axis=0, return_inverse=True) for s in range(spec.size_s)]
            for mix in (np.einsum("so,iox->isx", spec.obs_a, beh_a),
                        np.einsum("so,iox->isx", spec.obs_b, beh_b))]
    widest = max(u.shape[0] for u, _ in keys[0])
    # per b-point: the values and their gathers over a-points, the output law
    # over a keys, and every state's table row, all kept until the gather
    chunk = max(1, ORACLE_CELL_BUDGET // (4 * (beh_a.shape[0] + widest * (spec.size_y + 1))
                                          + spec.size_s * widest))
    best = -np.inf
    buf = np.empty((min(chunk, beh_b.shape[0]), beh_a.shape[0]))   # (b, a), one per call
    for j0 in range(0, beh_b.shape[0], chunk):
        tables, bound = [], 0.0   # the bound adds its states as the gather does below
        for s, ((ua, _), (ub, kb)) in enumerate(zip(*keys)):
            present, local = np.unique(kb[j0:j0 + chunk], return_inverse=True)
            t = np.einsum("jz,xzy->xyj", ub[present], spec.channel[s])
            r = (ua @ t.reshape(ua.shape[1], -1)).reshape(ua.shape[0], -1, present.size)
            table = spec.state_pmf[s] * entropy_rows(r.transpose(2, 0, 1))   # (b key, a key)
            tables.append((table, local))
            bound += table.max(axis=1)[local]
        rows = np.flatnonzero(bound > best)
        if not rows.size:
            continue
        values = buf[:rows.size]
        for s, ((table, local), (_, ka)) in enumerate(zip(tables, keys[0])):
            if s:
                values += table[local[rows]].take(ka, axis=1)
            else:   # written, not added to zeros; adding 0.0 still turns -0.0 into 0.0
                (table[local[rows]] + 0.0).take(ka, axis=1, out=values)
        if cost is not None:
            values -= cost[1][j0 + rows] @ cost[0].T
        best = max(best, float(values.max()))
    return best


def check_grid_oracle(spec: FsMacSpec, chan: StrategyChannel, resolution: int) -> bool:
    """Refuse a grid-oracle scan before anything of its size exists: resolution
    below 1, more than 4 strategies per sender, over ORACLE_GRID_CAP grid
    points per sender or over ORACLE_PAIR_CAP pairs. Returns whether the
    strategy channel is deterministic, which picks the scan's point set."""
    check_channel(spec, chan)
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
    return deterministic


def grid_oracle_sum_rate(spec: FsMacSpec, chan: StrategyChannel, resolution: int) -> float:
    """Exhaustive maximum of the sum bound over the product of simplex grids.

    Scans every pair of policies whose weights are multiples of 1/resolution
    through one evaluator, _grid_max. Generic channels map the strategy grid to
    per-symbol behaviors and subtract the table-conditional entropy.
    Deterministic strategy channels have no such term and scan the product of
    per-symbol grids instead: the strategy grid's exact image, its fibers of
    equal value collapsed. check_grid_oracle's guards run before any grid is built.
    """
    if check_grid_oracle(spec, chan, resolution):
        value = _grid_max(spec, _behavioral_grid(spec.size_sa, spec.size_xa, resolution),
                          _behavioral_grid(spec.size_sb, spec.size_xb, resolution))
    else:
        grid_a = _simplex_grid(chan.space_a.count, resolution)
        grid_b = _simplex_grid(chan.space_b.count, resolution)
        m = np.einsum("s,sab->ab", spec.state_pmf, entropy_rows(chan.q))
        value = _grid_max(spec, np.einsum("ia,aox->iox", grid_a, chan.space_a.one_hot()),
                          np.einsum("ib,box->iox", grid_b, chan.space_b.one_hot()),
                          (grid_a @ m, grid_b))
    return checked_rate(value, spec.size_y, "grid-oracle sum rate")


def pentagon_support(pent: RatePentagon, direction) -> tuple:
    """Support value of a pentagon in a nonnegative direction, with argmax.

    The optimum sits at the corner (bound_a, bound_sum - bound_a) when the
    direction favors sender a at least as much as b, else at the mirrored
    corner; the two differ by (ca - cb) * (bound_a + bound_b - bound_sum).
    """
    ca, cb = (float(direction[0]), float(direction[1]))
    if not (0 <= ca < math.inf and 0 <= cb < math.inf and ca + cb > 0):
        raise ValueError(f"direction must be finite, nonnegative and nonzero, got {direction!r}")
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
                       cfg: OptimizerConfig | None = None,
                       directions: int = DIRECTIONS) -> RateRegion:
    """Trace the achievable region: maximize the pentagon support along
    directions spanning the first quadrant, hull the collected corners. The
    sum rate's restarts climb in the same batch and give outer_sum."""
    check_channel(spec, chan)
    cfg = cfg if cfg is not None else OptimizerConfig()
    if directions < 2:
        raise ValueError(f"directions must be >= 2, got {directions}")
    if directions > DIRECTIONS_CAP:
        raise GuardError(f"region guard: {directions} directions exceed cap {DIRECTIONS_CAP}")
    thetas = np.linspace(0.0, np.pi / 2.0, directions)
    dirs = [(1.0, 0.0), *((float(np.cos(t)), float(np.sin(t))) for t in thetas[1:-1]), (0.0, 1.0)]
    groups = [(_direction_weights(ca, cb), (k + 1) * RESTART_CAP)
              for k, (ca, cb) in enumerate(dirs)]
    check_ascent_work(chan, (len(groups) + 1) * cfg.restarts)
    obj = _Objective(chan)
    *bests, outer = _maximize(obj, cfg, groups + [_SUM_RATE])
    pa, pb = (np.array([best[i] for best in bests]) for i in (1, 2))
    supports = []
    for direction, a, b, pent in zip(dirs, pa, pb, obj.pentagons(pa, pb)):
        value, point = pentagon_support(pent, direction)
        supports.append(DirectionSupport(direction=direction, value=value, point=point,
                                         pentagon=pent, policy=TeamPolicy(pi_a=a, pi_b=b)))
    points = [(0.0, 0.0), *(sup.point for sup in supports),
              (supports[0].pentagon.bound_a, 0.0), (0.0, supports[-1].pentagon.bound_b)]
    # near-REL_TOL structure is optimizer noise, not geometry; snap it away
    snapped = np.maximum(np.round(np.array(points), 7), 0.0)
    vertices = convex_hull_2d(snapped)
    return RateRegion(vertices=vertices, supports=tuple(supports),
                      outer_sum=_sum_rate_result(obj, outer))
