import json
import math
import tracemalloc

import numpy as np
import pytest

from conftest import dirichlet_rows, random_spec
from fsmac import examples
from fsmac.errors import InternalInvariantError, ValidationError
from fsmac.model import PMF_ATOL, FsMacSpec, check_pmf, induced_strategy_channel, pmf_refused
from fsmac.rates import (
    JointLaw,
    RatePentagon,
    TeamPolicy,
    checked_pentagon,
    checked_rate,
    conditional_mutual_information,
    entropy_rows,
    joint_law,
    load_policy,
    log2_floor,
    pentagon,
)

ORACLE_ATOL = 1e-12


def oracle_joint_law(spec, pol):
    """Independent route: six nested loops straight from the model pieces."""
    na, nb = len(pol.pi_a), len(pol.pi_b)
    sp_a_tables = []
    sp_b_tables = []
    # rebuild the table convention by little-endian digit extraction
    for sid in range(na):
        digits, v = [], sid
        for _ in range(spec.size_sa):
            digits.append(v % spec.size_xa)
            v //= spec.size_xa
        sp_a_tables.append(digits)
    for sid in range(nb):
        digits, v = [], sid
        for _ in range(spec.size_sb):
            digits.append(v % spec.size_xb)
            v //= spec.size_xb
        sp_b_tables.append(digits)

    p = np.zeros((spec.size_s, na, nb, spec.size_y))
    for s in range(spec.size_s):
        for ta in range(na):
            for tb in range(nb):
                for oa in range(spec.size_sa):
                    for ob in range(spec.size_sb):
                        xa = sp_a_tables[ta][oa]
                        xb = sp_b_tables[tb][ob]
                        for y in range(spec.size_y):
                            p[s, ta, tb, y] += (
                                spec.state_pmf[s] * pol.pi_a[ta] * pol.pi_b[tb]
                                * spec.obs_a[s, oa] * spec.obs_b[s, ob]
                                * spec.channel[s, xa, xb, y]
                            )
    return p


def uniform_policy(chan):
    return TeamPolicy(pi_a=np.full(chan.space_a.count, 1.0 / chan.space_a.count),
                      pi_b=np.full(chan.space_b.count, 1.0 / chan.space_b.count))


def test_entropy_frozen_values():
    assert entropy_rows(np.array([0.25, 0.25, 0.25, 0.25])) == 2.0
    assert entropy_rows(np.array([1.0, 0.0, 0.0])) == 0.0
    v = entropy_rows(np.array([0.25, 0.75]))
    assert abs(v - 0.8112781244591328) < ORACLE_ATOL
    assert abs(v - 0.8112781245) < 1e-9
    # independent oracle via math.log2
    assert abs(v + 0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)) < 1e-15


def _summed_entropy(p):
    """entropy_rows' one-reduction form: numpy's sum over the last axis."""
    return -(p * log2_floor(p)).sum(axis=-1)


def _entropy_rows_of(rng, rows, width):
    """Rows of every kind the callers pass: random laws, point masses, rows
    of zeros (whose cells sum to -0.0 terms) and rows with a 5e-324 cell."""
    p = rng.dirichlet(np.ones(width), size=rows) * rng.choice([1.0, 1e-200], size=(rows, 1))
    p[::7] = np.eye(width)[rng.integers(0, width, size=p[::7].shape[0])]
    p[1::7] = 0.0
    p[2::7, 0] = 5e-324
    return p


def test_entropy_rows_sums_short_rows_by_columns_with_the_sums_bits(rng):
    for width in range(1, 8):
        p = _entropy_rows_of(rng, 700, width)
        assert entropy_rows(p).tobytes() == _summed_entropy(p).tobytes(), width
        # a log already held gives the same bits
        assert entropy_rows(p, log2_floor(p)).tobytes() == _summed_entropy(p).tobytes()
        # an all-zero row sums to +0.0, as .sum's does, so its entropy is -0.0
        assert np.signbit(entropy_rows(np.zeros((1, width))))[0]
        # the grid oracle's input: a transposed (a key, Y, b key) table
        table = p.reshape(70, 10, width).transpose(0, 2, 1).copy()
        r = table.transpose(2, 0, 1)
        assert not r.flags.c_contiguous
        assert entropy_rows(r).tobytes() == _summed_entropy(r).tobytes(), width
        # and the objective's stacked laws, (rows, S, T, Y)
        law = p.reshape(5, 2, 70, width)
        assert entropy_rows(law).tobytes() == _summed_entropy(law).tobytes(), width


def test_entropy_rows_keeps_the_pairwise_sum_from_eight_cells(rng):
    for width in (8, 16):
        p = _entropy_rows_of(rng, 700, width)
        assert entropy_rows(p).tobytes() == _summed_entropy(p).tobytes(), width
        # adding the columns left to right would move bits here: numpy's sum
        # is pairwise from 8 cells on
        terms = p * log2_floor(p)
        columns = terms[:, 0] + 0.0
        for k in range(1, width):
            columns += terms[:, k]
        assert (-columns).tobytes() != entropy_rows(p).tobytes(), width


def test_joint_law_against_six_fold_oracle(rng):
    for _ in range(4):
        spec = random_spec(rng)
        chan = induced_strategy_channel(spec)
        pi_a = dirichlet_rows(rng, (chan.space_a.count,))
        pi_b = dirichlet_rows(rng, (chan.space_b.count,))
        pol = TeamPolicy(pi_a=pi_a, pi_b=pi_b)
        law = joint_law(spec, chan, pol)
        np.testing.assert_allclose(law.p, oracle_joint_law(spec, pol), atol=ORACLE_ATOL)
        assert abs(law.p.sum() - 1.0) < 1e-9


def test_joint_law_is_the_four_operand_einsum_bit_for_bit(rng):
    # the weights p_s * pi_a * pi_b are multiplied in the einsum's own order,
    # then into q, so every cell keeps its bits, tiny policy weights included
    for k in range(12):
        spec = random_spec(rng)
        chan = induced_strategy_channel(spec)
        pi_a = dirichlet_rows(rng, (chan.space_a.count,))
        pi_b = dirichlet_rows(rng, (chan.space_b.count,))
        if k % 3 == 0:
            pi_a[0], pi_b[-1] = 1e-300, 1e-200
        pol = TeamPolicy(pi_a=pi_a / pi_a.sum(), pi_b=pi_b / pi_b.sum())
        einsum = np.einsum("s,a,b,saby->saby", spec.state_pmf, pol.pi_a, pol.pi_b, chan.q)
        law = joint_law(spec, chan, pol).p
        assert law.shape == einsum.shape and law.tobytes() == einsum.tobytes(), k


def test_joint_law_holds_no_einsum_operand_buffers(rng):
    # 32 strategies per sender, S = 2 and Y = 4: q is 8192 cells (64 kB).
    # The four-operand einsum's buffers (about 190 kB at any size of q) took
    # its peak to about 4 q here; the law, its (S, A, B) weights and the
    # multiply's own buffer stay under 2.5 q
    s, sa, sb, y = 2, 5, 5, 4
    spec = FsMacSpec(size_xa=2, size_xb=2, size_s=s, size_sa=sa, size_sb=sb, size_y=y,
                     state_pmf=dirichlet_rows(rng, (s,)), obs_a=dirichlet_rows(rng, (s, sa)),
                     obs_b=dirichlet_rows(rng, (s, sb)),
                     channel=dirichlet_rows(rng, (s, 2, 2, y)))
    chan = induced_strategy_channel(spec)
    q = chan.q   # built before tracing starts
    assert q.shape == (2, 32, 32, 4)
    pol = TeamPolicy(pi_a=dirichlet_rows(rng, (32,)), pi_b=dirichlet_rows(rng, (32,)))
    tracemalloc.start()
    try:
        law = joint_law(spec, chan, pol)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert law.p.shape == q.shape
    assert peak < 2.5 * q.nbytes, peak / q.nbytes


def test_joint_law_point_mass_support():
    spec = examples.load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    pi_a = np.zeros(4)
    pi_a[2] = 1.0
    pi_b = np.zeros(4)
    pi_b[3] = 1.0
    law = joint_law(spec, chan, TeamPolicy(pi_a=pi_a, pi_b=pi_b))
    mass_on_pair = law.p[:, 2, 3, :].sum()
    assert abs(mass_on_pair - 1.0) < 1e-12


def test_joint_law_shape_mismatch():
    spec = examples.load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    with pytest.raises(ValidationError, match="pi_a"):
        joint_law(spec, chan, TeamPolicy(pi_a=[0.5, 0.5], pi_b=np.full(4, 0.25)))


def test_cmi_zero_under_independence(rng):
    # make y independent of everything by using identical channel rows
    spec = random_spec(rng, sizes={"xa": 2, "xb": 2, "s": 2, "sa": 2, "sb": 2, "y": 3})
    row = dirichlet_rows(rng, (3,))
    chan_arr = np.broadcast_to(row, (2, 2, 2, 3)).copy()
    from conftest import spec_with
    spec = spec_with(spec, channel=chan_arr)
    chan = induced_strategy_channel(spec)
    pol = uniform_policy(chan)
    law = joint_law(spec, chan, pol)
    for x, z in [("ta", ("tb", "s")), (("ta", "tb"), ("s",)), ("tb", ())]:
        assert conditional_mutual_information(law, x=x, y="y", z=z) <= 1e-12


def test_cmi_group_validation():
    law = JointLaw(p=np.full((2, 2, 2, 2), 1 / 16))
    with pytest.raises(ValueError, match="disjoint"):
        conditional_mutual_information(law, x="ta", y="ta")
    with pytest.raises(ValueError, match="nonempty"):
        conditional_mutual_information(law, x=(), y="y")


def test_joint_law_refuses_non_finite_entries():
    # NaN compares False with everything, so the mass check alone let these
    # through: all-NaN then read as a (0, 0, 0) pentagon, and [0.5, nan] broke
    # an invariant inside pentagon
    with pytest.raises(ValidationError, match=r"joint law: entry \(0, 0, 0, 0\) is not finite"):
        JointLaw(p=np.full((1, 1, 1, 2), np.nan))
    with pytest.raises(ValidationError, match=r"joint law: entry \(0, 0, 0, 1\) is not finite"):
        JointLaw(p=np.array([0.5, np.nan]).reshape(1, 1, 1, 2))
    with pytest.raises(ValidationError, match=r"joint law: entry \(0, 0, 0, 1\) is negative"):
        JointLaw(p=np.array([1.5, -0.5]).reshape(1, 1, 1, 2))


def test_joint_law_mass_message_prints_a_plain_float():
    with pytest.raises(ValidationError) as refused:
        JointLaw(p=np.full((1, 2, 2, 2), 0.2))
    assert str(refused.value) == "joint law: total mass 1.6, expected 1 within 1e-09"


def _edge_sums() -> list:
    """The sums at the edges of the pmf rule, each admitted, and the float one
    ulp beyond each, refused."""
    edges = []
    for side in (1.0, -1.0):
        s = 1.0 + side * PMF_ATOL
        while abs(s - 1.0) > PMF_ATOL:   # step in until the rule admits it
            s = np.nextafter(s, 1.0)
        while abs(np.nextafter(s, side * np.inf) - 1.0) <= PMF_ATOL:
            s = np.nextafter(s, side * np.inf)
        edges += [s, np.nextafter(s, side * np.inf)]
    return edges


def _pmf_cases(cells: int) -> list:
    """Rows of cells entries: a uniform row, then one per case of the pmf
    rule: non-finite entries, -0.0 and a negative subnormal, a sum that
    overflows, sums at 1 +- PMF_ATOL and one ulp beyond, an all-zero row."""
    uniform = np.full(cells, 1.0 / cells)
    cases = []
    for first in (np.nan, np.inf, -np.inf, -0.0, -5e-324):
        row = uniform.copy()
        row[0], row[1] = first, row[1] + row[0]
        cases.append(row)
    cases.append(np.r_[1e308, 1e308, np.zeros(cells - 2)])
    cases += [np.r_[s, np.zeros(cells - 1)] for s in _edge_sums()]
    return [uniform, *cases, np.zeros(cells)]


def _raises(make) -> bool:
    try:
        make()
    except ValidationError:
        return True
    return False


@np.errstate(over="ignore")   # the overflowing row's sum warns before it is refused
def test_the_pmf_rule_refuses_what_the_constructors_refuse():
    # one predicate decides for every pmf check: 1-D pmfs and 4-axis laws,
    # each alone and as a batch, refused exactly where a constructor raises
    rows = _pmf_cases(4)
    laws = [row.reshape(2, 1, 2, 2) for row in _pmf_cases(8)]
    for case, row in enumerate(rows):
        refused = bool(pmf_refused(row))
        assert _raises(lambda: TeamPolicy(pi_a=row, pi_b=[1.0])) == refused, case
        assert _raises(lambda: TeamPolicy(pi_a=[1.0], pi_b=row)) == refused, case
        assert _raises(lambda: check_pmf(row, "row")) == refused, case
        batch = np.stack([rows[0], row, rows[0]])
        assert pmf_refused(batch).tolist() == [False, refused, False], case
        assert _raises(lambda: check_pmf(batch, "rows")) == refused, case
    for case, law in enumerate(laws):
        refused = bool(pmf_refused(law, axes=4))
        assert _raises(lambda: JointLaw(p=law)) == refused, case
        batch = np.stack([laws[0], law, laws[0]])
        assert pmf_refused(batch, axes=4).tolist() == [False, refused, False], case
    want = [False, True, True, True, False, True, True, False, True, False, True, True]
    assert pmf_refused(np.stack(rows)).tolist() == want
    assert pmf_refused(np.stack(laws), axes=4).tolist() == want


def test_pentagon_mod2_point_mass_policies():
    spec = examples.load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    pi_a = np.zeros(4)
    pi_a[1] = 1.0
    pi_b = np.zeros(4)
    pi_b[2] = 1.0
    pent = pentagon(joint_law(spec, chan, TeamPolicy(pi_a=pi_a, pi_b=pi_b)))
    assert pent.bound_a == 0.0 and pent.bound_b == 0.0 and pent.bound_sum == 0.0


def test_pentagon_mod2_two_strategy_policy():
    # sender a mixes the identity table [0,1] (id 2) and the flip table [1,0]
    # (id 1); sender b mixes the constants [0,0] (id 0) and [1,1] (id 3).
    # The output is then an independent fair bit, and each sender's choice is
    # recoverable from it given the other's, so all three bounds are 1.
    spec = examples.load("mod2-adder-noiseless")
    chan = induced_strategy_channel(spec)
    pi_a = np.zeros(4)
    pi_a[[1, 2]] = 0.5
    pi_b = np.zeros(4)
    pi_b[[0, 3]] = 0.5
    pent = pentagon(joint_law(spec, chan, TeamPolicy(pi_a=pi_a, pi_b=pi_b)))
    assert abs(pent.bound_a - 1.0) < 1e-12
    assert abs(pent.bound_b - 1.0) < 1e-12
    assert abs(pent.bound_sum - 1.0) < 1e-12


def test_pentagon_null_channel_all_zero():
    spec = examples.load("null-channel")
    chan = induced_strategy_channel(spec)
    pent = pentagon(joint_law(spec, chan, uniform_policy(chan)))
    assert pent.bound_a == 0.0 and pent.bound_b == 0.0 and pent.bound_sum == 0.0


def test_pentagon_is_finite_at_policy_weights_near_1e_200(rng):
    # a product of two such marginals underflows, and p_xyz * p_z over
    # p_xz * p_yz read 0 / 0; the bounds are those of the weights set to 0
    spec = examples.load("mod2-adder-bsc01")
    chan = induced_strategy_channel(spec)
    pi_a = dirichlet_rows(rng, (4,))
    tiny = pentagon(joint_law(spec, chan, TeamPolicy(pi_a=pi_a, pi_b=[0.5, 1e-200, 1e-200, 0.5])))
    zero = pentagon(joint_law(spec, chan, TeamPolicy(pi_a=pi_a, pi_b=[0.5, 0.0, 0.0, 0.5])))
    for name in ("bound_a", "bound_b", "bound_sum"):
        assert math.isfinite(getattr(tiny, name))
        assert getattr(tiny, name) == pytest.approx(getattr(zero, name), abs=1e-12)


@pytest.mark.parametrize("bounds, message", [
    ((math.nan, 0.5, 0.5), "non-finite"),
    ((0.5, math.inf, 0.5), "non-finite"),
    ((0.5, 0.5, -math.inf), "non-finite"),
    ((-1e-9, 0.5, 0.5), "below"),
    ((1.0, 1.0, 1.5), "exceeds log2"),
    ((0.8, 0.2, 0.5), "max"),
    ((0.2, 0.2, 0.5), "bound_a \\+ bound_b"),
])
def test_checked_pentagon_refuses_impossible_bounds(bounds, message):
    with pytest.raises(InternalInvariantError, match=message):
        checked_pentagon(*bounds, 2)


def test_checked_pentagon_clamps_rounding_below_zero():
    assert checked_pentagon(-1e-13, 0.5, 0.5, 2) == RatePentagon(0.0, 0.5, 0.5)


def test_checked_pentagon_caps_every_bound_at_log2_y():
    # the one-symbol spec's region read bounds up to 3.2e-16 above log2 |Y| = 0
    assert checked_pentagon(1 + 1e-10, 0.5, 1 + 1e-10, 2) == RatePentagon(1.0, 0.5, 1.0)
    assert checked_pentagon(3.2e-16, 1.6e-16, 3.2e-16, 1) == RatePentagon(0.0, 0.0, 0.0)
    with pytest.raises(InternalInvariantError, match="bound_b 1.5 exceeds log2"):
        checked_pentagon(1.0, 1.5, 1.0, 2)


@pytest.mark.parametrize("value, size_y, expected", [
    (0.5, 2, 0.5),
    (-1e-13, 2, 0.0),
    (-0.0, 2, -0.0),
    (1 + 1e-10, 2, 1.0),
    (math.log2(3), 3, math.log2(3)),
    (3.2034265038149176e-16, 1, 0.0),
])
def test_checked_rate_clamps_rounding_into_range(value, size_y, expected):
    out = checked_rate(value, size_y, "rate")
    assert type(out) is float and out == expected
    assert math.copysign(1.0, out) == math.copysign(1.0, expected)


@pytest.mark.parametrize("value, message", [
    (math.nan, "non-finite"),
    (-math.inf, "non-finite"),
    (-2e-12, "below"),
    (1 + 2e-9, "exceeds log2"),
])
def test_checked_rate_refuses_what_rounding_cannot_explain(value, message):
    with pytest.raises(InternalInvariantError, match=f"^sum rate .* {message}"):
        checked_rate(np.float64(value), 2, "sum rate")


def test_pentagon_inequalities_and_chain_rule_fuzz(rng):
    for _ in range(60):
        spec = random_spec(rng)
        chan = induced_strategy_channel(spec)
        pol = TeamPolicy(pi_a=dirichlet_rows(rng, (chan.space_a.count,)),
                         pi_b=dirichlet_rows(rng, (chan.space_b.count,)))
        law = joint_law(spec, chan, pol)
        pent = pentagon(law)
        assert 0.0 <= max(pent.bound_a, pent.bound_b) <= pent.bound_sum + 1e-9
        assert pent.bound_sum <= pent.bound_a + pent.bound_b + 1e-9
        assert pent.bound_sum <= np.log2(spec.size_y) + 1e-9
        # chain rule in both orders
        ia = conditional_mutual_information(law, x="ta", y="y", z="s")
        ib_given_a = conditional_mutual_information(law, x="tb", y="y", z=("ta", "s"))
        assert abs(pent.bound_sum - (ia + ib_given_a)) < 1e-9
        ib = conditional_mutual_information(law, x="tb", y="y", z="s")
        ia_given_b = conditional_mutual_information(law, x="ta", y="y", z=("tb", "s"))
        assert abs(pent.bound_sum - (ib + ia_given_b)) < 1e-9


def test_pentagon_relabeling_invariance(rng):
    spec = random_spec(rng, sizes={"xa": 2, "xb": 2, "s": 3, "sa": 2, "sb": 2, "y": 3})
    chan = induced_strategy_channel(spec)
    pol = TeamPolicy(pi_a=dirichlet_rows(rng, (4,)), pi_b=dirichlet_rows(rng, (4,)))
    law = joint_law(spec, chan, pol).p
    pent = pentagon(JointLaw(p=law))
    perm_s = [2, 0, 1]
    perm_y = [1, 2, 0]
    permuted = law[perm_s][:, :, :, perm_y]
    pent2 = pentagon(JointLaw(p=permuted))
    assert abs(pent.bound_a - pent2.bound_a) < 1e-12
    assert abs(pent.bound_b - pent2.bound_b) < 1e-12
    assert abs(pent.bound_sum - pent2.bound_sum) < 1e-12


def test_policy_loading(tmp_path):
    path = tmp_path / "pol.json"
    path.write_text(json.dumps({"pi_a": [0.5, 0.5], "pi_b": [1.0]}))
    pol = load_policy(path)
    assert pol.pi_a.tolist() == [0.5, 0.5]
    path.write_text(json.dumps({"pi_a": [0.5, 0.5]}))
    with pytest.raises(ValidationError, match="missing policy key 'pi_b'"):
        load_policy(path)
    path.write_text(json.dumps({"pi_a": [0.5, 0.5], "pi_b": [1.0], "seed": 3}))
    with pytest.raises(ValidationError, match="unknown policy key"):
        load_policy(path)
    path.write_text(json.dumps({"pi_a": [0.5, 0.6], "pi_b": [1.0]}))
    with pytest.raises(ValidationError, match="pi_a"):
        load_policy(path)
    # abs(nan - 1) > atol is False, so the sum test alone would let NaN through
    path.write_text(json.dumps({"pi_a": [float("nan"), 1.0], "pi_b": [1.0]}))
    with pytest.raises(ValidationError, match="pi_a: entry 0 is not finite"):
        load_policy(path)
