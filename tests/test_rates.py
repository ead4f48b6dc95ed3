import json
import math

import numpy as np
import pytest

from conftest import dirichlet_rows, random_spec
from fsmac import examples
from fsmac.errors import ValidationError
from fsmac.model import induced_strategy_channel
from fsmac.rates import (
    JointLaw,
    TeamPolicy,
    conditional_mutual_information,
    entropy,
    joint_law,
    load_policy,
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
    assert entropy([0.25, 0.25, 0.25, 0.25]) == 2.0
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    v = entropy([0.25, 0.75])
    assert abs(v - 0.8112781244591328) < ORACLE_ATOL
    assert abs(v - 0.8112781245) < 1e-9
    # independent oracle via math.log2
    assert abs(v + 0.25 * math.log2(0.25) + 0.75 * math.log2(0.75)) < 1e-15


def test_entropy_validation():
    with pytest.raises(ValidationError):
        entropy([0.5, 0.6])
    with pytest.raises(ValidationError):
        entropy([-0.1, 1.1])


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
