"""Acceptance gate: nine checks, one verdict line each.

Each test prints ``criterion N: PASS/FAIL`` on the real stdout (bypassing
pytest capture) so the gate's verdict survives any -s / capture settings.
Tolerances and workloads are fixed; do not loosen them to make a run green.
"""

import contextlib
import csv
import itertools
import json
import math
import sys
import time

import numpy as np
import pytest

import fsmac.cli as cli
from fsmac import (
    SimConfig,
    TeamPolicy,
    estimate_error,
    grid_oracle_sum_rate,
    induced_strategy_channel,
    inner_bound_region,
    joint_law,
    maximize_sum_rate,
    pentagon,
    random_encoders,
    sigma_average_pentagon,
    typicality_check,
    verify_factorization,
)
from fsmac.examples import NAMES, load, spec_path

from conftest import random_spec, spec_with
from reference import literal_law

BINARY = dict(xa=2, xb=2, s=2, sa=2, sb=2, y=2)


@contextlib.contextmanager
def verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL ({label})", file=sys.__stdout__, flush=True)
        raise
    print(f"criterion {num}: PASS ({label})", file=sys.__stdout__, flush=True)


def _subset_entropy(p: np.ndarray, keep: tuple) -> float:
    """Entropy of a marginal of the 4-axis law, plain arithmetic."""
    drop = tuple(i for i in range(4) if i not in keep)
    marg = p.sum(axis=drop).ravel()
    return float(-sum(v * math.log2(v) for v in marg if v > 0.0))


def test_criterion_1_mod2_sum_capacity():
    with verdict(1, "mod-2 adder sum capacity 1.0, grid oracle agrees"):
        t0 = time.monotonic()
        spec = load("mod2-adder-noiseless")
        chan = induced_strategy_channel(spec)
        result = maximize_sum_rate(spec, chan)
        assert abs(result.value - 1.0) <= 1e-6
        oracle = grid_oracle_sum_rate(spec, chan, 100)
        assert abs(oracle - result.value) <= 1e-3
        assert time.monotonic() - t0 < 30.0


def test_criterion_2_factorization_random_codes():
    with verdict(2, "letter-law factorization on 50 random codes"):
        t0 = time.monotonic()
        worst = 0.0
        for k in range(50):
            rng = np.random.default_rng(7000 + k)
            spec = random_spec(rng, sizes=BINARY)
            n = 1 + (k % 3)
            maps = random_encoders(spec, n, 2, 2, rng)
            audit = verify_factorization(spec, maps, induced_strategy_channel(spec))
            worst = max(worst, audit.max_deviation)
        assert worst < 1e-12
        assert time.monotonic() - t0 < 120.0


def test_criterion_3_decomposition_identity():
    with verdict(3, "per-time decomposition equals composite average"):
        for k in range(10):
            rng = np.random.default_rng(3100 + k)
            spec = random_spec(rng, sizes=BINARY)
            chan = induced_strategy_channel(spec)
            n = 1 + (k % 3)
            maps = random_encoders(spec, n, 2, 2, rng)
            left = sigma_average_pentagon(spec, maps, chan).bound_sum

            # direct side: literal laws by reference.py's one-float-at-a-time
            # loop, weights and mutual informations computed right here,
            # with none of the package's rate or converse code
            right = 0.0
            for t in range(1, n + 1):
                for sigma in itertools.product(range(spec.size_s), repeat=t - 1):
                    weight = math.prod(
                        (float(spec.state_pmf[d]) for d in sigma), start=1.0 / n
                    )
                    law = literal_law(spec, maps, t, sigma)
                    p = np.transpose(law, (3, 0, 1, 2))  # to (s, ta, tb, y)
                    cmi = (
                        _subset_entropy(p, (0, 1, 2))
                        + _subset_entropy(p, (0, 3))
                        - _subset_entropy(p, (0,))
                        - _subset_entropy(p, (0, 1, 2, 3))
                    )
                    right += weight * cmi
            assert abs(left - right) <= 1e-9


def test_criterion_4_pentagon_fuzz():
    with verdict(4, "pentagon ordering and chain rule on 10^4 fuzzed pairs"):
        rng = np.random.default_rng(41)
        for _ in range(10_000):
            sizes = {k: int(rng.integers(2, 4)) for k in BINARY}
            spec = random_spec(rng, sizes=sizes)
            chan = induced_strategy_channel(spec)
            policy = TeamPolicy(
                pi_a=rng.dirichlet(np.ones(chan.space_a.count)),
                pi_b=rng.dirichlet(np.ones(chan.space_b.count)),
            )
            law = joint_law(spec, chan, policy)
            pent = pentagon(law)
            a, b, c = pent.bound_a, pent.bound_b, pent.bound_sum
            assert a >= -1e-9 and b >= -1e-9
            assert max(a, b) <= c + 1e-9
            assert c <= a + b + 1e-9

            p = law.p
            h_s = _subset_entropy(p, (0,))
            h_all = _subset_entropy(p, (0, 1, 2, 3))
            own_a = (_subset_entropy(p, (0, 1)) + _subset_entropy(p, (0, 3))
                     - h_s - _subset_entropy(p, (0, 1, 3)))
            rest_b = (_subset_entropy(p, (0, 1, 2)) + _subset_entropy(p, (0, 1, 3))
                      - _subset_entropy(p, (0, 1)) - h_all)
            own_b = (_subset_entropy(p, (0, 2)) + _subset_entropy(p, (0, 3))
                     - h_s - _subset_entropy(p, (0, 2, 3)))
            rest_a = (_subset_entropy(p, (0, 1, 2)) + _subset_entropy(p, (0, 2, 3))
                      - _subset_entropy(p, (0, 2)) - h_all)
            assert abs(c - (own_a + rest_b)) <= 1e-9
            assert abs(c - (own_b + rest_a)) <= 1e-9


def test_criterion_5_degradation_monotone():
    with verdict(5, "garbling the a-side observation never helps"):
        spec0 = load("mod2-adder-noiseless")
        bsc = np.array([[0.8, 0.2], [0.2, 0.8]])

        def optimized(obs_a: np.ndarray) -> float:
            spec = spec_with(spec0, obs_a=obs_a)
            chan = induced_strategy_channel(spec)
            return maximize_sum_rate(spec, chan).value

        rng = np.random.default_rng(55)
        garblings = [np.eye(2)] + [rng.dirichlet(np.ones(2), size=2)
                                   for _ in range(20)]
        for g in garblings:
            base = optimized(spec0.obs_a @ g)
            degraded = optimized(spec0.obs_a @ g @ bsc)
            assert degraded <= base + 1e-3


def test_criterion_6_hull_inside_sum_cap():
    with verdict(6, "hull vertices respect the sum-rate cap on all bundled specs"):
        for name in NAMES:
            spec = load(name)
            chan = induced_strategy_channel(spec)
            cap = maximize_sum_rate(spec, chan).value
            region = inner_bound_region(spec, chan, directions=17)
            for ra, rb in region.vertices:
                assert ra + rb <= cap + 1e-6, (name, ra, rb, cap)


def test_criterion_7_blocklength_trend():
    with verdict(7, "longer blocks decode better below the cap, fail above it"):
        t0 = time.monotonic()
        spec = load("mod2-adder-noiseless")
        chan = induced_strategy_channel(spec)
        constants = TeamPolicy(pi_a=np.array([0.5, 0.0, 0.0, 0.5]),
                               pi_b=np.array([0.5, 0.0, 0.0, 0.5]))

        def run(n: int, rate: float):
            cfg = SimConfig(blocklength=n, rate_a=rate, rate_b=rate,
                            epsilon=0.05, trials=2000, seed=0)
            return estimate_error(spec, chan, constants, cfg)

        below_short = run(4, 0.2)
        below_long = run(12, 0.2)
        assert below_long.error_rate < below_short.error_rate
        above = run(12, 0.7)  # sum rate 1.4 against a 1.0 bit cap
        assert above.error_rate > 0.5
        assert time.monotonic() - t0 < 300.0


def test_criterion_8_typicality_exhaustive():
    with verdict(8, "typicality agrees with the definition on all 2^10 sequences"):
        law = np.zeros((1, 1, 1, 2))
        law[0, 0, 0, 0] = 0.25
        law[0, 0, 0, 1] = 0.75
        n, eps = 10, 0.1
        # Singleton axes make every subset without y trivially typical, so the
        # definitional predicate reduces to the y-axis log-likelihood rate.
        ent = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        fixed = np.zeros(n, dtype=int)
        typical_count = 0
        for bits in itertools.product((0, 1), repeat=n):
            y = np.array(bits, dtype=int)
            zeros = n - int(y.sum())
            rate = -(zeros * math.log2(0.25)
                     + (n - zeros) * math.log2(0.75)) / n
            expect = abs(rate - ent) < eps
            got = typicality_check(dict(s=fixed, ta=fixed, tb=fixed, y=y),
                                   law, eps)
            assert got == expect, bits
            typical_count += got
        assert typical_count == 165  # exactly 2 or 3 zeros: C(10,2) + C(10,3)


def _strip_timing(payload: dict) -> str:
    clone = json.loads(json.dumps(payload))
    del clone["manifest"]["timing"]
    return json.dumps(clone, indent=2, sort_keys=True)


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with verdict(9, "CLI reports byte-identical across reruns and threads"):
        mod2 = str(spec_path("mod2-adder-noiseless"))
        policy_file = tmp_path / "policy.json"
        policy_file.write_text(json.dumps(
            {"pi_a": [0.5, 0, 0, 0.5], "pi_b": [0.5, 0, 0, 0.5]}))

        def payloads(argv, thread_variants):
            outs = []
            for extra in thread_variants:
                assert cli.main(argv + extra) == 0
                outs.append(_strip_timing(json.loads(capsys.readouterr().out)))
            return outs

        for argv in (
            ["validate", "--spec", mod2],
            ["sumrate", "--spec", mod2, "--seed", "3"],
            ["verify-converse", "--spec", mod2, "--n", "2", "--trials", "5"],
        ):
            outs = payloads(argv, ([], []))
            assert outs[0] == outs[1]

        outs = payloads(["sumrate", "--spec", mod2], ([], ["--threads", "4"]))
        assert outs[0] == outs[1]

        sim = ["simulate", "--spec", mod2, "--policy", str(policy_file),
               "--n", "4", "6", "--ra", "0.25", "--rb", "0.25",
               "--trials", "50"]
        outs = payloads(sim, ([], [], ["--threads", "3"]))
        assert outs[0] == outs[1] == outs[2]

        hulls, sidecars, pents = [], [], []
        for i, extra in enumerate(([], ["--threads", "3"])):
            hull = tmp_path / f"hull{i}.csv"
            pent = tmp_path / f"pent{i}.csv"
            assert cli.main(["region", "--spec", mod2, "--out", str(hull),
                             "--csv", str(pent), "--directions", "7"]
                            + extra) == 0
            capsys.readouterr()
            hulls.append(hull.read_bytes())
            pents.append(pent.read_bytes())
            side = json.loads((tmp_path / f"hull{i}.csv.json").read_text())
            del side["manifest"]["timing"]
            del side["manifest"]["options"]["out"]
            del side["manifest"]["options"]["csv"]
            sidecars.append(json.dumps(side, indent=2, sort_keys=True))
        assert hulls[0] == hulls[1]
        assert pents[0] == pents[1]
        assert sidecars[0] == sidecars[1]
