"""The four benchmark workloads: inputs, fsmac command lines and output checks.

Every workload is generated from the benchmark's workload seed. The program
only ever sees spec and policy JSON files plus its own command-line flags.
Checks read the written reports after a pass, outside the timed region.
"""

import csv
import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BUNDLED = ("mod2-adder-noiseless", "mod2-adder-bsc01", "stateless-mac", "null-channel")

# Sum-rate caps and hulls the README states for the bundled specs: the XOR
# adders reach 1 bit with the triangle (1,0)-(0,1), the stateless MAC is the
# classic pentagon with sum rate 1.5, and the null channel is the origin.
BUNDLED_OUTER = {"mod2-adder-noiseless": 1.0, "mod2-adder-bsc01": 1.0,
                 "stateless-mac": 1.5, "null-channel": 0.0}
BUNDLED_HULLS = {
    "mod2-adder-noiseless": [[0, 0], [1, 0], [0, 1]],
    "mod2-adder-bsc01": [[0, 0], [1, 0], [0, 1]],
    "stateless-mac": [[0, 0], [1, 0], [1, 0.5], [0.5, 1], [0, 1]],
    "null-channel": [[0, 0]],
}

# Acceptance criterion 7's constants policy: each sender sends a fixed letter.
CONSTANTS_POLICY = {"pi_a": [0.5, 0.0, 0.0, 0.5], "pi_b": [0.5, 0.0, 0.0, 0.5]}

# sumrate-large draws its Dirichlet(1) spec from this fixed stream. Across
# draws the ascent's round count, and so the time of one pass, swings from
# 3 s to 26 s; the workload seed instead relabels states and outputs, a
# symmetry of the problem that leaves the work and the answer unchanged.
LARGE_SPEC_STREAM = 0
LARGE_SIZES = {"xa": 2, "xb": 2, "s": 4, "sa": 8, "sb": 8, "y": 4}
# Best sum rate the program found on that spec (restart seed 0, two restarts)
# when the benchmark was added. A later optimizer may find more, never less.
LARGE_REFERENCE = 0.3276822785017788

# Outcome counts (no_typical, ambiguous, wrong) per blocklength at the default
# workload seed, as the program reported them when the benchmark was added.
DEFAULT_SEED = 0
REFERENCE_COUNTS = {
    ("simulate-above-cap", "typicality"): {12: (0, 200, 0)},
    ("simulate-above-cap", "max_likelihood"): {12: (0, 200, 0)},
    ("simulate-below-cap", "typicality"): {4: (0, 360, 0), 12: (0, 16, 0)},
}

TOL_VALUE = 1e-6
TOL_RECOMPUTE = 1e-9
TOL_ORACLE = 1e-3
TOL_CONVERSE = 1e-9


@dataclass(frozen=True)
class Command:
    argv: list
    out: Path
    check: Callable  # (fsmac, report path) -> list of problems


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable  # (root, workdir, seed) -> dict of input paths
    commands: Callable     # (inputs, outdir, seed, threads) -> list[Command]


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _copy_bundled(root: Path, workdir: Path) -> dict:
    examples = root / "src" / "fsmac" / "examples"
    out = {}
    for name in BUNDLED:
        out[name] = workdir / f"{name}.json"
        shutil.copyfile(examples / f"{name}.json", out[name])
    return out


def _close(a, b, tol) -> bool:
    return abs(float(a) - float(b)) <= tol


# --- sumrate-large -------------------------------------------------------------

def _dirichlet_rows(rng, shape):
    flat = rng.dirichlet(np.ones(shape[-1]), size=int(np.prod(shape[:-1], initial=1)))
    return flat.reshape(shape)


def large_spec(seed: int) -> dict:
    """Dirichlet(1) spec from the fixed stream, states and outputs relabeled by seed."""
    sizes = LARGE_SIZES
    base = np.random.default_rng(LARGE_SPEC_STREAM)
    state_pmf = _dirichlet_rows(base, (sizes["s"],))
    obs_a = _dirichlet_rows(base, (sizes["s"], sizes["sa"]))
    obs_b = _dirichlet_rows(base, (sizes["s"], sizes["sb"]))
    channel = _dirichlet_rows(base, (sizes["s"], sizes["xa"], sizes["xb"], sizes["y"]))
    relabel = np.random.default_rng(seed)
    ps = relabel.permutation(sizes["s"])
    py = relabel.permutation(sizes["y"])
    return {
        "alphabets": dict(sizes),
        "state_pmf": state_pmf[ps].tolist(),
        "obs_a": obs_a[ps].tolist(),
        "obs_b": obs_b[ps].tolist(),
        "channel": channel[ps][..., py].tolist(),
    }


def _sumrate_large_inputs(root, workdir, seed):
    return {"spec": _write_json(workdir / "large.json", large_spec(seed))}


def _check_sumrate_large(spec_path):
    def check(fsmac, report):
        doc = json.loads(report.read_text())
        value = doc["value"]
        problems = []
        if not 0.0 <= value <= 2.0:
            problems.append(f"sum rate {value} outside [0, 2]")
        if value < LARGE_REFERENCE - TOL_VALUE:
            problems.append(f"sum rate {value} below the reference {LARGE_REFERENCE}")
        spec = fsmac.load_spec(spec_path)
        chan = fsmac.induced_strategy_channel(spec)
        policy = fsmac.TeamPolicy(pi_a=np.array(doc["policy"]["pi_a"]),
                                  pi_b=np.array(doc["policy"]["pi_b"]))
        bound = fsmac.pentagon(fsmac.joint_law(spec, chan, policy)).bound_sum
        if not _close(bound, value, TOL_RECOMPUTE):
            problems.append(f"recomputed bound {bound} differs from {value}")
        return problems
    return check


def _sumrate_large_commands(inputs, outdir, seed, threads):
    out = outdir / "sumrate.json"
    argv = ["sumrate", "--spec", str(inputs["spec"]), "--restarts", "2",
            "--seed", "0", "--threads", str(threads), "--out", str(out)]
    return [Command(argv, out, _check_sumrate_large(inputs["spec"]))]


# --- bounds-bundled ------------------------------------------------------------

def _same_region(hull, want) -> bool:
    """Same polygon: every expected vertex is a hull vertex and every hull
    vertex lies in the expected polygon, both within TOL_VALUE. A redundant
    vertex on an expected edge, which the 1e-7 snap can leave, is allowed."""
    def near(p, q):
        return _close(p[0], q[0], TOL_VALUE) and _close(p[1], q[1], TOL_VALUE)

    def inside(p):
        if len(want) < 3:
            return any(near(p, w) for w in want)
        for (ax, ay), (bx, by) in zip(want, want[1:] + want[:1]):
            cross = (bx - ax) * (p[1] - ay) - (by - ay) * (p[0] - ax)
            if cross < -TOL_VALUE * np.hypot(bx - ax, by - ay):
                return False
        return True

    return (all(any(near(h, w) for h in hull) for w in want)
            and all(inside(h) for h in hull))


def _check_region(name):
    def check(fsmac, hull_csv):
        side = json.loads(Path(str(hull_csv) + ".json").read_text())
        with open(hull_csv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        hull = [[float(ra), float(rb)] for ra, rb in rows]
        problems = []
        cap = side["outer_sum_value"]
        if not _close(cap, BUNDLED_OUTER[name], TOL_VALUE):
            problems.append(f"{name}: outer sum {cap}, expected {BUNDLED_OUTER[name]}")
        want = BUNDLED_HULLS[name]
        if not _same_region(hull, want):
            problems.append(f"{name}: hull {hull}, expected {want}")
        if any(ra + rb > cap + TOL_VALUE for ra, rb in hull):
            problems.append(f"{name}: a hull vertex exceeds the sum cap {cap}")
        return problems
    return check


def _check_oracle(fsmac, report):
    doc = json.loads(report.read_text())
    problems = []
    if not _close(doc["value"], 1.0, TOL_VALUE):
        problems.append(f"mod2 sum rate {doc['value']}, expected 1")
    if not _close(doc["grid_oracle"]["value"], doc["value"], TOL_ORACLE):
        problems.append(f"grid oracle {doc['grid_oracle']['value']} disagrees with "
                        f"the optimizer's {doc['value']}")
    return problems


def _check_converse(fsmac, report):
    worst = json.loads(report.read_text())["max_deviation"]
    return [] if worst <= TOL_CONVERSE else [f"converse deviation {worst}"]


def _bounds_commands(inputs, outdir, seed, threads):
    threads_flag = ["--threads", str(threads)]
    cmds = []
    for name in BUNDLED:
        out = outdir / f"{name}.hull.csv"
        cmds.append(Command(
            ["region", "--spec", str(inputs[name]), "--directions", "17",
             "--restarts", "16", "--seed", str(seed), *threads_flag, "--out", str(out)],
            out, _check_region(name)))
    out = outdir / "oracle.json"
    cmds.append(Command(
        ["sumrate", "--spec", str(inputs["mod2-adder-noiseless"]), "--resolution", "100",
         "--seed", str(seed), *threads_flag, "--out", str(out)],
        out, _check_oracle))
    out = outdir / "converse.json"
    cmds.append(Command(
        ["verify-converse", "--spec", str(inputs["mod2-adder-bsc01"]), "--n", "3",
         "--trials", "50", "--seed", str(seed), "--out", str(out)],
        out, _check_converse))
    return cmds


# --- simulate ------------------------------------------------------------------

def _simulate_inputs(root, workdir, seed):
    inputs = _copy_bundled(root, workdir)
    inputs["policy"] = _write_json(workdir / "constants.json", CONSTANTS_POLICY)
    return inputs


def _check_simulate(workload, decoder, seed, trend):
    def check(fsmac, report):
        reports = {r["blocklength"]: r for r in json.loads(report.read_text())["reports"]}
        problems = []
        for n, rep in reports.items():
            counts = (rep["no_typical_count"], rep["decoder_ambiguous_count"],
                      rep["wrong_decode_count"])
            if sum(counts) != rep["errors"]:
                problems.append(f"n={n}: outcome counts {counts} do not sum to errors")
            if seed == DEFAULT_SEED:
                want = REFERENCE_COUNTS[(workload, decoder)].get(n)
                if counts != want:
                    problems.append(f"n={n}: counts {counts}, reference {want}")
        problems.extend(trend(reports))
        return problems
    return check


def _above_cap_trend(reports):
    rate = reports[12]["error_rate"]
    return [] if rate > 0.5 else [f"above-cap error rate {rate} not above 0.5"]


def _below_cap_trend(reports):
    short, long = reports[4]["error_rate"], reports[12]["error_rate"]
    return [] if long < short else [f"below-cap error {long} at n=12 not below {short} at n=4"]


def _simulate_command(name, inputs, outdir, seed, threads, extra, decoder, trend):
    out = outdir / f"{name}-{decoder}.json"
    argv = ["simulate", "--spec", str(inputs["mod2-adder-noiseless"]),
            "--policy", str(inputs["policy"]), *extra, "--eps", "0.05",
            "--seed", str(seed), "--threads", str(threads), "--out", str(out)]
    if decoder != "typicality":
        argv += ["--decoder", decoder]
    return Command(argv, out, _check_simulate(name, decoder, seed, trend))


def _above_cap_commands(inputs, outdir, seed, threads):
    extra = ["--n", "12", "--ra", "0.7", "--rb", "0.7", "--trials", "200"]
    return [_simulate_command("simulate-above-cap", inputs, outdir, seed, threads,
                              extra, decoder, _above_cap_trend)
            for decoder in ("typicality", "max_likelihood")]


def _below_cap_commands(inputs, outdir, seed, threads):
    extra = ["--n", "4", "12", "--ra", "0.2", "--rb", "0.2", "--trials", "2000"]
    return [_simulate_command("simulate-below-cap", inputs, outdir, seed, threads,
                              extra, "typicality", _below_cap_trend)]


# Why each workload exists, and what it should move, is in BENCHMARK.json and
# bench/README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("sumrate-large", _sumrate_large_inputs, _sumrate_large_commands),
        Workload("bounds-bundled", lambda root, workdir, seed: _copy_bundled(root, workdir),
                 _bounds_commands),
        Workload("simulate-above-cap", _simulate_inputs, _above_cap_commands),
        Workload("simulate-below-cap", _simulate_inputs, _below_cap_commands),
    )
}

# Workloads that also run one untraced --threads 2 pass in the traced run.
THREAD_PASS = ("sumrate-large", "simulate-above-cap")
