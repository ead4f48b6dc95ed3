#!/usr/bin/env python3
"""Check that the fsmac command line gives the same bytes as another revision.

    python tools/samebytes.py --against <rev> [--quick]

The revision is exported with `git archive` into a temporary directory, so
nothing is written under .git. One matrix of runs then goes through the
working tree and through the export, each run in its own subprocess with
that tree's `src/` on PYTHONPATH:

- `simulate` on the three 4x4 bundled specs, under two policies, both
  decoders and three argument sets, and once per spec without `--policy`
- `simulate --n 4 12` under both decoders and a uniform policy on a small
  fixed Dirichlet spec, some of whose channel rows have a cumsum that ends
  off 1.0: the only rows where dividing by that end moves a drawn letter
- `validate`, `sumrate`, `region --csv` and `verify-converse --n 3
  --trials 50` on all four bundled specs, and `sumrate --resolution 100`
  on `mod2-adder-noiseless` and `stateless-mac`
- `sumrate --restarts 2 --resolution 2` and `region --restarts 2
  --directions 3 --csv` on a spec with every alphabet of size 1, whose
  every rate is exactly 0
- the `repr` of `sigma_average_pentagon`'s three bounds for 8 random codes
  at n 3 on each bundled spec, every bit of the averaged outer bound (the
  converse demo prints it to 6 decimals)
- the demos' stdout and every `--help`
- `fsmac validate` on malformed documents: the spec inputs the CLI tests
  feed every command (integers too large for a float and too long to parse
  among them), and one document per spec error (wrong shape, bad row, bad
  labels, unknown key, oversized channel)

Each run leaves its stdout, stderr, exit code and every file it wrote. JSON
reports lose their `manifest` (timing, paths, version), and then every file
must match byte for byte. The last line is a summary; before it comes one
line per file that differs, the first first, with its largest float
difference. Exit 0 when every file matches, 1 otherwise. `--quick` runs a
subset in under a minute.
"""

import argparse
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SQUARE = ("mod2-adder-noiseless", "mod2-adder-bsc01", "null-channel")
BUNDLED = (*SQUARE, "stateless-mac")
POLICIES = {
    "constants": {"pi_a": [0.5, 0, 0, 0.5], "pi_b": [0.5, 0, 0, 0.5]},
    "mixed": {"pi_a": [0.4, 0.1, 0.2, 0.3], "pi_b": [0.3, 0.2, 0.1, 0.4]},
}
SIM_ARGS = (
    ["--n", "4", "8", "12", "--ra", ".4", "--rb", ".4", "--eps", ".05", "--trials", "200"],
    ["--n", "12", "--ra", ".7", "--rb", ".55", "--eps", ".3", "--trials", "100", "--seed", "3"],
    ["--n", "6", "--ra", "1", "--rb", "0", "--eps", ".1", "--trials", "50",
     "--seed", "18446744073709551615"],
)
DECODERS = ("typicality", "max_likelihood")
SUBCOMMANDS = ("validate", "sumrate", "region", "simulate", "verify-converse")
DEMOS = ("capacity_bounds", "coding_simulation", "converse_audit")
# the CLI with the byte cap one below the size of the last argument's file
CAPPED = ("import os, sys, fsmac.model as m; "
          "m.SPEC_BYTE_CAP = os.path.getsize(sys.argv[-1]) - 1; "
          "from fsmac.cli import main; sys.exit(main(sys.argv[1:]))")
# sigma_average_pentagon's bounds, repr'd, for 8 random 2 x 2-message codes at n 3 per spec
AVERAGED = (
    "from fsmac import induced_strategy_channel, load_spec, random_encoders, "
    "sigma_average_pentagon\n"
    "from fsmac.rng import ROLE_ENCODER, stream\n"
    f"for name in {BUNDLED!r}:\n"
    "    spec = load_spec(f'specs/{name}.json')\n"
    "    chan = induced_strategy_channel(spec)\n"
    "    for code in range(8):\n"
    "        maps = random_encoders(spec, 3, 2, 2, stream(0, code, ROLE_ENCODER))\n"
    "        pent = sigma_average_pentagon(spec, maps, chan)\n"
    "        print(name, code, repr(pent.bound_a), repr(pent.bound_b), repr(pent.bound_sum))\n"
)
# every alphabet of size 1: zero capacity, and log2 |Y| = 0 caps every rate
ONE_SYMBOL = {"alphabets": dict.fromkeys(("xa", "xb", "s", "sa", "sb", "y"), 1),
              "state_pmf": [1.0], "obs_a": [[1.0]], "obs_b": [[1.0]], "channel": [[[[1.0]]]]}
# Dirichlet(1) rows drawn once and rounded to three decimals; 8 of the 32
# rows of its induced channel have a cumsum that does not end at exactly 1.0
DIRICHLET = {
    "alphabets": {"xa": 2, "xb": 2, "s": 2, "sa": 2, "sb": 2, "y": 3},
    "state_pmf": [0.628, 0.372],
    "obs_a": [[0.637, 0.363], [0.019, 0.981]],
    "obs_b": [[0.498, 0.502], [0.243, 0.757]],
    "channel": [[[[0.094, 0.602, 0.304], [0.008, 0.632, 0.36]],
                 [[0.287, 0.694, 0.019], [0.574, 0.072, 0.354]]],
                [[[0.177, 0.415, 0.408], [0.587, 0.21, 0.203]],
                 [[0.026, 0.476, 0.498], [0.59, 0.388, 0.022]]]],
}
UNIFORM = {"pi_a": [0.25] * 4, "pi_b": [0.25] * 4}
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")


def bad_documents(good: dict) -> dict:
    """Malformed spec files by name, as bytes, built from a good spec."""
    def doc(**changes):
        return json.dumps(good | changes).encode()

    def uniform(xa, s, sa):   # sender b and the output trivial
        return json.dumps({
            "alphabets": {"xa": xa, "xb": 1, "s": s, "sa": sa, "sb": 1, "y": 1},
            "state_pmf": [1 / s] * s, "obs_a": [[1 / sa] * sa] * s,
            "obs_b": [[1.0]] * s, "channel": [[[[1.0]]] * xa] * s,
        }).encode()

    sizes = {"xa": 2, "xb": 2, "s": 16, "sa": 12, "sb": 11, "y": 16}
    return {
        "undecodable": b"\xff\xfe\xfa\x00\x01",
        "too-deep": b"[" * 100_000 + b"]" * 100_000,
        "not-an-object": b"[1, 2]",
        "non-numeric": doc(state_pmf=["a", "b"]),
        "huge-integer": doc(state_pmf=[10**400, 0]),
        "long-integer": doc(state_pmf=["LONG", 0]).replace(b'"LONG"', b"1" * 5000),
        "huge-alphabets": uniform(2000, 1, 2000),
        "input-law": uniform(1025, 16, 1),
        "wrong-shape": doc(state_pmf=[0.5, 0.25, 0.25]),
        "bad-row": doc(obs_a=[[0.7, 0.7], [0.0, 1.0]]),
        "bad-labels": doc(labels={"y": ["one"]}),
        "unknown-key": doc(extra=1),
        "oversized-channel": json.dumps({
            "alphabets": sizes, "state_pmf": [1 / 16] * 16, "obs_a": [[1 / 12] * 12] * 16,
            "obs_b": [[1 / 11] * 11] * 16, "channel": [[[[1 / 16] * 16] * 2] * 2] * 16,
        }).encode(),
    }


def matrix(quick: bool) -> list:
    """(name, python arguments) for every run. Paths are relative to the
    tree's work directory; each run writes its files under runs/<name>/."""
    cli = ["-m", "fsmac.cli"]
    runs = [("help", [*cli, "--help"])]
    runs += [(f"help-{sub}", [*cli, sub, "--help"]) for sub in SUBCOMMANDS]
    runs += [(f"validate-bad-{name}", [*cli, "validate", "--spec", f"bad/{name}.json"])
             for name in bad_documents({})]
    runs.append(("validate-bad-oversized", ["-c", CAPPED, "validate",
                                            "--spec", "specs/mod2-adder-noiseless.json"]))
    for spec in BUNDLED:
        path = f"specs/{spec}.json"
        runs.append((f"validate-{spec}", [*cli, "validate", "--spec", path]))
        runs.append((f"sumrate-{spec}", [*cli, "sumrate", "--spec", path]))
        if quick:
            continue
        runs.append((f"region-{spec}", [*cli, "region", "--spec", path, "--out",
                                        f"runs/region-{spec}/hull.csv", "--csv",
                                        f"runs/region-{spec}/pentagons.csv"]))
        runs.append((f"converse-{spec}", [*cli, "verify-converse", "--spec", path,
                                          "--n", "3", "--trials", "50"]))
    runs.append(("averaged-bounds", ["-c", AVERAGED]))
    if not quick:
        runs += [(f"oracle-{spec}", [*cli, "sumrate", "--spec", f"specs/{spec}.json",
                                     "--resolution", "100"])
                 for spec in ("mod2-adder-noiseless", "stateless-mac")]
        runs += [("sumrate-one-symbol", [*cli, "sumrate", "--spec", "specs/one-symbol.json",
                                         "--restarts", "2", "--resolution", "2"]),
                 ("region-one-symbol", [*cli, "region", "--spec", "specs/one-symbol.json",
                                        "--restarts", "2", "--directions", "3",
                                        "--out", "runs/region-one-symbol/hull.csv",
                                        "--csv", "runs/region-one-symbol/pentagons.csv"])]
    for spec in SQUARE:
        for k, args in enumerate(SIM_ARGS):
            if quick and k < len(SIM_ARGS) - 1:
                continue
            for policy in POLICIES:
                for decoder in DECODERS:
                    name = f"simulate-{spec}-{policy}-{decoder}-{k}"
                    runs.append((name, [*cli, "simulate", "--spec", f"specs/{spec}.json",
                                        "--policy", f"policies/{policy}.json",
                                        "--decoder", decoder, *args,
                                        "--csv", f"runs/{name}/sweep.csv"]))
        if not quick:
            runs.append((f"simulate-{spec}-optimized", [
                *cli, "simulate", "--spec", f"specs/{spec}.json", *SIM_ARGS[1]]))
    for decoder in DECODERS:
        name = f"simulate-dirichlet-{decoder}"
        runs.append((name, [*cli, "simulate", "--spec", "specs/dirichlet.json",
                            "--policy", "policies/uniform.json", "--decoder", decoder,
                            "--n", "4", "12", "--ra", ".3", "--rb", ".3", "--eps", ".2",
                            "--trials", "200", "--csv", f"runs/{name}/sweep.csv"]))
    runs += [(f"demo-{demo}", [f"demos/{demo}.py"])
             for demo in DEMOS if not (quick and demo == "capacity_bounds")]
    return runs


def run_tree(tree: Path, work: Path, runs) -> dict:
    """Run the matrix on one tree; {"<run>/<file>": bytes} in run order."""
    shutil.copytree(tree / "src/fsmac/examples", work / "specs",
                    ignore=shutil.ignore_patterns("*.py", "__pycache__"))
    (work / "specs/one-symbol.json").write_text(json.dumps(ONE_SYMBOL))
    (work / "specs/dirichlet.json").write_text(json.dumps(DIRICHLET))
    shutil.copytree(tree / "demos", work / "demos")
    good = json.loads((work / "specs/mod2-adder-noiseless.json").read_bytes())
    policies = {**POLICIES, "uniform": UNIFORM}
    for folder, files in (("policies", {k: json.dumps(v).encode() for k, v in policies.items()}),
                          ("bad", bad_documents(good))):
        (work / folder).mkdir()
        for name, raw in files.items():
            (work / folder / f"{name}.json").write_bytes(raw)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    outputs = {}
    for name, args in runs:
        folder = work / "runs" / name
        folder.mkdir(parents=True)
        proc = subprocess.run([sys.executable, *args], cwd=work, env=env,
                              capture_output=True, check=False)
        outputs[f"{name}/exit"] = str(proc.returncode).encode()
        outputs[f"{name}/stdout"] = proc.stdout
        outputs[f"{name}/stderr"] = proc.stderr
        for path in sorted(folder.iterdir()):
            outputs[f"{name}/{path.name}"] = path.read_bytes()
    return outputs


def strip_manifest(data: bytes) -> bytes:
    """A JSON object's bytes with its `manifest` key dropped, in the CLI's
    canonical form; anything else unchanged."""
    try:
        doc = json.loads(data)
    except (UnicodeDecodeError, ValueError):
        return data
    if not isinstance(doc, dict) or "manifest" not in doc:
        return data
    del doc["manifest"]
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def largest_float_difference(left: bytes, right: bytes):
    """The largest absolute difference between the numbers of two texts,
    read in order; None when they hold different counts of numbers."""
    a, b = NUMBER.findall(left), NUMBER.findall(right)
    if len(a) != len(b):
        return None
    return max((abs(float(x) - float(y)) for x, y in zip(a, b)), default=0.0)


def compare(left: dict, right: dict) -> list:
    """[(file, detail)] for every file whose stripped bytes differ or that
    only one side has, in the left side's run order."""
    differ = []
    for key in [*left, *(key for key in right if key not in left)]:
        if key not in left or key not in right:
            differ.append((key, "only on the " + ("right" if key not in left else "left")))
            continue
        a, b = strip_manifest(left[key]), strip_manifest(right[key])
        if a != b:
            diff = largest_float_difference(a, b)
            differ.append((key, "numbers differ in count" if diff is None
                           else f"largest float difference {diff:.3e}"))
    return differ


def export(rev: str, dest: Path) -> str:
    """Extract rev's tree into dest; its short commit id."""
    git = ["git", "-C", str(REPO)]
    commit = subprocess.run([*git, "rev-parse", "--short", f"{rev}^{{commit}}"],
                            capture_output=True, text=True, check=True).stdout.strip()
    tar = subprocess.run([*git, "archive", "--format=tar", commit],
                         capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        extra = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
        archive.extractall(dest, **extra)
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", required=True, help="git revision to compare with")
    parser.add_argument("--quick", action="store_true", help="run a subset of the matrix")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="samebytes-") as tmp:
        tmp = Path(tmp)
        commit = export(args.against, tmp / "tree")
        runs = matrix(args.quick)
        with ThreadPoolExecutor(2) as pool:
            mine, theirs = pool.map(lambda side: run_tree(side[0], tmp / side[1], runs),
                                    ((REPO, "work"), (tmp / "tree", "rev")))
    differ = compare(mine, theirs)
    for key, detail in differ:
        print(f"differs: {key}: {detail}")
    print(f"samebytes: {len(runs)} runs, {len(mine)} files, {len(differ)} differ "
          f"(working tree against {commit}{', quick' if args.quick else ''})")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
