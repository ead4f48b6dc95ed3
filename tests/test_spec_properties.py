"""Property net for spec construction: every generated spec is either refused
with one named error or accepted as read-only float64 arrays whose strategy
channel is a channel, ``fsmac validate`` agrees with the constructor, and an
accepted spec runs ``sumrate``, ``verify-converse``, ``region`` and
``simulate`` under both decoders to exit 0, with every reported rate in
[0, log2 |Y|], every hull vertex finite and under the sum rate, and outcome
counts that add up."""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from fsmac import cli
from fsmac.errors import GuardError, ValidationError
from fsmac.model import PMF_ATOL, FsMacSpec, induced_strategy_channel

EXAMPLES = 200
SIM_TRIALS = 3   # per decoder, on each accepted spec
ROW_KINDS = ("dense", "one-hot", "denormal", "under-tol", "over-tol")
ARRAYS = ("state_pmf", "obs_a", "obs_b", "channel")
# rows are rescaled to sum to 1, so a q row sums to 1 within a few ulps
# (at most 3 over 20,000 random specs of this net's sizes)
Q_ROW_SLACK = 8 * np.finfo(np.float64).eps


def _rows(rng, shape, kind) -> np.ndarray:
    """An array of the given shape whose last-axis rows are of one kind:
    Dirichlet draws, point masses, point masses beside a 5e-324 entry, or
    Dirichlet draws scaled to sum off 1 by half or twice PMF_ATOL."""
    lead, width = shape[:-1], shape[-1]
    if width == 0:
        return np.zeros(shape)
    if kind in ("one-hot", "denormal"):
        hot = rng.integers(0, width, size=lead)
        rows = np.eye(width)[hot]
        if kind == "denormal" and width > 1:
            np.put_along_axis(rows, ((hot + 1) % width)[..., None], 5e-324, axis=-1)
        return rows
    rows = rng.dirichlet(np.ones(width), size=int(np.prod(lead, dtype=int))).reshape(shape)
    scale = {"dense": 0.0, "under-tol": 0.5, "over-tol": 2.0}[kind]
    return rows * (1 + scale * PMF_ATOL)


@st.composite
def spec_args(draw) -> dict:
    """FsMacSpec's arguments: alphabets of 1-3 symbols, and each array's
    shape right or off by one on one axis, with rows of one drawn kind."""
    sizes = {key: draw(st.integers(1, 3)) for key in ("xa", "xb", "s", "sa", "sb", "y")}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    args = {f"size_{key}": size for key, size in sizes.items()}
    shapes = {"state_pmf": ("s",), "obs_a": ("s", "sa"), "obs_b": ("s", "sb"),
              "channel": ("s", "xa", "xb", "y")}
    for name, axes in shapes.items():
        shape = [sizes[axis] for axis in axes]
        if draw(st.integers(0, 3)) == 0:   # one array in four is misshapen
            shape[draw(st.integers(0, len(shape) - 1))] += draw(st.sampled_from([-1, 1]))
        args[name] = _rows(rng, tuple(shape), draw(st.sampled_from(ROW_KINDS)))
    return args


def _run_doc(args, tmp: Path, *commands) -> list:
    """(exit code, stdout, stderr) of each fsmac command (an argv without
    --spec) on args as the JSON spec tmp/spec.json. A report goes to stdout,
    the summary or error line to stderr."""
    doc = {"alphabets": {key[5:]: args[key] for key in args if key.startswith("size_")},
           **{name: args[name].tolist() for name in ARRAYS}}
    path = tmp / "spec.json"
    path.write_text(json.dumps(doc))
    results = []
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--spec", str(path)])
        results.append((code, out.getvalue(), err.getvalue()))
    return results


def _csv_rows(path: Path) -> list:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def _check_region(tmp: Path, cap: float) -> None:
    """The region's files: every hull vertex finite with ra + rb at most the
    sum rate + 1e-6, and every pentagon-table bound in [0, log2 |Y|]."""
    outer = json.loads((tmp / "hull.csv.json").read_text())["outer_sum_value"]
    for row in _csv_rows(tmp / "hull.csv"):
        ra, rb = float(row["ra"]), float(row["rb"])
        assert math.isfinite(ra) and math.isfinite(rb) and ra + rb <= outer + 1e-6, (row, outer)
    for row in _csv_rows(tmp / "pentagons.csv"):
        for key in ("bound_a", "bound_b", "bound_sum"):
            assert 0.0 <= float(row[key]) <= cap, row


def _check_simulate(out: str, trials: int) -> None:
    """Each report's outcome counts: the three error kinds add up to the
    errors, which are at most the trials run."""
    for rep in json.loads(out)["reports"]:
        kinds = rep["no_typical_count"] + rep["decoder_ambiguous_count"] + rep["wrong_decode_count"]
        assert rep["trials"] == trials and 0 <= kinds == rep["errors"] <= trials, rep


# No example database and no explain phase. A failure still writes a patch
# file under .hypothesis/patches/ (hypothesis 6.155.2 does), which .gitignore
# covers.
@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          phases=[Phase.explicit, Phase.generate, Phase.shrink],
          suppress_health_check=[HealthCheck.too_slow])
@given(spec_args())
def test_a_spec_is_refused_by_name_or_is_a_channel(args):
    try:
        spec = FsMacSpec(**args)
    except (ValidationError, GuardError):
        accepted = False
    else:
        accepted = True
        for name in ARRAYS:
            arr = getattr(spec, name)
            assert arr.dtype == np.float64 and not arr.flags.writeable, name
        # every row is rescaled on construction, so a q row, which mixes an
        # obs_a, an obs_b and a channel row, sums to 1 within rounding
        sums = induced_strategy_channel(spec).q.sum(axis=-1)
        assert np.all(np.abs(sums - 1) <= Q_ROW_SLACK), sums

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        commands = [["validate"]]
        if accepted:
            count_a, count_b = spec.size_xa ** spec.size_sa, spec.size_xb ** spec.size_sb
            policy = tmp / "policy.json"
            policy.write_text(json.dumps({"pi_a": [1 / count_a] * count_a,
                                          "pi_b": [1 / count_b] * count_b}))
            simulate = ["simulate", "--policy", str(policy), "--n", "2", "--ra", "0.5",
                        "--rb", "0.5", "--trials", str(SIM_TRIALS)]
            commands += [["sumrate", "--restarts", "2"],
                         ["verify-converse", "--n", "2", "--trials", "1"],
                         ["region", "--restarts", "2", "--directions", "3",
                          "--out", str(tmp / "hull.csv"), "--csv", str(tmp / "pentagons.csv")],
                         [*simulate, "--decoder", "typicality"],
                         [*simulate, "--decoder", "max_likelihood"]]
        (code, out, err), *runs = _run_doc(args, tmp, *commands)
        if not accepted:
            lines = err.splitlines()
            assert (code, out, len(lines)) == (1, "", 1), err
            assert lines[0].startswith("fsmac: error: "), err
            return
        assert code == 0 and json.loads(out)["ok"] is True, err
        for run_code, _, run_err in runs:
            assert run_code == 0, run_err
        (_, sum_out, _), _, _, (_, typ_out, _), (_, ml_out, _) = runs
        cap = math.log2(spec.size_y)
        assert 0.0 <= json.loads(sum_out)["value"] <= cap, sum_out
        _check_region(tmp, cap)
        _check_simulate(typ_out, SIM_TRIALS)
        _check_simulate(ml_out, SIM_TRIALS)
