"""Property net for spec construction: every generated spec is either refused
with one named error or accepted as read-only float64 arrays whose strategy
channel is a channel, ``fsmac validate`` agrees with the constructor, and an
accepted spec runs ``sumrate`` and ``verify-converse`` to exit 0."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from fsmac import cli
from fsmac.errors import GuardError, ValidationError
from fsmac.model import PMF_ATOL, FsMacSpec, induced_strategy_channel
from fsmac.rates import PENTAGON_SLACK

EXAMPLES = 200
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


def _run_doc(args, *commands) -> list:
    """(exit code, stdout, stderr) of each fsmac command (an argv without
    --spec) on args as a JSON spec. A report goes to stdout, the summary or
    error line to stderr."""
    doc = {"alphabets": {key[5:]: args[key] for key in args if key.startswith("size_")},
           **{name: args[name].tolist() for name in ARRAYS}}
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--spec", str(path)])
            results.append((code, out.getvalue(), err.getvalue()))
    return results


# Without the explain phase, a failure writes no patch file under .hypothesis/.
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

    commands = [["validate"]]
    if accepted:
        commands += [["sumrate", "--restarts", "2"], ["verify-converse", "--n", "2", "--trials", "1"]]
    (code, out, err), *runs = _run_doc(args, *commands)
    if accepted:
        assert code == 0 and json.loads(out)["ok"] is True, err
        (sum_code, sum_out, sum_err), (conv_code, _, conv_err) = runs
        assert sum_code == 0, sum_err
        # the ascent's own range check, which admits rounding above log2 |Y|
        value = json.loads(sum_out)["value"]
        assert 0.0 <= value <= np.log2(spec.size_y) + PENTAGON_SLACK, sum_out
        assert conv_code == 0, conv_err
    else:
        lines = err.splitlines()
        assert (code, out, len(lines)) == (1, "", 1), err
        assert lines[0].startswith("fsmac: error: "), err
