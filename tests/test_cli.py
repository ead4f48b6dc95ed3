"""End-to-end checks of the command line front end."""

import csv
import dataclasses
import json
import time
import warnings

import numpy as np
import pytest

import fsmac.cli as cli
import fsmac.mcsim as mcsim
import fsmac.model as model
import fsmac.optimize as optimize
from conftest import oversized_channel_doc
from fsmac.examples import spec_path

MOD2 = str(spec_path("mod2-adder-noiseless"))
NULL = str(spec_path("null-channel"))


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def payload_of(out: str) -> dict:
    return json.loads(out)


def strip_timing(payload: dict) -> str:
    """Canonical bytes of a report with the volatile timing block removed."""
    clone = json.loads(json.dumps(payload))
    del clone["manifest"]["timing"]
    return json.dumps(clone, indent=2, sort_keys=True)


# --- validate ---------------------------------------------------------------

def test_validate_ok(capsys):
    rc, out, err = run(capsys, "validate", "--spec", MOD2)
    assert rc == 0
    doc = payload_of(out)
    assert doc["ok"] is True
    assert doc["strategies"] == {"a": 4, "b": 4, "pairs": 16}
    assert doc["alphabets"]["y"] == 2
    man = doc["manifest"]
    assert man["command"] == "validate"
    assert man["spec_path"] == MOD2
    assert man["version"]
    assert set(man["timing"]) == {"started_utc", "duration_s"}
    assert "ok" in err  # summary line rides stderr when stdout carries JSON


def test_validate_bad_row_exit1(tmp_path, capsys):
    doc = json.loads(spec_path("mod2-adder-noiseless").read_text())
    doc["state_pmf"] = [0.7, 0.7]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "validate", "--spec", str(bad))
    assert rc == 1
    assert "row" in err and "state_pmf" in err


def test_validate_bad_row_message_prints_plain_numbers(tmp_path, capsys):
    # a row of a 2-D array is named by a plain int and its sum is a Python
    # float's repr, not "row (0,)" and "np.float64(1.4)"
    doc = json.loads(spec_path("mod2-adder-noiseless").read_text())
    doc["obs_a"][0] = [0.7, 0.7]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "validate", "--spec", str(bad))
    assert (rc, out) == (1, "")
    assert err == "fsmac: error: obs_a: row 0 sums to 1.4, expected 1 within 1e-09\n"


@pytest.mark.parametrize("labels", [{"xa": 5}, {"y": ["one"]}])
def test_validate_bad_labels_exit1(tmp_path, capsys, labels):
    doc = json.loads(spec_path("mod2-adder-noiseless").read_text())
    doc["labels"] = labels
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, _, err = run(capsys, "validate", "--spec", str(bad))
    assert rc == 1
    assert "labels:" in err


def test_validate_missing_file_exit2(capsys):
    rc, _, err = run(capsys, "validate", "--spec", "/nonexistent/spec.json")
    assert rc == 2
    assert "error" in err


def test_validate_malformed_json_exit2(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    rc, _, err = run(capsys, "validate", "--spec", str(bad))
    assert rc == 2


def test_strategy_cap_is_a_usage_error(capsys):
    # the channel cell cap is the only strategy-space guard, and it has no knob
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--spec", MOD2, "--strategy-cap", "10000000"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["validate", "sumrate"])
def test_oversized_channel_exit1_before_building_it(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(oversized_channel_doc()))

    def refuse(*args, **kwargs):
        raise AssertionError("strategy channel built before the guard")

    monkeypatch.setattr(cli, "induced_strategy_channel", refuse)
    rc, _, err = run(capsys, command, "--spec", str(path))
    assert rc == 1
    assert "channel cell cap" in err and "2147483648 cells" in err


# --- sumrate ----------------------------------------------------------------

def test_sumrate_payload(capsys):
    rc, out, err = run(capsys, "sumrate", "--spec", MOD2)
    assert rc == 0
    doc = payload_of(out)
    assert set(doc) == {"value", "policy", "restarts_used", "converged", "best_restart",
                        "iterations", "history", "kkt_gaps", "manifest"}
    assert doc["value"] == pytest.approx(1.0, abs=1e-6)
    assert doc["restarts_used"] == 16
    assert doc["converged"] is True
    # how the best restart got there: one history entry per round plus its start
    assert 0 <= doc["best_restart"] < 16
    assert len(doc["history"]) == doc["iterations"] + 1
    assert doc["history"][-1] == doc["value"]
    assert set(doc["kkt_gaps"]) == {"a", "b"}
    assert all(0.0 <= gap < 1e-4 for gap in doc["kkt_gaps"].values())
    assert len(doc["policy"]["pi_a"]) == 4
    assert len(doc["policy"]["pi_b"]) == 4
    assert "C_sum = 1.000000 bits" in err


def test_sumrate_grid_oracle_block(capsys):
    rc, out, _ = run(capsys, "sumrate", "--spec", MOD2, "--resolution", "30")
    assert rc == 0
    doc = payload_of(out)
    assert doc["grid_oracle"]["resolution"] == 30
    assert doc["grid_oracle"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_sumrate_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    rc, out, err = run(capsys, "sumrate", "--spec", MOD2, "--out", str(out_path))
    assert rc == 0
    assert out.strip() == "C_sum = 1.000000 bits"  # summary moves to stdout
    assert err == ""
    doc = json.loads(out_path.read_text())
    assert doc["value"] == pytest.approx(1.0, abs=1e-6)


def _strategy_spec_256(tmp_path) -> str:
    """A spec with 256 x 256 strategies: admitted, but far over the oracle's 4."""
    sizes = {"xa": 2, "xb": 2, "s": 4, "sa": 8, "sb": 8, "y": 4}
    path = tmp_path / "large.json"
    path.write_text(json.dumps({
        "alphabets": sizes,
        "state_pmf": [0.25] * 4,
        "obs_a": np.full((4, 8), 1 / 8).tolist(),
        "obs_b": np.full((4, 8), 1 / 8).tolist(),
        "channel": np.full((4, 2, 2, 4), 1 / 4).tolist(),
    }))
    return str(path)


@pytest.mark.parametrize("resolution, spec, message", [
    ("0", MOD2, "resolution must be >= 1, got 0"),
    ("10", None, "strategy spaces 256 x 256 exceed 4 per sender"),
    ("1000", MOD2, "grid oracle guard: 1002001 x 1002001 grid points"),
    ("250", MOD2, "pair guard: 63001 x 63001 policy pairs"),
], ids=["resolution", "strategies", "grid-points", "pairs"])
def test_sumrate_oracle_guards_exit1_before_the_ascent(tmp_path, capsys, monkeypatch,
                                                        resolution, spec, message):
    def refuse(*args, **kwargs):
        raise AssertionError("ascent run before the oracle's guards")

    monkeypatch.setattr(cli, "maximize_sum_rate", refuse)
    rc, out, err = run(capsys, "sumrate", "--spec", spec or _strategy_spec_256(tmp_path),
                       "--resolution", resolution)
    assert rc == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("command, rows", [
    (["sumrate", "--restarts", "3"], 3),
    (["region", "--restarts", "2", "--directions", "4", "--out", "hull.csv"], 10),
    (["simulate", "--n", "4", "--ra", "0.2", "--rb", "0.2"], 16),
], ids=["sumrate", "region", "simulate"])
def test_ascent_work_guard_exit1_before_the_objective(capsys, monkeypatch, command, rows):
    # the cap is patched down to just under this command's count; no ascent
    # the real cap refuses is ever run
    def refuse(*args):
        raise AssertionError("objective built before the work guard")

    per_row = 4 * 4 + optimize._row_cells((2, 4, 4, 2))   # the adder: S = Y = 2, 4 x 4
    work = rows * per_row * optimize.MAX_ITERS
    monkeypatch.setattr(optimize, "ASCENT_WORK_CAP", work - 1)
    monkeypatch.setattr(optimize, "_Objective", refuse)
    rc, out, err = run(capsys, *command, "--spec", MOD2)
    assert (rc, out) == (1, "")
    assert f"ascent work guard: {rows} rows x {per_row} cells x {optimize.MAX_ITERS} rounds = " \
           f"{work} exceed cap {work - 1}" in err


# --- region -----------------------------------------------------------------

def test_region_files(tmp_path, capsys):
    hull = tmp_path / "hull.csv"
    pent = tmp_path / "pentagons.csv"
    rc, out, _ = run(capsys, "region", "--spec", MOD2, "--out", str(hull),
                     "--csv", str(pent), "--directions", "5")
    assert rc == 0
    assert "hull vertices" in out

    with open(hull, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["ra", "rb"]
    verts = np.array([[float(a), float(b)] for a, b in rows[1:]])
    assert verts.shape == (3, 2)
    np.testing.assert_allclose(verts, [[0, 0], [1, 0], [0, 1]], atol=1e-5)

    side = json.loads((tmp_path / "hull.csv.json").read_text())
    assert side["outer_sum_value"] == pytest.approx(1.0, abs=1e-6)
    # the sum-rate entry reads as sumrate's report of the same restarts does
    rc, out, _ = run(capsys, "sumrate", "--spec", MOD2)
    sumrate = payload_of(out)
    assert side["outer_sum"] == {key: sumrate[key] for key in (
        "converged", "best_restart", "iterations", "history", "kkt_gaps")}
    np.testing.assert_allclose(np.array(side["vertices"]), verts, atol=0)
    assert side["manifest"]["command"] == "region"

    with open(pent, newline="") as fh:
        prows = list(csv.reader(fh))
    assert prows[0] == ["direction_a", "direction_b",
                        "bound_a", "bound_b", "bound_sum"]
    assert len(prows) == 1 + 5  # one row per traced direction
    for row in prows[1:]:
        a, b, c = (float(x) for x in row[2:])
        assert max(a, b) <= c + 1e-9 <= a + b + 2e-9


def test_region_requires_out(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["region", "--spec", MOD2])
    assert exc.value.code == 2


def test_region_null_channel_origin(tmp_path, capsys):
    hull = tmp_path / "hull.csv"
    rc, _, _ = run(capsys, "region", "--spec", NULL, "--out", str(hull),
                   "--directions", "3")
    assert rc == 0
    with open(hull, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["ra", "rb"], ["0", "0"]]


# --- simulate ---------------------------------------------------------------

@pytest.fixture()
def two_strategy_policy(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"pi_a": [0.5, 0, 0, 0.5],
                                "pi_b": [0.5, 0, 0, 0.5]}))
    return str(path)


def test_simulate_reports_and_csv(tmp_path, capsys, two_strategy_policy):
    sweep = tmp_path / "sweep.csv"
    rc, out, err = run(capsys, "simulate", "--spec", MOD2,
                       "--policy", two_strategy_policy,
                       "--n", "4", "8", "--ra", "0.25", "--rb", "0.25",
                       "--trials", "40", "--csv", str(sweep))
    assert rc == 0
    doc = payload_of(out)
    reports = doc["reports"]
    assert [r["blocklength"] for r in reports] == [4, 8]
    for rep in reports:
        assert rep["errors"] == (rep["no_typical_count"]
                                 + rep["decoder_ambiguous_count"]
                                 + rep["wrong_decode_count"])
        assert rep["trials"] == 40
        assert 0.0 <= rep["wilson_low"] <= rep["error_rate"] <= rep["wilson_high"] <= 1.0
    assert "P_err(n=4)" in err and "P_err(n=8)" in err

    with open(sweep, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "n"
    assert len(rows) == 3
    for row, rep in zip(rows[1:], reports):
        assert int(row[0]) == rep["blocklength"]
        assert int(row[4]) == rep["errors"]
        assert float(row[5]) == rep["error_rate"]


def test_simulate_default_policy_is_optimized(capsys):
    rc, out, _ = run(capsys, "simulate", "--spec", MOD2, "--n", "4",
                     "--ra", "0.2", "--rb", "0.2", "--trials", "10")
    assert rc == 0
    doc = payload_of(out)
    assert doc["manifest"]["options"]["policy"] is None
    assert doc["reports"][0]["trials"] == 10


def test_simulate_message_guard_exit1(capsys, two_strategy_policy):
    rc, _, err = run(capsys, "simulate", "--spec", MOD2,
                     "--policy", two_strategy_policy,
                     "--n", "30", "--ra", "1.0", "--rb", "1.0",
                     "--trials", "5")
    assert rc == 1
    assert "guard" in err


@pytest.mark.parametrize("rates", [
    ["--n", "2000", "--ra", "1", "--rb", "1"],   # 2.0 ** 2000 overflows a float
    ["--n", "4", "--ra", "inf", "--rb", "0.2"],
    ["--n", "1000000000", "--ra", "0", "--rb", "0"],   # zero rates, over the blocklength cap
    # within the codebook cap, but a trial would hold about 2 GB of letters
    ["--n", "8388608", "--ra", "0", "--rb", "0", "--trials", "1"],
    ["--n", "4", "--ra", "0.2", "--rb", "0.2", "--trials", str((1 << 20) + 1)],
])
def test_simulate_overflowing_rates_exit1(capsys, two_strategy_policy, rates):
    rc, out, err = run(capsys, "simulate", "--spec", MOD2,
                       "--policy", two_strategy_policy, "--trials", "5", *rates)
    assert rc == 1
    assert out == ""
    assert err.startswith("fsmac: error:") and "Traceback" not in err
    assert err.count("\n") == 1


def test_simulate_bad_decoder_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--spec", MOD2, "--n", "4",
                  "--ra", "0.2", "--rb", "0.2", "--decoder", "bogus"])
    assert exc.value.code == 2


def test_simulate_bad_policy_key_exit1(tmp_path, capsys):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"pi_a": [1, 0, 0, 0], "pi_b": [1, 0, 0, 0],
                                "extra": 1}))
    rc, _, err = run(capsys, "simulate", "--spec", MOD2, "--policy", str(path),
                     "--n", "4", "--ra", "0.2", "--rb", "0.2", "--trials", "5")
    assert rc == 1
    assert "extra" in err


# --- malformed input --------------------------------------------------------

def _spec_doc(**changes) -> bytes:
    return json.dumps(json.loads(spec_path("mod2-adder-noiseless").read_text())
                      | changes).encode()


UNDECODABLE = b"\xff\xfe\xfa\x00\x01"  # a UTF-16 mark, then an odd byte count
TOO_DEEP = b"[" * 100_000 + b"]" * 100_000  # beyond the JSON parser's recursion limit
LONG_INTEGER = b"1" * 5000


def _uniform_spec(xa, s, sa) -> bytes:
    """A valid spec with sender b and the output trivial: xb = sb = y = 1."""
    return json.dumps({
        "alphabets": {"xa": xa, "xb": 1, "s": s, "sa": sa, "sb": 1, "y": 1},
        "state_pmf": [1 / s] * s,
        "obs_a": [[1 / sa] * sa] * s,
        "obs_b": [[1.0]] * s,
        "channel": [[[[1.0]]] * xa] * s,
    }).encode()


SPEC_INPUTS = {             # malformed spec bytes and the exit code they earn
    "undecodable": (UNDECODABLE, 2),
    "too-deep": (TOO_DEEP, 2),
    "not-an-object": (b"[1, 2]", 2),
    "non-numeric": (_spec_doc(state_pmf=["a", "b"]), 1),
    "oversized": (_spec_doc(), 2),   # a good spec, one byte over a cap patched small
    # 2000**2000 strategies: a count of 6,603 digits, never built or printed
    "huge-alphabets": (_uniform_spec(2000, 1, 2000), 1),
    # 1025 strategies and a q of 16,400 cells, but sender a's input law
    # S*A*Xa is 16 * 1025 * 1025 cells
    "input-law": (_uniform_spec(1025, 16, 1), 1),
    # a row whose sum overflows to inf: refused, without numpy's overflow warning
    "overflowing": (_spec_doc(state_pmf=[1e308, 1e308]), 1),
    # an integer too large for a float once raised numpy's OverflowError
    "huge-integer": (_spec_doc(state_pmf=[10**400, 0]), 1),
    # one longer than the 4300 digits json.loads parses: bad JSON, not a bad value
    "long-integer": (_spec_doc(state_pmf=["LONG", 0]).replace(b'"LONG"', LONG_INTEGER), 2),
}
POLICY_INPUTS = {
    "undecodable": (UNDECODABLE, 2),
    "too-deep": (TOO_DEEP, 2),
    "not-an-object": (b'"policy"', 2),
    "non-numeric": (json.dumps({"pi_a": ["a", 0, 0, 1], "pi_b": [1, 0, 0, 0]}).encode(), 1),
    "dict-pmf": (json.dumps({"pi_a": {"x": 1}, "pi_b": [1, 0, 0, 0]}).encode(), 1),
    # one entry per strategy, 4 a sender here
    "too-long": (json.dumps({"pi_a": [0.2] * 5, "pi_b": [1, 0, 0, 0]}).encode(), 1),
    "too-short": (json.dumps({"pi_a": [0.5, 0.5], "pi_b": [1, 0, 0, 0]}).encode(), 1),
    # sums of inf and nan: refused, without numpy's overflow or invalid-value warning
    "overflowing": (json.dumps({"pi_a": [1e308, 1e308, 0, 0], "pi_b": [1, 0, 0, 0]}).encode(), 1),
    "opposite-infinities": (b'{"pi_a": [Infinity, -Infinity, 0, 0], "pi_b": [1, 0, 0, 0]}', 1),
    "huge-integer": (json.dumps({"pi_a": [10**400, 0, 0, 0], "pi_b": [1, 0, 0, 0]}).encode(), 1),
    "long-integer": (b'{"pi_a": [' + LONG_INTEGER + b', 0, 0, 0], "pi_b": [1, 0, 0, 0]}', 2),
}
SIMULATE = ["simulate", "--n", "4", "--ra", "0.2", "--rb", "0.2", "--trials", "5"]


def _one_error_line(err: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("fsmac: error:") and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["validate"], ["sumrate"], ["region", "--out", "hull.csv"], SIMULATE,
    ["verify-converse", "--trials", "2"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("kind", SPEC_INPUTS)
def test_bad_spec_never_tracebacks(tmp_path, capsys, monkeypatch, command, kind):
    # an exception escaping main would print a traceback; main must turn
    # every malformed input into one error line and exit 1 or 2
    monkeypatch.chdir(tmp_path)
    raw, code = SPEC_INPUTS[kind]
    (tmp_path / "spec.json").write_bytes(raw)
    if kind == "oversized":
        monkeypatch.setattr(model, "SPEC_BYTE_CAP", len(raw) - 1)
    rc, out, err = run(capsys, *command, "--spec", "spec.json")
    assert (rc, out) == (code, "")
    assert _one_error_line(err) and len(err.splitlines()[0]) <= 300, err
    if kind in ("huge-alphabets", "input-law"):
        assert err.startswith("fsmac: error: channel cell cap: "), err
    if kind in ("non-numeric", "huge-integer"):
        assert "state_pmf: not a numeric array" in err, err
    if kind == "long-integer":
        assert err.startswith("fsmac: error: spec.json: "), err
    if kind == "oversized":
        assert f"spec file exceeds {len(raw) - 1} bytes" in err
    if kind == "overflowing":
        assert "state_pmf: row 0 sums to inf" in err, err


@pytest.mark.parametrize("kind", POLICY_INPUTS)
def test_bad_policy_never_tracebacks(tmp_path, capsys, kind):
    raw, code = POLICY_INPUTS[kind]
    path = tmp_path / "policy.json"
    path.write_bytes(raw)
    for decoder in ("typicality", "max_likelihood"):
        rc, out, err = run(capsys, *SIMULATE, "--spec", MOD2, "--policy", str(path),
                           "--decoder", decoder)
        assert (rc, out) == (code, ""), decoder
        assert _one_error_line(err), err
        if kind in ("non-numeric", "dict-pmf", "huge-integer"):
            assert "pi_a: not a numeric array" in err, err
        if kind == "long-integer":
            assert err.startswith(f"fsmac: error: {path}: "), err
        if kind in ("too-long", "too-short"):
            length = len(json.loads(raw)["pi_a"])
            assert f"pi_a: length {length} does not match 4 strategies" in err, err
        if kind == "overflowing":
            assert "pi_a: row 0 sums to inf, expected 1 within 1e-09" in err, err


# --- determinism ------------------------------------------------------------

def test_reports_byte_identical_across_runs_and_threads(capsys, two_strategy_policy):
    for decoder in ("typicality", "max_likelihood"):
        argv = ["simulate", "--spec", MOD2, "--policy", two_strategy_policy,
                "--n", "4", "6", "--ra", "0.25", "--rb", "0.25", "--trials", "30",
                "--decoder", decoder]
        outs = []
        for extra in ([], [], ["--threads", "1"], ["--threads", "3"]):
            rc = cli.main(argv + extra)
            assert rc == 0
            outs.append(strip_timing(json.loads(capsys.readouterr().out)))
        assert outs[0] == outs[1] == outs[2] == outs[3], decoder
        # the decoder counters are part of each report, so deterministic too
        assert all(rep["diagnostics"]["pairs"] > 0 for rep in json.loads(outs[0])["reports"])


def test_sumrate_byte_identical_across_threads(capsys):
    outs = []
    for extra in ([], ["--threads", "4"]):
        rc = cli.main(["sumrate", "--spec", MOD2] + extra)
        assert rc == 0
        outs.append(strip_timing(json.loads(capsys.readouterr().out)))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("command", [
    ["sumrate"],
    ["region", "--out", "hull.csv"],
    ["simulate", "--n", "4", "--ra", "0.2", "--rb", "0.2"],
])
@pytest.mark.parametrize("threads", ["0", "-1", "65"])
def test_threads_out_of_range_exit1(capsys, command, threads):
    # a missing spec would exit 2: exit 1 shows the count is refused first
    rc, out, err = run(capsys, *command, "--spec", "/nonexistent/spec.json",
                       "--threads", threads)
    assert rc == 1
    assert out == ""
    assert f"threads must be in [1, {cli.THREADS_CAP}], got {threads}" in err


# --- manifest ---------------------------------------------------------------

SPEC_OPTIONS = {"spec"}


def test_manifest_options_echo(tmp_path, capsys, two_strategy_policy):
    hull = tmp_path / "hull.csv"
    cases = [
        (["validate"], SPEC_OPTIONS, None),
        (["sumrate", "--restarts", "2"],
         SPEC_OPTIONS | {"restarts", "resolution", "out"}, None),
        (["region", "--restarts", "2", "--directions", "3", "--out", str(hull)],
         SPEC_OPTIONS | {"restarts", "directions", "out", "csv"},
         tmp_path / "hull.csv.json"),
        (["simulate", "--policy", two_strategy_policy, "--n", "4",
          "--ra", "0.2", "--rb", "0.2", "--trials", "5"],
         SPEC_OPTIONS | {"policy", "n", "ra", "rb", "eps", "trials", "decoder",
                         "out", "csv"}, None),
        (["verify-converse", "--n", "2", "--trials", "1"],
         SPEC_OPTIONS | {"n", "trials", "out"}, None),
    ]
    for argv, keys, report in cases:
        rc, out, _ = run(capsys, *argv, "--spec", MOD2, "--seed", "5")
        assert rc == 0
        man = json.loads(report.read_text() if report else out)["manifest"]
        assert man["command"] == argv[0]
        assert set(man["options"]) == keys, argv[0]
        assert man["options"]["spec"] == MOD2
        assert man["seed"] == (0 if argv[0] == "validate" else 5)


def test_rows_off_one_within_tolerance_run_every_command(tmp_path, capsys):
    # every row of the bsc adder scaled by 1 + 0.9e-9 passes the pmf check;
    # unscaled, the row errors compounded in q and the joint law, and
    # sumrate, region and simulate exited 3 and verify-converse 1
    doc = json.loads(spec_path("mod2-adder-bsc01").read_text())
    for key in ("state_pmf", "obs_a", "obs_b", "channel"):
        doc[key] = (np.array(doc[key]) * (1 + 0.9e-9)).tolist()
    spec = tmp_path / "scaled.json"
    spec.write_text(json.dumps(doc))
    for argv in (["sumrate", "--restarts", "2"],
                 ["region", "--restarts", "2", "--directions", "3",
                  "--out", str(tmp_path / "hull.csv")],
                 ["simulate", "--n", "4", "--ra", "0.2", "--rb", "0.2", "--trials", "10"],
                 ["verify-converse", "--n", "2", "--trials", "2"]):
        rc, _, err = run(capsys, *argv, "--spec", str(spec))
        assert rc == 0, (argv[0], err)


def test_one_symbol_spec_reports_exactly_zero(tmp_path, capsys):
    # every alphabet of size 1, so every rate is 0; the ascent's value came
    # out 1.6e-16 above log2 |Y| = 0 and was reported unclamped, and so were
    # pentagon-table bounds up to 3.2e-16
    spec = tmp_path / "ones.json"
    spec.write_bytes(_uniform_spec(1, 1, 1))
    rc, out, err = run(capsys, "sumrate", "--restarts", "2", "--spec", str(spec))
    assert rc == 0, err
    assert payload_of(out)["value"] == 0.0
    rc, out, err = run(capsys, "sumrate", "--restarts", "2", "--resolution", "2",
                       "--spec", str(spec))
    assert rc == 0, err
    assert payload_of(out)["grid_oracle"]["value"] == 0.0
    hull, table = tmp_path / "hull.csv", tmp_path / "pentagons.csv"
    rc, _, err = run(capsys, "region", "--restarts", "2", "--spec", str(spec),
                     "--out", str(hull), "--csv", str(table))
    assert rc == 0, err
    assert json.loads((tmp_path / "hull.csv.json").read_text())["outer_sum_value"] == 0.0
    with table.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 33
    assert all(float(row[key]) == 0.0 for row in rows
               for key in ("bound_a", "bound_b", "bound_sum")), rows


# --- verify-converse --------------------------------------------------------

def test_verify_converse_clean_exit0(capsys):
    rc, out, err = run(capsys, "verify-converse", "--spec", MOD2,
                       "--n", "2", "--trials", "5")
    assert rc == 0
    doc = payload_of(out)
    assert doc["max_deviation"] < 1e-12
    assert doc["trials"] == 5
    assert set(doc["worst_case"]) == {"t", "sigma"}
    assert "max deviation" in err


def test_verify_converse_breach_exit3(capsys, monkeypatch):
    # Force the tolerance below any achievable deviation to drive the
    # breach path without breaking the library itself.
    monkeypatch.setattr(cli, "CONVERSE_TOL", -1.0)
    rc, out, err = run(capsys, "verify-converse", "--spec", MOD2,
                       "--n", "2", "--trials", "2")
    assert rc == 3
    assert "EXCEEDS" in err
    assert payload_of(out)["trials"] == 2  # report still emitted


def test_non_finite_report_exits3(tmp_path, capsys, monkeypatch):
    # a NaN reaching a report is a bug upstream: the dump refuses it, so no
    # report carries a bare NaN token that strict JSON parsers reject
    optimum = cli.maximize_sum_rate
    monkeypatch.setattr(cli, "maximize_sum_rate", lambda *args: dataclasses.replace(
        optimum(*args), value=float("nan")))
    path = tmp_path / "report.json"
    rc, out, err = run(capsys, "sumrate", "--spec", MOD2, "--restarts", "1", "--out", str(path))
    assert (rc, out) == (3, "")
    assert err.startswith("fsmac: internal invariant violated: report holds a NaN"), err
    assert not path.exists()


def test_verify_converse_huge_blocklength_exit1_fast(capsys):
    # the guard counts stop at their caps: n = 10**5 once took 37 s, and from
    # n of about 15,000 up the error was an integer-to-string conversion limit
    started = time.monotonic()
    rc, out, err = run(capsys, "verify-converse", "--spec", MOD2,
                       "--n", "1000000", "--trials", "1")
    assert time.monotonic() - started < 1.0
    assert (rc, out) == (1, "")
    assert err.count("\n") == 1, err
    assert "encoder map guard: blocklength 1000000" in err


def test_verify_converse_work_guard_exit1_fast(capsys, monkeypatch):
    # n 12 passes the history and encoder map guards, but its sweep adds
    # 6.3e11 literal terms; it once ran for hours
    def refuse(*args, **kwargs):
        raise AssertionError("code drawn before the converse work guard")

    monkeypatch.setattr(cli, "random_encoders", refuse)
    started = time.monotonic()
    rc, out, err = run(capsys, "verify-converse", "--spec", str(spec_path("mod2-adder-bsc01")),
                       "--n", "12", "--trials", "1")
    assert time.monotonic() - started < 1.0
    assert (rc, out) == (1, "")
    assert _one_error_line(err), err
    assert "converse work guard: blocklength 12 over 1 codes adds more than" in err


# one ML trial on null-channel at n 2000 has 1024 x 1024 messages: it counts
# 2.1e9 pair letters and took about 4 s
NULL_ML = ["simulate", "--spec", NULL, "--ra", "0.005", "--rb", "0.005",
           "--decoder", "max_likelihood"]


@pytest.mark.parametrize("argv, work", [
    ([*NULL_ML, "--n", "2000", "--trials", str(1 << 20)], (1 << 20) * 1024 * 1024 * 2000),
    ([*NULL_ML, "--n", "2000", "--trials", "3"], 3 * 1024 * 1024 * 2000),
    # each blocklength alone is under the cap, their sum is not
    ([*NULL_ML, "--n", "1800", "2000", "--trials", "2"], 2 * (512**2 * 1800 + 1024**2 * 2000)),
], ids=["2^20-trials", "just-over", "summed-over-n"])
@pytest.mark.parametrize("policy", [True, False], ids=["policy", "optimized"])
def test_simulate_work_guard_exit1_fast(tmp_path, capsys, monkeypatch, argv, work, policy):
    def refuse(*args, **kwargs):
        raise AssertionError("policy optimized or trial run before the simulation work guard")

    monkeypatch.setattr(cli, "maximize_sum_rate", refuse)
    monkeypatch.setattr(cli, "estimate_error", refuse)
    if policy:
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"pi_a": [0.4, 0.1, 0.2, 0.3], "pi_b": [0.3, 0.2, 0.1, 0.4]}))
        argv = [*argv, "--policy", str(path)]
    started = time.monotonic()
    rc, out, err = run(capsys, *argv)
    assert time.monotonic() - started < 1.0
    assert (rc, out) == (1, "")
    assert _one_error_line(err), err
    assert (f"simulation work guard: trials x messages_a x messages_b x n sums to {work}, "
            f"over cap {mcsim.SIM_WORK_CAP}") in err, err


def test_verify_converse_seed_changes_codes(capsys):
    rc, out, _ = run(capsys, "verify-converse", "--spec", MOD2,
                     "--n", "3", "--trials", "3", "--seed", "7")
    assert rc == 0
    assert payload_of(out)["max_deviation"] < 1e-12


@pytest.mark.parametrize("command", [
    ["verify-converse"],
    ["simulate", "--n", "4", "--ra", "0.2", "--rb", "0.2"],
], ids=["verify-converse", "simulate"])
@pytest.mark.parametrize("trials", ["0", "-3"])
def test_nonpositive_trials_exit1_before_the_spec(capsys, monkeypatch, command, trials):
    # verify-converse --trials 0 used to pass an audit of no codes
    def refuse(*args, **kwargs):
        raise AssertionError("spec read before the trial count was checked")

    monkeypatch.setattr(cli, "load_spec", refuse)
    rc, out, err = run(capsys, *command, "--spec", MOD2, "--trials", trials)
    assert rc == 1
    assert out == ""
    assert f"trials must be >= 1, got {trials}" in err


@pytest.mark.parametrize("command", [
    ["verify-converse"],
    ["simulate", "--n", "4", "--ra", "0.2", "--rb", "0.2"],
], ids=["verify-converse", "simulate"])
def test_trials_over_cap_exit1_before_the_spec(capsys, monkeypatch, command):
    # verify-converse once took any count, at about 5 ms a trial
    def refuse(*args, **kwargs):
        raise AssertionError("spec read before the trial count was checked")

    monkeypatch.setattr(cli, "load_spec", refuse)
    trials = 100_000_000_000_000
    rc, out, err = run(capsys, *command, "--spec", MOD2, "--trials", str(trials))
    assert (rc, out) == (1, "")
    assert _one_error_line(err), err
    assert f"trial guard: {trials} trials exceed cap {mcsim.TRIAL_CAP}" in err


def test_trials_help_follows_the_cap(capsys, monkeypatch):
    def trials_help():
        with pytest.raises(SystemExit):
            cli.main(["verify-converse", "--help"])
        return " ".join(capsys.readouterr().out.split())  # argparse wraps lines

    assert "number of random encoder pairs, in [1, 2**20]" in trials_help()
    monkeypatch.setattr(mcsim, "TRIAL_CAP", 1 << 10)
    assert "number of random encoder pairs, in [1, 2**10]" in trials_help()


# --- seeds ------------------------------------------------------------------

@pytest.mark.parametrize("command", [
    ["sumrate"],
    ["region", "--out", "hull.csv"],
    ["simulate", "--n", "4", "--ra", "0.2", "--rb", "0.2"],
    ["verify-converse"],
])
@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
def test_seed_out_of_range_exit1_before_any_draw(capsys, monkeypatch, command, seed):
    def refuse(*args, **kwargs):
        raise AssertionError("work drawn from a seed outside [0, 2**64)")

    for name in ("maximize_sum_rate", "inner_bound_region", "estimate_error",
                 "random_encoders", "load_spec"):
        monkeypatch.setattr(cli, name, refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, *command, "--spec", MOD2, "--seed", str(seed))
    assert rc == 1
    assert out == ""
    assert f"seed must be in [0, 2**64), got {seed}" in err


def test_largest_seed_runs(capsys):
    rc, out, _ = run(capsys, "verify-converse", "--spec", MOD2, "--n", "2",
                     "--trials", "2", "--seed", str(2**64 - 1))
    assert rc == 0
    assert payload_of(out)["manifest"]["seed"] == 2**64 - 1
