"""The byte-comparison tool's stripping and comparison, on in-memory reports,
and the spec it writes for the output draw. Nothing here runs git or a
subprocess."""

import json
import runpy
from pathlib import Path

import numpy as np

from fsmac.model import induced_strategy_channel, spec_from_dict

samebytes = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "samebytes.py"))
strip_manifest = samebytes["strip_manifest"]
compare = samebytes["compare"]


def _report(value, duration) -> bytes:
    payload = {"value": value, "restarts_used": 16,
               "manifest": {"spec_path": "specs/a.json", "timing": {"duration_s": duration}}}
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def test_strip_drops_only_the_manifest():
    stripped = strip_manifest(_report(1.0, 0.25))
    assert stripped == b'{\n  "restarts_used": 16,\n  "value": 1.0\n}\n'
    assert strip_manifest(_report(1.0, 9.5)) == stripped
    for raw in (b"C_sum = 1.000000 bits\n", b"ra,rb\n0,1\n", b'{"value": 1.0}', b"[1, 2]",
                b"\xff\xfe", b""):
        assert strip_manifest(raw) == raw


def test_compare_reports_each_moved_file_with_its_largest_float_difference():
    left = {"sumrate/stdout": _report(1.0, 0.25), "sumrate/stderr": b"C_sum = 1.000000 bits\n",
            "sumrate/exit": b"0", "simulate/sweep.csv": b"n,error_rate\n4,0.25\n8,0.125\n"}
    assert compare(left, {**left, "sumrate/stdout": _report(1.0, 3.5)}) == []

    right = {**left, "sumrate/stdout": _report(1.0 - 2**-40, 0.25),
             "simulate/sweep.csv": b"n,error_rate\n4,0.25\n8,0.126\n", "sumrate/exit": b"3"}
    assert compare(left, right) == [
        ("sumrate/stdout", f"largest float difference {2**-40:.3e}"),
        ("sumrate/exit", "largest float difference 3.000e+00"),
        ("simulate/sweep.csv", "largest float difference 1.000e-03"),
    ]

    fewer = {key: value for key, value in left.items() if key != "sumrate/exit"}
    more = {**left, "region/hull.csv": b"ra,rb\n"}
    assert compare(left, fewer) == [("sumrate/exit", "only on the left")]
    assert compare(left, more) == [("region/hull.csv", "only on the right")]
    assert compare(left, {**left, "sumrate/stderr": b"fsmac: error: 1 2\n"}) == [
        ("sumrate/stderr", "numbers differ in count")]


def test_dirichlet_spec_has_channel_rows_whose_cumsum_ends_off_one():
    # the output draw divides each row's cdf by its cumsum's end, so only
    # such rows can draw another letter than a cumsum taken as it is
    chan = induced_strategy_channel(spec_from_dict(samebytes["DIRICHLET"]))
    ends = chan.q.cumsum(axis=-1)[..., -1]
    assert (np.count_nonzero(ends != 1.0), ends.size) == (8, 32)
    assert len(samebytes["UNIFORM"]["pi_a"]) == chan.space_a.count == chan.space_b.count
