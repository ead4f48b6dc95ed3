"""The benchmark's own calls into fsmac, run small.

The benchmark under ``bench/`` wraps fsmac names to time them, reads call
arguments in its span notes and calls the public API in its checks. A
signature change that breaks one of those fails here, not only in a
benchmark run. Nothing under ``bench/`` is changed: its modules are
imported as the benchmark runner imports them.
"""

import importlib
import json
from pathlib import Path

import fsmac
import fsmac.cli
from fsmac.examples import spec_path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_traced_commands_and_the_sumrate_check(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    layers, spans, workloads = (importlib.import_module(name)
                                for name in ("layers", "spans", "workloads"))
    policy = tmp_path / "constants.json"
    policy.write_text(json.dumps(workloads.CONSTANTS_POLICY))
    report = tmp_path / "sumrate.json"
    noiseless = str(spec_path("mod2-adder-noiseless"))
    commands = [
        ["sumrate", "--spec", str(spec_path("mod2-adder-bsc01")), "--restarts", "2",
         "--resolution", "4", "--out", str(report)],
        ["region", "--spec", str(spec_path("stateless-mac")), "--restarts", "2",
         "--directions", "3", "--out", str(tmp_path / "hull.csv")],
        *(["simulate", "--spec", noiseless, "--policy", str(policy), "--n", "4",
           "--ra", "0.25", "--rb", "0.25", "--trials", "10", "--decoder", decoder,
           "--out", str(tmp_path / f"{decoder}.json")]
          for decoder in ("typicality", "max_likelihood")),
        ["verify-converse", "--spec", str(spec_path("mod2-adder-bsc01")), "--n", "2",
         "--trials", "2", "--out", str(tmp_path / "converse.json")],
    ]
    tracer = spans.Tracer()
    with tracer.installed(layers.patches(fsmac)):
        for command, argv in enumerate(commands):
            tracer.command = command
            assert tracer.call("cli.command", fsmac.cli.main, (argv,)) == 0, argv
    notes = {span.name: span.info for span in tracer.spans if "note_error" in span.info}
    assert not notes, notes
    names = {span.name for span in tracer.spans}
    for name in ("optimize.sumrate", "optimize.oracle", "optimize.region", "mcsim.estimate",
                 "converse.verify"):
        assert name in names, name

    problems = workloads._check_sumrate_large(spec_path("mod2-adder-bsc01"))(fsmac, report)
    assert isinstance(problems, list), problems
