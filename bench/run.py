"""fsmac benchmark: time to a verified answer on four CLI workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sumrate-large --seed 0 --seconds 25 --trace 0

Each workload runs ``fsmac.cli.main(argv)`` in this process, with ``--out``
into a scratch directory under ``.bench_run/``, and checks every report after
the pass, outside the timed region. ``--trace 0`` repeats the pass until
``--seconds`` have gone and reports the end-to-end metrics; ``--trace 1``
runs one untraced pass, one traced pass and, for the workloads in
``THREAD_PASS``, one untraced ``--threads 2`` pass, and reports the
per-layer metrics. End-to-end times are scaled to a reference machine
speed (see calib.py) and also printed as measured. The last stdout line is
the JSON result; the lines before it name every metric with its unit, the
environment, and any failure.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 5
PROBE_KERNELS = 30
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(Path(__file__).resolve().parent))
import calib  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def import_fsmac():
    """Import fsmac from this checkout's src/, never from anywhere else."""
    if not (SRC / "fsmac" / "__init__.py").is_file():
        sys.exit(f"bench: no fsmac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import fsmac
    import fsmac.cli  # noqa: F401  (bound as an attribute for the tracer)
    if Path(fsmac.__file__).resolve().parent != (SRC / "fsmac").resolve():
        sys.exit(f"bench: imported fsmac from {fsmac.__file__}, not from {SRC}")
    return fsmac


def environment(fsmac, workload: str, seed: int) -> dict:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                    capture_output=True, text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "fsmac").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": numpy.__version__, "blas": blas,
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS") or k in
                        ("FSMAC_THREADS", "VECLIB_MAXIMUM_THREADS")},
        "git_commit": commit, "src_sha256": digest.hexdigest(), "fsmac": fsmac.__version__,
    }


def run_command(fsmac, cmd, tracer=None) -> str | None:
    """Run one fsmac command in-process; return a failure message or None."""
    sink_out, sink_err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(sink_out), contextlib.redirect_stderr(sink_err):
            if tracer is None:
                rc = fsmac.cli.main(cmd.argv)
            else:
                rc = tracer.call("cli.command", fsmac.cli.main, (cmd.argv,))
    except SystemExit as exc:
        return f"exit {exc.code}: {sink_err.getvalue().strip()}"
    except Exception as exc:  # noqa: BLE001  a crash is one failed command
        return f"{type(exc).__name__}: {exc}"
    if rc != 0:
        return f"exit {rc}: {sink_err.getvalue().strip()}"
    return None


@dataclass
class Pass:
    wall: float    # seconds as measured, less the calibration handler's time
    cpu: float
    factor: float  # to the reference speed, from the kernel sampled during the pass
    failures: list

    @property
    def wall_ref(self) -> float:
        return self.wall * self.factor

    @property
    def cpu_ref(self) -> float:
        return self.cpu * self.factor


def run_pass(fsmac, cmds, tracer=None) -> Pass:
    """Time one pass of the commands, then check their reports."""
    failures = [None] * len(cmds)
    with calib.Sampler() as sampler:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for k, cmd in enumerate(cmds):
            if tracer is not None:
                tracer.command = k
            failures[k] = run_command(fsmac, cmd, tracer)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    for k, cmd in enumerate(cmds):  # checks stay outside the timed region
        if failures[k] is None:
            try:
                problems = cmd.check(fsmac, cmd.out)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
            failures[k] = "; ".join(problems) or None
    return Pass(wall - sampler.spent_wall, cpu - sampler.spent_cpu, sampler.factor,
                [f"{c.argv[0]} #{k}: {f}" for k, (c, f) in enumerate(zip(cmds, failures)) if f])


def report_bytes(cmds) -> list:
    """Command outputs without the volatile manifest timing, for comparisons."""
    out = []
    for cmd in cmds:
        path = Path(str(cmd.out) + ".json") if cmd.argv[0] == "region" else cmd.out
        doc = json.loads(path.read_text())
        doc["manifest"].pop("timing", None)
        out.append(json.dumps(doc, sort_keys=True))
        if cmd.argv[0] == "region":
            out.append(cmd.out.read_text())
    return out


def measure_setup(workload: str, seed: int) -> tuple[list, list]:
    """Wall seconds of fresh processes that start, import fsmac and make inputs,
    as measured and at the reference speed."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe",
            "--workload", workload, "--seed", str(seed)]
    raw, ref = [], []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.exit(f"bench: set-up probe failed: {proc.stderr.strip()}")
        kernel = json.loads(proc.stdout.strip().splitlines()[-1])
        if k:  # the first probe fills the bytecode cache
            setup = elapsed - sum(kernel)
            raw.append(setup)
            ref.append(setup * calib.REFERENCE_S * len(kernel) / sum(kernel))
    return raw, ref


def probe(workload, seed: int) -> None:
    """Set up as a fresh process would, then time the calibration kernel."""
    import_fsmac()
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=RUN_DIR, prefix="probe-"))
    try:
        workload.make_inputs(ROOT, workdir, seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(calib.kernel_times(PROBE_KERNELS)))


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _samples(values) -> str:
    return f"median of {len(values)}: {', '.join(f'{v:.4g}' for v in values)}"


def end_to_end(fsmac, workload, inputs, outdir, seed, seconds):
    setup, setup_ref = measure_setup(workload.name, seed)
    cmds = workload.commands(inputs, outdir, seed, 1)
    passes = []
    start = time.perf_counter()
    # start another pass only if it should end within the measuring time
    while not passes or time.perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(run_pass(fsmac, cmds))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {
        "setup_s": (setup_ref, setup),
        "wall_s": ([p.wall_ref for p in passes], [p.wall for p in passes]),
        "cpu_s": ([p.cpu_ref for p in passes], [p.cpu for p in passes]),
    }
    result = {name: metric(statistics.median(ref), "s") for name, (ref, _) in samples.items()}
    result["peak_rss_mb"] = metric(rss_mb, "MB")
    for name, (ref, raw) in samples.items():
        print(f"{workload.name}  {name:<12} {result[name]['value']:10.4f} s   at reference "
              f"speed ({_samples(ref)}); as measured {statistics.median(raw):.4f} s "
              f"({_samples(raw)})")
    print(f"{workload.name}  peak_rss_mb  {rss_mb:10.4f} MB  (1 process)")
    failures = [f for p in passes for f in p.failures]
    return result, len(passes) * len(cmds), failures


def traced(fsmac, workload, inputs, outdir, seed, spans_path, env):
    cmds = workload.commands(inputs, outdir, seed, 1)
    plain = run_pass(fsmac, cmds)
    reference = report_bytes(cmds) if not plain.failures else None
    tracer = Tracer()
    with tracer.installed(layers.patches(fsmac)):
        with_spans = run_pass(fsmac, cmds, tracer)
    passes = [plain, with_spans]
    failures = plain.failures + with_spans.failures
    speedup = 0.0
    if workload.name in workloads.THREAD_PASS:
        cmds2 = workload.commands(inputs, outdir, seed, 2)
        threaded = run_pass(fsmac, cmds2)
        passes.append(threaded)
        failures += threaded.failures
        if (reference is not None and not threaded.failures
                and report_bytes(cmds2) != reference):
            failures.append("--threads 2 reports differ from --threads 1")
        # as measured: with two busy threads the kernel shares the cores and
        # would overstate the machine's slowdown during the threaded pass
        speedup = plain.wall / threaded.wall
    overhead = with_spans.wall_ref / plain.wall_ref - 1.0
    result = layers.metrics(tracer, overhead, speedup)
    spans_path.write_text(json.dumps({"env": env, "missing": tracer.missing,
                                      "spans": tracer.to_json()}))
    for name, m in result.items():
        print(f"{workload.name}  {name:<30} {m['value']:14.6g} {m['unit']}")
    cmd_s = result["cli.command_s"]["value"]
    for layer, seconds in layers.shares(tracer).items():
        if seconds:
            print(f"{workload.name}  share of traced command time in {layer}: "
                  f"{seconds / cmd_s:.1%}")
    if tracer.missing:
        print(f"{workload.name}  not traced (names absent): {', '.join(tracer.missing)}")
    return result, len(cmds) * len(passes), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only import fsmac and make the inputs (set-up timing)")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.probe:
        probe(workload, args.seed)
        return 0

    fsmac = import_fsmac()
    env = environment(fsmac, workload.name, args.seed)
    print("env " + json.dumps(env, sort_keys=True))
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=RUN_DIR, prefix=f"{workload.name}-"))
    try:
        inputs = workload.make_inputs(ROOT, workdir, args.seed)
        outdir = workdir / "out"
        outdir.mkdir()
        if args.trace:
            spans_path = RUN_DIR / f"spans-{workload.name}-seed{args.seed}.json"
            result, attempted, failures = traced(fsmac, workload, inputs, outdir,
                                                 args.seed, spans_path, env)
        else:
            result, attempted, failures = end_to_end(fsmac, workload, inputs, outdir,
                                                     args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for failure in failures:
        print(f"{workload.name}  FAILED {failure}")
    print(f"{workload.name}  failed_frac  {len(failures) / attempted:.4f} 1   "
          f"({len(failures)} of {attempted} commands)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
