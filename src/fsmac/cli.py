"""Command line front end.

Subcommands: validate, sumrate, region, simulate, verify-converse.  Every
report is JSON with an embedded run manifest; the payload goes to --out when
given (summary line on stdout) and to stdout otherwise (summary line on
stderr), so stdout is machine-parseable either way.

Exit codes: 0 success, 1 validation or guard rejection, 2 unreadable or
malformed input, 3 internal invariant breach (including a converse
factorization deviation above tolerance).
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import __version__, mcsim
from .converse import check_audit_work, random_encoders, verify_factorization
from .errors import GuardError, InternalInvariantError, SpecFormatError, ValidationError
from .mcsim import DECODERS, SimConfig, check_sim_work, check_trials, estimate_error
from .model import induced_strategy_channel, load_spec
from .optimize import (
    DIRECTIONS,
    OptimizerConfig,
    check_grid_oracle,
    grid_oracle_sum_rate,
    inner_bound_region,
    maximize_sum_rate,
)
from .rates import load_policy
from .rng import ROLE_ENCODER, check_seed, stream
from .strategy import strategy_count

# Exit 3 when a random code's letter law strays further than this from the
# factorized form; anything above it means the reduction itself is broken.
CONVERSE_TOL = 1e-9

# --threads must lie in [1, THREADS_CAP]. It changes nothing: restarts,
# directions and trials all run as rows of arrays in one thread. The range
# check stays so that scripts passing it keep working.
THREADS_CAP = 64


def _canonical(payload: dict) -> str:
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise InternalInvariantError(f"report holds a NaN or infinity ({exc})") from None


def _emit(payload: dict, out: str | None, summary: str) -> None:
    text = _canonical(payload)
    if out is None:
        sys.stdout.write(text)
        print(summary, file=sys.stderr)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(summary)


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _num(value) -> str:
    # 17 significant digits round-trip every double
    return format(float(value), ".17g")


def _validate(args, spec, chan):
    # FsMacSpec has counted both spaces on construction, so these pass its guards
    count_a = strategy_count(spec.size_sa, spec.size_xa)
    count_b = strategy_count(spec.size_sb, spec.size_xb)
    payload = {
        "ok": True,
        "alphabets": {
            "xa": spec.size_xa, "xb": spec.size_xb, "s": spec.size_s,
            "sa": spec.size_sa, "sb": spec.size_sb, "y": spec.size_y,
        },
        "strategies": {"a": count_a, "b": count_b, "pairs": count_a * count_b},
    }
    return payload, f"{args.spec}: ok ({count_a} x {count_b} strategy pairs)", 0


def _ascent(result) -> dict:
    """How the ascent reached a sum rate: whether its best restart stopped on
    the tolerance, which restart won, its rounds and objective after each,
    and each sender's block-KKT gap at the answer."""
    gap_a, gap_b = result.kkt_gaps
    return {
        "converged": bool(result.converged),
        "best_restart": result.best_restart,
        "iterations": result.iterations,
        "history": list(result.history),
        "kkt_gaps": {"a": gap_a, "b": gap_b},
    }


def _sumrate(args, spec, chan):
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    if args.resolution is not None:
        # a scan the oracle refuses fails before the ascent, not after it
        check_grid_oracle(spec, chan, args.resolution)
    result = maximize_sum_rate(spec, chan, cfg)
    payload = {
        "value": float(result.value),
        "policy": result.policy.to_dict(),
        "restarts_used": cfg.restarts,
        **_ascent(result),
    }
    if args.resolution is not None:
        payload["grid_oracle"] = {
            "resolution": args.resolution,
            "value": float(grid_oracle_sum_rate(spec, chan, args.resolution)),
        }
    return payload, f"C_sum = {result.value:.6f} bits", 0


def _region(args, spec, chan):
    cfg = OptimizerConfig(restarts=args.restarts, seed=args.seed)
    region = inner_bound_region(spec, chan, cfg, directions=args.directions)
    outer = region.outer_sum
    _write_csv(args.out, ["ra", "rb"],
               [[_num(ra), _num(rb)] for ra, rb in region.vertices])
    if args.csv is not None:
        _write_csv(args.csv,
                   ["direction_a", "direction_b", "bound_a", "bound_b", "bound_sum"],
                   [[_num(v) for v in (*sup.direction, sup.pentagon.bound_a,
                                       sup.pentagon.bound_b, sup.pentagon.bound_sum)]
                    for sup in region.supports])
    payload = {
        "outer_sum_value": float(outer.value),
        "outer_sum": _ascent(outer),
        "vertices": [[float(ra), float(rb)] for ra, rb in region.vertices],
    }
    summary = (f"region: {len(region.vertices)} hull vertices, "
               f"outer sum {outer.value:.6f} bits")
    return payload, summary, 0


def _report_dict(rep) -> dict:
    cfg = rep.config
    return {
        "blocklength": cfg.blocklength,
        "rate_a": cfg.rate_a,
        "rate_b": cfg.rate_b,
        "epsilon": cfg.epsilon,
        "decoder": cfg.decoder,
        "messages_a": cfg.messages_a,
        "messages_b": cfg.messages_b,
        "trials": rep.trials,
        "errors": rep.errors,
        "error_rate": float(rep.error_rate),
        "wilson_low": float(rep.wilson_low),
        "wilson_high": float(rep.wilson_high),
        "no_typical_count": rep.no_typical_count,
        "decoder_ambiguous_count": rep.decoder_ambiguous_count,
        "wrong_decode_count": rep.wrong_decode_count,
        "diagnostics": rep.diagnostics,
    }


def _simulate(args, spec, chan):
    # configs first: their guards reject bad rates, and too much work over
    # the whole --n list, before any optimization
    configs = [SimConfig(blocklength=n, rate_a=args.ra, rate_b=args.rb,
                         epsilon=args.eps, trials=args.trials,
                         seed=args.seed, decoder=args.decoder) for n in args.n]
    check_sim_work(configs)
    if args.policy is not None:
        policy = load_policy(args.policy)
    else:
        # No policy file: simulate the optimized sum-rate policy.
        opt = maximize_sum_rate(spec, chan, OptimizerConfig(seed=args.seed))
        policy = opt.policy
    reports = [estimate_error(spec, chan, policy, cfg) for cfg in configs]

    if args.csv is not None:
        _write_csv(args.csv,
                   ["n", "messages_a", "messages_b", "trials",
                    "errors", "error_rate", "wilson_low", "wilson_high"],
                   [[rep.config.blocklength, rep.config.messages_a,
                     rep.config.messages_b, rep.trials, rep.errors,
                     _num(rep.error_rate), _num(rep.wilson_low), _num(rep.wilson_high)]
                    for rep in reports])

    summary = "; ".join(
        f"P_err(n={rep.config.blocklength}) = {rep.error_rate:.4f} "
        f"[{rep.wilson_low:.4f}, {rep.wilson_high:.4f}]"
        for rep in reports
    )
    return {"reports": [_report_dict(rep) for rep in reports]}, summary, 0


def _verify_converse(args, spec, chan):
    messages = 2   # per sender in each random code; the guard counts the codes drawn
    check_audit_work(spec, args.n, messages, messages, args.trials)
    audits = (verify_factorization(spec, random_encoders(
                  spec, args.n, messages, messages, stream(args.seed, trial, ROLE_ENCODER)), chan)
              for trial in range(args.trials))
    worst = max(audits, key=lambda audit: audit.max_deviation)
    payload = {
        "max_deviation": worst.max_deviation,
        "trials": args.trials,
        "worst_case": {"t": worst.worst_t, "sigma": worst.worst_sigma},
    }
    breached = worst.max_deviation > CONVERSE_TOL
    summary = (f"converse factorization: max deviation {worst.max_deviation:.3e} "
               f"over {args.trials} codes (n={args.n})")
    if breached:
        summary += f", EXCEEDS {CONVERSE_TOL:g}"
    return payload, summary, 3 if breached else 0


@dataclass(frozen=True)
class _Command:
    handler: Callable      # (args, spec, chan) -> (payload, summary, exit code)
    echo: tuple            # option names copied into manifest.options
    channel: bool = True   # False keeps validate O(spec): no strategy enumeration
    seeded: bool = True    # False reports seed 0 whatever --seed says
    sidecar: bool = False  # the report goes to <out>.json; --out holds the hull CSV


_COMMANDS = {
    "validate": _Command(_validate, ("spec",), channel=False, seeded=False),
    "sumrate": _Command(_sumrate, ("spec", "restarts", "resolution", "out")),
    "region": _Command(_region, ("spec", "restarts", "directions", "out", "csv"),
                       sidecar=True),
    "simulate": _Command(_simulate, (
        "spec", "policy", "n", "ra", "rb", "eps", "trials", "decoder", "out", "csv")),
    "verify-converse": _Command(_verify_converse, ("spec", "n", "trials", "out")),
}


def _run(args) -> int:
    cmd = _COMMANDS[args.command]
    started = time.monotonic()
    started_utc = datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    # only sumrate, region and simulate have --threads; bad counts fail
    # before the spec is read, though no command runs more than one thread.
    # Bad seeds fail here too, before any restart, trial or encoder draws.
    threads = getattr(args, "threads", None)
    if threads is not None and not 1 <= threads <= THREADS_CAP:
        raise ValueError(f"threads must be in [1, {THREADS_CAP}], got {threads}")
    if cmd.seeded:
        check_seed(args.seed)
    # simulate and verify-converse take --trials; an audit of no codes would
    # report a clean zero deviation, and each trial costs time
    if hasattr(args, "trials"):
        check_trials(args.trials)
    spec = load_spec(args.spec)
    chan = induced_strategy_channel(spec) if cmd.channel else None
    payload, summary, code = cmd.handler(args, spec, chan)
    # Thread count is deliberately absent from the options echo: it changes
    # nothing, so payload bytes must not depend on it.
    payload["manifest"] = {
        "command": args.command,
        "spec_path": args.spec,
        "options": {name: getattr(args, name) for name in cmd.echo},
        "seed": args.seed if cmd.seeded else 0,
        "version": __version__,
        "timing": {
            "started_utc": started_utc,
            "duration_s": round(time.monotonic() - started, 6),
        },
    }
    _emit(payload, args.out + ".json" if cmd.sidecar else args.out, summary)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsmac",
        description="Capacity bounds and coding experiments for "
                    "state-dependent MACs with noisy causal state feedback.",
    )
    parser.add_argument("--version", action="version",
                        version=f"fsmac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_required=False):
        p.add_argument("--spec", required=True, help="model spec JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=out_required,
                       help="write the JSON report here instead of stdout")

    def threads(p, runs):
        p.add_argument("--threads", type=int, default=None,
                       help=f"accepted and checked, in [1, {THREADS_CAP}]; changes nothing: "
                            f"{runs} in one thread")

    p = sub.add_parser("validate", help="check a spec file and report sizes")
    common(p)

    p = sub.add_parser("sumrate", help="maximize the strategy sum rate")
    common(p)
    p.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    threads(p, "the restarts run as one batch")
    p.add_argument("--resolution", type=int, default=None,
                   help="also run the grid oracle at this resolution")

    p = sub.add_parser("region", help="trace the achievable rate region hull")
    common(p, out_required=True)
    p.add_argument("--restarts", type=int, default=OptimizerConfig.restarts)
    p.add_argument("--directions", type=int, default=DIRECTIONS)
    threads(p, "the restarts run as one batch")
    p.add_argument("--csv", default=None,
                   help="also write the per-direction pentagon table here")

    p = sub.add_parser("simulate", help="Monte Carlo block-coding error rates")
    common(p)
    p.add_argument("--policy", default=None,
                   help="policy JSON file (default: optimized sum-rate policy)")
    p.add_argument("--n", type=int, nargs="+", required=True,
                   help="blocklengths to sweep")
    p.add_argument("--ra", type=float, required=True, help="rate for sender a")
    p.add_argument("--rb", type=float, required=True, help="rate for sender b")
    p.add_argument("--eps", type=float, default=SimConfig.epsilon,
                   help="typicality tolerance")
    p.add_argument("--trials", type=int, default=SimConfig.trials)
    p.add_argument("--decoder", choices=DECODERS, default=SimConfig.decoder)
    threads(p, "the trials run as rows of chunks")
    p.add_argument("--csv", default=None, help="write the per-n sweep table here")

    p = sub.add_parser("verify-converse",
                       help="audit the single-letter factorization on random codes")
    common(p)
    p.add_argument("--n", type=int, default=2, help="blocklength")
    p.add_argument("--trials", type=int, default=50,
                   help="number of random encoder pairs, "
                        f"in [1, 2**{mcsim.TRIAL_CAP.bit_length() - 1}]")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run(args)
    except (SpecFormatError, OSError) as exc:
        print(f"fsmac: error: {exc}", file=sys.stderr)
        return 2
    except (ValidationError, GuardError, ValueError) as exc:
        print(f"fsmac: error: {exc}", file=sys.stderr)
        return 1
    except InternalInvariantError as exc:
        print(f"fsmac: internal invariant violated: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
