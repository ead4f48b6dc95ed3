"""Which fsmac names the traced run wraps, and the per-layer metrics its spans give.

A metric ending in ``_s`` is the total seconds spent in that span over one
traced pass, ``_calls`` counts the spans, and ``restart_s``, ``direction_s``,
``trial_ms`` and ``decode_self_ms`` are means per restart, direction or trial.
A layer the workload does not reach reads 0.
"""

import math

import numpy as np

# (metric name, unit), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("cli.command_s", "s"), ("cli.self_s", "s"),
    ("model.load_spec_s", "s"), ("model.channel_s", "s"), ("model.q_mb", "MB"),
    ("strategy.pairs", "count"),
    ("optimize.sumrate_calls", "count"), ("optimize.sumrate_s", "s"),
    ("optimize.restart_s", "s"), ("optimize.best_rounds", "count"),
    ("optimize.converged_frac", "frac"),
    ("optimize.region_s", "s"), ("optimize.direction_s", "s"),
    ("rates.pentagon_calls", "count"), ("rates.pentagon_s", "s"),
    ("rates.joint_law_calls", "count"), ("rates.joint_law_s", "s"),
    ("optimize.oracle_s", "s"), ("optimize.oracle_points", "count"),
    ("optimize.oracle_points_per_s", "1/s"),
    ("converse.verify_s", "s"), ("converse.checks", "count"),
    ("converse.brute_force_s", "s"), ("converse.sigma_policy_s", "s"),
    ("converse.encoders_s", "s"),
    ("mcsim.estimate_s", "s"), ("mcsim.trial_ms", "ms"), ("mcsim.decode_self_ms", "ms"),
    ("mcsim.pairs_per_trial", "count"), ("mcsim.pair_cells", "count"),
    ("mcsim.codebooks_calls", "count"), ("mcsim.codebooks_s", "s"),
    ("rng.stream_calls", "count"), ("rng.stream_s", "s"),
    ("mcsim.ok_frac", "frac"), ("mcsim.no_typical", "count"),
    ("mcsim.ambiguous", "count"), ("mcsim.wrong", "count"),
    ("trace.overhead_frac", "frac"), ("threads.speedup_2", "x"),
)


def _channel_note(args, kwargs, chan):
    return {"q_bytes": int(chan.q.nbytes),
            "pairs": int(chan.space_a.count * chan.space_b.count)}


def _sumrate_note(args, kwargs, result):
    return {"rounds": int(result.iterations)}


def _restart_note(args, kwargs, result):
    return {"converged": bool(result[4])}


def _oracle_note(args, kwargs, value):
    spec, chan, resolution = args[:3]
    if bool(np.all(chan.q.max(axis=-1) == 1.0)):
        # deterministic channels scan per-symbol behavioral grids
        per_a = math.comb(resolution + spec.size_xa - 1, spec.size_xa - 1) ** spec.size_sa
        per_b = math.comb(resolution + spec.size_xb - 1, spec.size_xb - 1) ** spec.size_sb
    else:
        per_a = math.comb(resolution + chan.space_a.count - 1, chan.space_a.count - 1)
        per_b = math.comb(resolution + chan.space_b.count - 1, chan.space_b.count - 1)
    return {"points": per_a * per_b}


def _estimate_note(args, kwargs, rep):
    cfg = args[3]
    pairs = cfg.messages_a * cfg.messages_b
    # the typicality decoder scores four pair subsets, ML the full tuple only
    subsets = 4 if cfg.decoder == "typicality" else 1
    return {"trials": rep.trials, "pairs": pairs,
            "pair_cells": rep.trials * pairs * cfg.blocklength * subsets,
            "ok": rep.trials - rep.errors, "no_typical": rep.no_typical_count,
            "ambiguous": rep.decoder_ambiguous_count, "wrong": rep.wrong_decode_count}


def _verify_note(args, kwargs, audit):
    return {"checks": int(audit.checks)}


def patches(fsmac):
    """(module, attribute, span name, note) for every wrapped lookup."""
    cli, opt, mc, conv = fsmac.cli, fsmac.optimize, fsmac.mcsim, fsmac.converse
    return [
        (cli, "load_spec", "model.load_spec", None),
        (cli, "induced_strategy_channel", "model.channel", _channel_note),
        (conv, "induced_strategy_channel", "model.channel", _channel_note),
        (cli, "maximize_sum_rate", "optimize.sumrate", _sumrate_note),
        (cli, "inner_bound_region", "optimize.region", None),
        (cli, "grid_oracle_sum_rate", "optimize.oracle", _oracle_note),
        (opt, "_maximize_weighted", "optimize.weighted", None),
        (opt, "_run_restart", "optimize.restart", _restart_note),
        (opt, "pentagon", "rates.pentagon", None),
        (conv, "pentagon", "rates.pentagon", None),
        (opt, "joint_law", "rates.joint_law", None),
        (mc, "joint_law", "rates.joint_law", None),
        (conv, "joint_law", "rates.joint_law", None),
        (cli, "verify_factorization", "converse.verify", _verify_note),
        (cli, "random_encoders", "converse.encoders", None),
        (conv, "brute_force_conditional", "converse.brute_force", None),
        (conv, "induced_sigma_policy", "converse.sigma_policy", None),
        (cli, "estimate_error", "mcsim.estimate", _estimate_note),
        (mc, "generate_codebooks", "mcsim.codebooks", None),
        (cli, "stream", "rng.stream", None),
        (opt, "stream", "rng.stream", None),
        (mc, "stream", "rng.stream", None),
    ]


def _decode_self(tracer) -> float:
    """Estimate spans less their codebook, stream and joint-law children."""
    return sum(tracer.self_time(i) for i in tracer.named("mcsim.estimate"))


def metrics(tracer, overhead_frac: float, speedup_2: float) -> dict:
    """Per-layer metric values from one traced pass."""
    def info(name, key):
        return [tracer.spans[i].info.get(key, 0) for i in tracer.named(name)]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "cli.command_s": tracer.total("cli.command"),
        "cli.self_s": sum(tracer.self_time(i) for i in tracer.named("cli.command")),
        "model.load_spec_s": tracer.total("model.load_spec"),
        "model.channel_s": tracer.total("model.channel"),
        "model.q_mb": max(info("model.channel", "q_bytes"), default=0) / 1e6,
        "strategy.pairs": max(info("model.channel", "pairs"), default=0),
        "optimize.sumrate_calls": tracer.count("optimize.sumrate"),
        "optimize.sumrate_s": tracer.total("optimize.sumrate"),
        "optimize.restart_s": ratio(tracer.total("optimize.restart"),
                                    tracer.count("optimize.restart")),
        "optimize.best_rounds": sum(info("optimize.sumrate", "rounds")),
        "optimize.converged_frac": ratio(sum(info("optimize.restart", "converged")),
                                         tracer.count("optimize.restart")),
        "optimize.region_s": tracer.total("optimize.region"),
        "rates.pentagon_calls": tracer.count("rates.pentagon"),
        "rates.pentagon_s": tracer.total("rates.pentagon"),
        "rates.joint_law_calls": tracer.count("rates.joint_law"),
        "rates.joint_law_s": tracer.total("rates.joint_law"),
        "optimize.oracle_s": tracer.total("optimize.oracle"),
        "optimize.oracle_points": sum(info("optimize.oracle", "points")),
        "converse.verify_s": tracer.total("converse.verify"),
        "converse.checks": sum(info("converse.verify", "checks")),
        "converse.brute_force_s": tracer.total("converse.brute_force"),
        "converse.sigma_policy_s": tracer.total("converse.sigma_policy"),
        "converse.encoders_s": tracer.total("converse.encoders"),
        "mcsim.estimate_s": tracer.total("mcsim.estimate"),
        "mcsim.pair_cells": sum(info("mcsim.estimate", "pair_cells")),
        "mcsim.codebooks_calls": tracer.count("mcsim.codebooks"),
        "mcsim.codebooks_s": tracer.total("mcsim.codebooks"),
        "rng.stream_calls": tracer.count("rng.stream"),
        "rng.stream_s": tracer.total("rng.stream"),
        "mcsim.no_typical": sum(info("mcsim.estimate", "no_typical")),
        "mcsim.ambiguous": sum(info("mcsim.estimate", "ambiguous")),
        "mcsim.wrong": sum(info("mcsim.estimate", "wrong")),
        "trace.overhead_frac": overhead_frac,
        "threads.speedup_2": speedup_2,
    }
    region = set(tracer.named("optimize.region"))
    directions = [i for i in tracer.named("optimize.weighted")
                  if tracer.spans[i].parent in region]
    out["optimize.direction_s"] = ratio(
        sum(tracer.spans[i].duration for i in directions), len(directions))
    out["optimize.oracle_points_per_s"] = ratio(out["optimize.oracle_points"],
                                                out["optimize.oracle_s"])
    trials = sum(info("mcsim.estimate", "trials"))
    out["mcsim.trial_ms"] = ratio(1e3 * out["mcsim.estimate_s"], trials)
    out["mcsim.decode_self_ms"] = ratio(1e3 * _decode_self(tracer), trials)
    out["mcsim.pairs_per_trial"] = ratio(
        sum(t * p for t, p in zip(info("mcsim.estimate", "trials"),
                                  info("mcsim.estimate", "pairs"))), trials)
    out["mcsim.ok_frac"] = ratio(sum(info("mcsim.estimate", "ok")), trials)
    return {name: {"value": out[name], "unit": unit} for name, unit in PER_LAYER}


def shares(tracer) -> dict:
    """Seconds in each top-level layer and in the decoder's own code, for
    reading them as shares of the traced command time."""
    return {
        "optimize.sumrate": tracer.total("optimize.sumrate"),
        "optimize.region": tracer.total("optimize.region"),
        "optimize.oracle": tracer.total("optimize.oracle"),
        "converse.verify": tracer.total("converse.verify"),
        "mcsim.estimate": tracer.total("mcsim.estimate"),
        "mcsim decode self time": _decode_self(tracer),
    }
