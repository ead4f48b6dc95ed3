"""Reference routes the simulator and converse tests compare against."""

import itertools
from functools import reduce

import numpy as np

from fsmac.mcsim import OUTCOMES, _DecodeContext, _decode_chunk, _draw_trial
from fsmac.rates import joint_law
from fsmac.rng import ROLE_CODEBOOKS, stream


def codebooks(policy, cfg, rng=None) -> tuple:
    """One trial's (messages, n) strategy ids (ids_a, ids_b) as
    ``Generator.choice`` draws them from one stream, sender a first; by
    default the stream is trial 0's codebook stream."""
    if rng is None:
        rng = stream(cfg.seed, 0, ROLE_CODEBOOKS)
    n = cfg.blocklength
    return (rng.choice(policy.pi_a.size, size=(cfg.messages_a, n), p=policy.pi_a),
            rng.choice(policy.pi_b.size, size=(cfg.messages_b, n), p=policy.pi_b))


def decode_one(spec, chan, policy, ids_a, ids_b, cfg, rng) -> tuple:
    """One trial of a fixed codebook pair: its letters drawn from rng, then
    decoded as a chunk of one. Returns the outcome, the transmitted pair,
    the decoded pair (None unless exactly one pair survived), the states
    and the outputs."""
    ctx = _DecodeContext(chan, policy)
    s_seq, wa, wb, uniforms = _draw_trial(ctx, cfg, rng)
    codes, decoded, y_seq = _decode_chunk(ctx, cfg, ids_a[None], ids_b[None], s_seq[None],
                                          np.array([wa]), np.array([wb]), uniforms[None])
    pair = (int(decoded[0, 0]), int(decoded[0, 1]))
    return (OUTCOMES[codes[0]], (int(wa), int(wb)), None if pair[0] < 0 else pair,
            s_seq, y_seq[0])


def literal_law(spec, maps, t, sigma) -> np.ndarray:
    """P(table_a, table_b, y, s | past states) of one past, adding one float
    at a time: messages, then observation histories in itertools.product
    order, then the current (s, oa, ob, y), each term multiplied as
    ((pa_path * pb_path) * px) * W with each path multiplied oldest
    observation first."""
    sigma = tuple(int(s) for s in sigma)
    count_a = spec.size_xa ** spec.size_sa
    count_b = spec.size_xb ** spec.size_sb
    out = np.zeros((count_a, count_b, spec.size_y, spec.size_s))
    phi_a, phi_b = maps.phi_a[t - 1], maps.phi_b[t - 1]
    for wa in range(maps.messages_a):
        for oa_hist in itertools.product(range(spec.size_sa), repeat=t - 1):
            pa_path = 1.0 / maps.messages_a
            for u, o in enumerate(oa_hist):
                pa_path *= spec.obs_a[sigma[u], o]
            if pa_path == 0.0:
                continue
            # the history index convention is little-endian in time
            ha = sum(o * spec.size_sa ** u for u, o in enumerate(oa_hist))
            row_a = phi_a[wa, ha]
            ta = sum(int(row_a[o]) * spec.size_xa ** o for o in range(spec.size_sa))
            for wb in range(maps.messages_b):
                for ob_hist in itertools.product(range(spec.size_sb), repeat=t - 1):
                    pb_path = 1.0 / maps.messages_b
                    for u, o in enumerate(ob_hist):
                        pb_path *= spec.obs_b[sigma[u], o]
                    if pb_path == 0.0:
                        continue
                    hb = sum(o * spec.size_sb ** u for u, o in enumerate(ob_hist))
                    row_b = phi_b[wb, hb]
                    tb = sum(int(row_b[o]) * spec.size_xb ** o for o in range(spec.size_sb))
                    for s in range(spec.size_s):
                        for oa in range(spec.size_sa):
                            for ob in range(spec.size_sb):
                                px = spec.state_pmf[s] * spec.obs_a[s, oa] * spec.obs_b[s, ob]
                                if px == 0.0:
                                    continue
                                xa = phi_a[wa, ha, oa]
                                xb = phi_b[wb, hb, ob]
                                for y in range(spec.size_y):
                                    out[ta, tb, y, s] += (
                                        pa_path * pb_path * px * spec.channel[s, xa, xb, y]
                                    )
    return out


def factorized_law(spec, chan, policy) -> np.ndarray:
    """The claimed factorization, joint_law's, in literal_law's axis order
    (table_a, table_b, y, s)."""
    return joint_law(spec, chan, policy).p.transpose(1, 2, 3, 0)


def sigma_policy(spec, maps, t, sigma) -> tuple:
    """Both senders' induced pmfs (pi_a, pi_b) of one past: each history's
    probability given the past, multiplied newest observation first, divided
    by the message count and counted in (message, history index) order."""
    sigma = tuple(int(s) for s in sigma)

    def one_side(phi, obs_rows, input_size, messages):
        powers = input_size ** np.arange(phi.shape[2])
        ids = (phi * powers).sum(axis=2)                     # (messages, histories)
        hist_w = reduce(lambda w, v: np.multiply.outer(w, v).ravel(),
                        (obs_rows[s] for s in reversed(sigma)), np.ones(1))
        weights = np.tile(hist_w, messages) / messages
        return np.bincount(ids.ravel(), weights=weights,
                           minlength=input_size ** phi.shape[2])

    return (one_side(maps.phi_a[t - 1], spec.obs_a, spec.size_xa, maps.messages_a),
            one_side(maps.phi_b[t - 1], spec.obs_b, spec.size_xb, maps.messages_b))
