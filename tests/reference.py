"""Reference routes the simulator tests compare against."""

import numpy as np

from fsmac.mcsim import OUTCOMES, _DecodeContext, _decode_chunk, _draw_trial
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
