import numpy as np
import pytest

from fsmac.model import FsMacSpec, spec_from_dict


def dirichlet_rows(rng, shape):
    """Random stochastic array: every trailing-axis row is a Dirichlet(1) draw."""
    flat = rng.dirichlet(np.ones(shape[-1]), size=int(np.prod(shape[:-1], initial=1)))
    return flat.reshape(shape)


def random_spec(rng, sizes=None) -> FsMacSpec:
    """Random fully-stochastic model instance with small alphabets."""
    if sizes is None:
        sizes = {
            "xa": int(rng.integers(2, 4)), "xb": int(rng.integers(2, 4)),
            "s": int(rng.integers(2, 4)), "sa": int(rng.integers(1, 3)),
            "sb": int(rng.integers(1, 3)), "y": int(rng.integers(2, 4)),
        }
    doc = {
        "alphabets": dict(sizes),
        "state_pmf": dirichlet_rows(rng, (sizes["s"],)).tolist(),
        "obs_a": dirichlet_rows(rng, (sizes["s"], sizes["sa"])).tolist(),
        "obs_b": dirichlet_rows(rng, (sizes["s"], sizes["sb"])).tolist(),
        "channel": dirichlet_rows(
            rng, (sizes["s"], sizes["xa"], sizes["xb"], sizes["y"])
        ).tolist(),
    }
    return spec_from_dict(doc)


def one_hot_rows(rng, shape):
    """Random deterministic array: every trailing-axis row is a point mass."""
    return np.eye(shape[-1])[rng.integers(0, shape[-1], size=shape[:-1])]


def random_deterministic_spec(rng, sizes=None) -> FsMacSpec:
    """random_spec with one-hot observation and channel rows, so every
    strategy-channel row is a point mass; the state pmf stays random."""
    spec = random_spec(rng, sizes)
    return spec_with(spec, obs_a=one_hot_rows(rng, spec.obs_a.shape),
                     obs_b=one_hot_rows(rng, spec.obs_b.shape),
                     channel=one_hot_rows(rng, spec.channel.shape))


def oversized_channel_doc() -> dict:
    """A spec document of a few kB whose strategy channel q would not fit:
    4096 x 2048 strategy pairs pass the pair cap, but S*A*B*Y is 2**31 cells."""
    sizes = {"xa": 2, "xb": 2, "s": 16, "sa": 12, "sb": 11, "y": 16}
    return {
        "alphabets": sizes,
        "state_pmf": np.full(16, 1 / 16).tolist(),
        "obs_a": np.full((16, 12), 1 / 12).tolist(),
        "obs_b": np.full((16, 11), 1 / 11).tolist(),
        "channel": np.full((16, 2, 2, 16), 1 / 16).tolist(),
    }


def spec_with(spec: FsMacSpec, **overrides) -> FsMacSpec:
    """Rebuild a spec with some arrays replaced, revalidating everything."""
    doc = {
        "alphabets": {
            "xa": spec.size_xa, "xb": spec.size_xb, "s": spec.size_s,
            "sa": spec.size_sa, "sb": spec.size_sb, "y": spec.size_y,
        },
        "state_pmf": np.asarray(spec.state_pmf).tolist(),
        "obs_a": np.asarray(spec.obs_a).tolist(),
        "obs_b": np.asarray(spec.obs_b).tolist(),
        "channel": np.asarray(spec.channel).tolist(),
    }
    for key, value in overrides.items():
        if key == "alphabets":
            doc["alphabets"].update(value)
        else:
            doc[key] = np.asarray(value).tolist()
    return spec_from_dict(doc)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
