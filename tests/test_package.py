import fsmac


def test_every_export_resolves_once():
    # a stale name in __all__ breaks `from fsmac import *`
    assert len(fsmac.__all__) == len(set(fsmac.__all__))
    for name in fsmac.__all__:
        assert hasattr(fsmac, name), name
