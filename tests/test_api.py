"""The package's public names: every entry of ``__all__`` is importable."""

import turbogp


def test_all_lists_each_public_name_once():
    names = turbogp.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(turbogp, name)] == []
    namespace: dict = {}
    exec("from turbogp import *", namespace)  # a stale entry makes this raise
    del namespace["__builtins__"]
    assert set(namespace) == set(names)
