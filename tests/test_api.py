"""The package's public names: every entry of ``__all__`` is importable, and
the README's library quick start runs."""

import re
from pathlib import Path

import turbogp


def test_all_lists_each_public_name_once():
    names = turbogp.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(turbogp, name)] == []
    namespace: dict = {}
    exec("from turbogp import *", namespace)  # a stale entry makes this raise
    del namespace["__builtins__"]
    assert set(namespace) == set(names)


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "<README.md>", "exec"), {})
    assert capsys.readouterr().out.startswith("(128, 128) ")
