"""The public surface: every exported name is used or documented outside its definition.

A name counts as used when it appears as a whole word in the package's own
modules (not ``__init__.py``), in ``bench/`` or in the README, on a line other
than the one that defines it. A name that only the tests use belongs in
``tests/oracles.py``, not in ``kronquot.__all__``.
"""

import re
from pathlib import Path

import kronquot

ROOT = Path(__file__).resolve().parent.parent


def _lines() -> list[str]:
    paths = [path for path in sorted((ROOT / "src" / "kronquot").glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted((ROOT / "bench").rglob("*.py"))
    paths.append(ROOT / "README.md")
    return [line for path in paths for line in path.read_text(encoding="utf-8").splitlines()]


def test_every_export_is_used_beyond_its_definition():
    lines = _lines()
    unused = []
    for name in kronquot.__all__:
        escaped = re.escape(name)
        word = re.compile(rf"\b{escaped}\b")
        definition = re.compile(rf"^\s*(?:def|class)\s+{escaped}\b|^{escaped}\s*[:=]")
        if not any(word.search(line) and not definition.search(line) for line in lines):
            unused.append(name)
    assert unused == []
