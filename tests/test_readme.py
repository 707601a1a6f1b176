"""The README's python examples and CLI examples run against the current API."""

import re
from pathlib import Path

import pytest

from kronquot import Matrix, cli, kron, write_matrix

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert blocks
    for number, code in enumerate(blocks, 1):
        exec(compile(code, f"README.md, python block {number}", "exec"), {})


def _cli_examples() -> list[list[str]]:
    """The argv of each line of the sh block under ``## CLI``, without comments or
    the ``[--json]`` marker."""
    [block] = re.findall(r"^## CLI\n.*?^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                         re.MULTILINE | re.DOTALL)
    lines = [line.split("#")[0].replace("[--json]", "").split() for line in block.splitlines()]
    assert all(words[0] == "kronquot" for words in lines if words)
    return [words[1:] for words in lines if words]


@pytest.mark.parametrize("argv", _cli_examples(), ids=" ".join)
def test_every_cli_example_runs(argv, tmp_path, monkeypatch, capsys):
    a = Matrix.from_rows([[2, 1], [0, 3]])
    b = Matrix.from_rows([[1, -1], [2, 1j]])
    for name, matrix in {"A": a, "B": b, "M": kron(a, b)}.items():
        write_matrix(tmp_path / f"{name}.mat", matrix)
    monkeypatch.chdir(tmp_path)
    # check exits 1 where the property fails: PROJ under trace does
    assert cli.main(argv) in ((0, 1) if argv[0] == "check" else (0,)), capsys.readouterr().err
