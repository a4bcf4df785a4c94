"""README console examples: every `$ germkit ...` line runs through main()."""

import re
import shlex
from pathlib import Path

import pytest

from germkit.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _blocks(lang):
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```%s\n(.*?)^```" % lang, text, re.S | re.M)


def _examples():
    """(argv, expected stdout) for each command line of a console block."""
    out = []
    for block in _blocks("console"):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, _, expected = chunk.partition("\n")
            argv = shlex.split(command)
            assert argv[0] == "germkit"
            out.append((argv[1:], expected.rstrip("\n") + "\n"))
    return out


EXAMPLES = _examples()


def _masked(table):
    """A bench table with its millis column blanked and its rows sorted."""
    head, *rows = [line.split() for line in table.splitlines()]
    col = head.index("millis")
    for row in rows:
        row[col] = "-"
    return head, sorted(rows)


def test_readme_has_examples():
    commands = {argv[0] for argv, _ in EXAMPLES}
    assert {"mult", "ft", "milnor", "std", "vdim", "qh", "reiffen", "bench",
            "ft54.job"} <= commands


@pytest.mark.parametrize("argv, expected", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_console_example(tmp_path, monkeypatch, capsys, argv, expected):
    (job,) = [b for b in _blocks("text") if b.startswith("# ft54.job\n")]
    (tmp_path / "ft54.job").write_text(job, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "bench":
        assert _masked(out) == _masked(expected)
    else:
        assert out == expected
