"""The README's examples run as written.

The Python blocks of its "Library use" section run in order in one
namespace, so a name the example uses that the package no longer
exports fails here.  Every ``mixedfbm`` line of its "Command line"
block runs in order in one directory, so a line that reads a file no
earlier line writes fails here.
"""
import re
import shlex
from pathlib import Path

from mixedfbm.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_blocks() -> list:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```", section, flags=re.M | re.S)


def test_library_use_blocks_run_in_order(capsys):
    blocks = _library_blocks()
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out.strip()


def _command_lines() -> list:
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"^```sh\n(.*?)^```", section, flags=re.M | re.S)[1]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("mixedfbm ")]


def test_command_line_block_runs_in_order(tmp_path, monkeypatch, capsys):
    lines = _command_lines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv) == 0, (argv, capsys.readouterr().err)
