"""The README's library example runs as written.

The Python blocks of its "Library use" section run in order in one
namespace, so a name the example uses that the package no longer
exports fails here.
"""
import re
from pathlib import Path

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
