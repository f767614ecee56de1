"""The README's Python examples run as written and print what they claim."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
# A trailing comment on a print line states the line it prints.
CLAIM = re.compile(r"^print\(.*\)\s+#\s*(.+)$")


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    claims = [m.group(1).strip() for m in map(CLAIM.match, block.splitlines()) if m]
    for claim in claims:
        assert claim in printed
