"""The README's examples run as written and print what they claim."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from feaskit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)
# A trailing comment on a print line states the line it prints.
CLAIM = re.compile(r"^print\(.*\)\s+#\s*(.+)$")
# A feaskit command line in a shell block, then the "# " lines it prints.
COMMANDS = [
    (m.group(1), [line[2:] for line in m.group(2).splitlines()])
    for block in re.findall(r"^```sh\n(.*?)^```$", TEXT, re.M | re.S)
    for m in re.finditer(r"^(feaskit .+)\n((?:# .*\n)+)", block, re.M)
]


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


def test_readme_has_command_examples():
    assert COMMANDS


@pytest.mark.parametrize("command, printed", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_readme_command_prints_what_it_claims(command, printed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(shlex.split(command)[1:])
    # "..." stands for the measured wall_time_ms column.
    patterns = ["[^,]+".join(map(re.escape, line.split("..."))) for line in printed]
    lines = out.getvalue().splitlines()
    assert len(lines) == len(patterns)
    for pattern, line in zip(patterns, lines):
        assert re.fullmatch(pattern, line), line
