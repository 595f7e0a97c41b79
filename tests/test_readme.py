"""The README's Python examples and command lines run as written."""

import pathlib
import re
import shlex
import subprocess
import sys

from conftest import CHILD_ENV

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # The blocks build on each other, so they run in order as one script.
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        env=CHILD_ENV,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_command_lines_run(tmp_path):
    # Later lines read files that earlier ones write, so they share one
    # working directory and run in order.
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    lines = [
        line for block in blocks for line in block.splitlines() if line.startswith("loqc-ancilla ")
    ]
    assert lines
    for line in lines:
        argv = [sys.executable, "-m", "loqc_ancilla", *shlex.split(line)[1:]]
        proc = subprocess.run(
            argv, cwd=tmp_path, env=CHILD_ENV, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, f"{line}\n{proc.stderr}"
