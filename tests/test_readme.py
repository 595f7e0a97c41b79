"""The README's Python examples run as written."""

import pathlib
import re
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
