"""README's library example runs as written against the package source."""

import os
import re
import subprocess
import sys
from pathlib import Path

import gridgram

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_block_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    src = str(Path(gridgram.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", block], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
