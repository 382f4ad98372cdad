import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")

BLOCK_NUMPY = "import sys; sys.modules['numpy'] = None  # any numpy import raises ImportError\n"


@pytest.fixture
def fresh_python():
    """run(code, *args, stdin=b"", block_numpy=False) runs code in a new
    interpreter that imports conjalg from this checkout; it returns the
    completed process, with stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (SRC, os.environ.get("PYTHONPATH")))))

    def run(code, *args, stdin=b"", block_numpy=False):
        prefix = BLOCK_NUMPY if block_numpy else ""
        return subprocess.run([sys.executable, "-c", prefix + code, *args], input=stdin,
                              capture_output=True, env=env, timeout=120)

    return run
