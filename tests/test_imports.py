"""The package runs on numpy and the standard library alone; scipy is a
test-only dependency, used as an oracle."""

import os
import subprocess
import sys
from pathlib import Path

import darkfringe


def test_package_imports_no_scipy():
    src = str(Path(darkfringe.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, darkfringe, darkfringe.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
