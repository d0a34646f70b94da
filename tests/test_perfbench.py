"""The benchmark tracer still finds every package name it hooks.

``perfbench/tracer.py`` wraps package functions by name. The selftest
below installs and uninstalls it on the package source, so a rename or
a deletion of a hooked name fails here, in about a second, rather than
only in the full benchmark selftest.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracer_installs_on_the_package():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "perfbench" / "selftest.py"), "-k", "install_and_uninstall"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert "1 passed" in done.stdout
