"""The benchmark's self-test, run with the test suite.

perfbench checks every record it times with oracles that share no code
with the package, and its self-test requires that correct records pass
them and corrupted ones fail.  A change those oracles would reject, such
as a broken reducible-block id, then fails here and not only in a
benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "OK"
