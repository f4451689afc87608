"""The output-comparison tool, run on one tree against itself.

``tests/compare_outputs.py`` reads its argv lists from ``tests/test_cli.py``
by name, so a renamed list would break it where no other test looks.  Its
two children get different hash seeds (PYTHONHASHSEED is left as the
environment has it, normally unset), so this also shows that no output of
the argv set depends on the hash seed.
"""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tree_matches_itself():
    done = subprocess.run(
        [sys.executable, "tests/compare_outputs.py", "src", "src"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert re.fullmatch(r"0 of \d+ argv differ\n", done.stdout), done.stdout
