"""The output-comparison tool, and the committed output manifest.

``tests/compare_outputs.py`` reads its argv lists from ``tests/test_cli.py``
by name, so a renamed list would break it where no other test looks.  Its
two children get different hash seeds (PYTHONHASHSEED is left as the
environment has it, normally unset), so this also shows that no output of
the argv set depends on the hash seed.

``tests/output_manifest.txt`` pins what the CLI prints on that argv set.  An
intended output change records it again with
``python tests/compare_outputs.py --manifest src > tests/output_manifest.txt``.
"""

import collections
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from compare_outputs import manifest_header

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "output_manifest.txt"

# the argv set and its lines, in a child: listing the set imports perfbench's
# modules, one of which has the name of tests/oracles.py
CHILD = """\
import json, sys
sys.path.insert(0, "tests")
import compare_outputs
print(json.dumps(compare_outputs.manifest(compare_outputs.ROOT / "src", sys.argv[1] == "-O")))
"""


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


@pytest.mark.parametrize("flag", ["", "-O"], ids=["python", "python -O"])
def test_outputs_match_the_manifest(flag):
    header, *lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    recorded = set(lines)
    if header != manifest_header():
        # argparse's usage and error texts change between Python versions
        pytest.skip(f"the manifest was recorded under another Python: {header}")
    done = subprocess.run(
        [sys.executable, "-c", CHILD, flag],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    argv_digests = {line.split()[0] for line in recorded}
    problems, counts = [], collections.Counter()
    for argv, line in rows:
        if line not in recorded:
            kind = "differs" if line.split()[0] in argv_digests else "is new"
            problems.append(f"{shlex.join(argv)}: {kind}")
            counts[argv[0] if argv else "", kind] += 1
    fresh = {line.split()[0] for _, line in rows}
    for digest in sorted(argv_digests - fresh):
        problems.append(f"argv with sha256 {digest}...: is gone")
        counts["(unknown)", "is gone"] += 1
    if problems:
        summary = [f"{family}: {n} {kind}" for (family, kind), n in sorted(counts.items())]
        pytest.fail("\n".join(problems + summary), pytrace=False)
