"""The benchmark's self-test, run with the test suite.

perfbench checks every record it times with oracles that share no code
with the package, and its self-test requires that correct records pass
them and corrupted ones fail.  A change those oracles would reject, such
as a broken reducible-block id, then fails here and not only in a
benchmark run.  The trace bindings are checked too: a layer whose
function was renamed would otherwise vanish from traced runs unnoticed.
"""

import json
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


def test_trace_bindings_missing_only_known_names():
    # perfbench finds each layer by a module attribute and lists a name that
    # is gone as missing, so a rename would drop a layer without an error.
    # perfbench's own oracles module shadows tests/oracles.py, hence a child
    # process run from perfbench/.
    script = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import layers; "
        "tracer = layers.Tracer(); tracer.install(); tracer.uninstall(); "
        "print(json.dumps(tracer.missing))"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "src")],
        cwd=ROOT / "perfbench",
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert json.loads(done.stdout) == [
        "floerchains.signatures.signature",
        "floerchains.seifert.smith_normal_form",
        "floerchains.complexes.enumerate_irreducibles",
        "floerchains.seifert.enumerate_irreducibles",
        "floerchains.cli.casson",
        "floerchains.complexes.projective_su2_classes",
        "floerchains.seifert.projective_su2_classes",
    ]
