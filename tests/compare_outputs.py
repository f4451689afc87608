"""Compare what the CLI prints between two source trees.

    python tests/compare_outputs.py OLD_SRC NEW_SRC [-O]

Each tree's ``floerchains.cli.main`` runs every argv of one fixed set, in
process, in one child interpreter per tree (``python -O`` with ``-O``).
The script prints each argv whose exit code, stdout or stderr differ,
naming which of them differ; where both stdouts are JSON objects it adds
whether the new one only adds keys or list items to the old one.  A last
line counts the differing argv, and the exit status is 1 if there is any.

The argv set, each argv once:
- the golden argv of both trees, with and without ``--json``;
- seeds 0 and 1 of the four perfbench workloads and perfbench's
  ``known_defects()`` (``perfbench/workloads.py`` is only imported);
- ``INPUT_ERRORS`` of ``tests/test_cli.py``, with and without ``--json``;
- ``regress``.

The file name does not match pytest's ``test_*.py``, so pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import ast
import json
import shlex
import subprocess
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent

# one JSON line [exit code, stdout, stderr] per argv read from stdin
CHILD = """\
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from floerchains import cli
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:
            code = f"{type(exc).__name__}: {exc}"
    print(json.dumps([code, out.getvalue(), err.getvalue()]), flush=True)
"""


def _golden_argv(src: Path) -> List[List[str]]:
    lines = (src / "floerchains" / "golden.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["argv"] for line in lines if line.strip()]


def _input_errors() -> List[List[str]]:
    """INPUT_ERRORS of tests/test_cli.py, read without importing the test module."""
    path = ROOT / "tests" / "test_cli.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "INPUT_ERRORS":
            return ast.literal_eval(node.value)
    raise LookupError(f"no INPUT_ERRORS in {path}")


def argv_set(old_src: Path, new_src: Path) -> List[List[str]]:
    # perfbench's own oracles module, not tests/oracles.py
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    golden = _golden_argv(old_src) + _golden_argv(new_src)
    errors = _input_errors()
    every = [
        *golden,
        *(argv + ["--json"] for argv in golden),
        *(argv for make in workloads.WORKLOADS.values() for seed in (0, 1)
          for argv, _ in make(seed)),
        *(argv for argv, _ in workloads.known_defects()),
        *errors,
        *(argv + ["--json"] for argv in errors),
        ["regress"],
    ]
    return [list(argv) for argv in dict.fromkeys(map(tuple, every))]


def only_adds(old, new) -> bool:
    """Whether `new` is `old` with keys added to its objects or items to its lists."""
    if type(old) is dict and type(new) is dict:
        return all(key in new and only_adds(value, new[key]) for key, value in old.items())
    if type(old) is list and type(new) is list:
        rest = iter(new)
        return all(any(only_adds(item, other) for other in rest) for item in old)
    return old == new


def _start(src: Path, optimize: bool, argvs: List[List[str]]) -> subprocess.Popen:
    flags = ["-O"] if optimize else []
    child = subprocess.Popen(
        [sys.executable, *flags, "-c", CHILD, str(src)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    # the child reads all of stdin before it prints, so this write cannot block on it
    child.stdin.write(json.dumps(argvs))
    child.stdin.close()
    return child


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("-O", dest="optimize", action="store_true", help="run under python -O")
    args = parser.parse_args()
    argvs = argv_set(args.old_src, args.new_src)
    old = _start(args.old_src, args.optimize, argvs)
    new = _start(args.new_src, args.optimize, argvs)
    differing = 0
    for argv, before, after in zip(argvs, old.stdout, new.stdout):
        before, after = json.loads(before), json.loads(after)
        if before == after:
            continue
        differing += 1
        fields = [name for name, a, b in zip(("exit", "stdout", "stderr"), before, after) if a != b]
        line = f"{shlex.join(argv)}: {', '.join(fields)} differ"
        try:
            records = json.loads(before[1]), json.loads(after[1])
        except ValueError:
            records = None
        if records and all(type(record) is dict for record in records):
            line += "; JSON only adds" if only_adds(*records) else "; JSON changes"
        print(line)
    if old.wait() or new.wait():
        raise SystemExit(f"a child failed: exit {old.returncode} and {new.returncode}")
    print(f"{differing} of {len(argvs)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
