"""Compare what the CLI prints between two source trees, or list it for one.

    python tests/compare_outputs.py OLD_SRC NEW_SRC [-O]
    python tests/compare_outputs.py --manifest SRC [-O]

Each tree's ``floerchains.cli.main`` runs every argv of one fixed set, in
process, in one child interpreter per tree (``python -O`` with ``-O``).
The script prints each argv whose exit code, stdout or stderr differ,
naming which of them differ; where both stdouts are JSON objects it adds
whether the new one only adds keys or list items to the old one, and
otherwise the first stdout line that differs.  A last line counts the
differing argv, and the exit status is 1 if there is any.

With ``--manifest`` the script runs the one tree ``SRC`` and prints a
header line naming the Python minor version, then one line per argv: 16 hex
digits of the sha256 of the argv, then 16 of the sha256 of (exit code,
stdout, stderr), each hashed as its JSON text.  A generated ``config`` file
is hashed by its text, not by its temporary path, so the lines repeat
between runs.  ``tests/output_manifest.txt`` holds the manifest and
``tests/test_compare_outputs.py`` recomputes it.

The argv set, each argv once:
- the golden argv of both trees;
- ``INPUT_ERRORS``, ``SEIFERT_ERRORS``, ``SAMPLE_COMMANDS``,
  ``USAGE_PROBES`` and ``VALID_ARGV`` of ``tests/test_cli.py``;
- the ``config`` form of each ``SAMPLE_COMMANDS`` argv, written by
  ``config_text`` of ``tests/test_cli.py`` to a temporary file;
- each argv above again with ``--json``;
- seeds 0 and 1 of the four perfbench workloads and perfbench's
  ``known_defects()`` (``perfbench/workloads.py`` is only imported);
- 300 ``fuzz_argv`` draws per family of ``tests/test_cli.py``, from
  ``random.Random(0)``;
- ``regress``.

The names it takes from ``tests/test_cli.py`` are run from that file's
source without importing it, so neither pytest nor the package is
imported here; a name the file no longer defines is an error.  The file
name does not match pytest's ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import itertools
import json
import math
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Tuple

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

# what argv_set takes from tests/test_cli.py, with the names those use, in file order
TEST_NAMES = (
    "INPUT_ERRORS", "FIBERS", "SEIFERT_ERRORS", "SAMPLE_COMMANDS", "config_text",
    "USAGE_PROBES", "VALID_ARGV", "FAMILIES", "MALFORMED", "fuzz_argv",
)


def _golden_argv(src: Path) -> List[List[str]]:
    lines = (src / "floerchains" / "golden.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line)["argv"] for line in lines if line.strip()]


def _test_names(golden: List[List[str]]) -> Dict:
    """The TEST_NAMES of tests/test_cli.py, run from its source with the
    argv `golden` as its golden cases."""
    path = ROOT / "tests" / "test_cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    tree.body = [
        node for node in tree.body
        if getattr(node, "name", None) in TEST_NAMES
        or isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in TEST_NAMES
    ]
    names = {"math": math, "random": random, "GOLDEN": [{"argv": argv} for argv in golden]}
    exec(compile(tree, str(path), "exec"), names)
    missing = [name for name in TEST_NAMES if name not in names]
    if missing:
        raise LookupError(f"no {', '.join(missing)} in {path}")
    return names


def argv_set(old_src: Path, new_src: Path, config_dir: Path) -> List[List[str]]:
    """The argv set; the config files its `config` argv read go to `config_dir`."""
    # perfbench's own oracles module, not tests/oracles.py
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    golden = _golden_argv(old_src) + _golden_argv(new_src)
    tests = _test_names(golden)
    listed = [
        *golden,
        *tests["INPUT_ERRORS"],
        *(argv for argv, _, _ in tests["SEIFERT_ERRORS"]),
        *tests["SAMPLE_COMMANDS"],
        *tests["USAGE_PROBES"],
        *tests["VALID_ARGV"],
    ]
    for i, argv in enumerate(tests["SAMPLE_COMMANDS"]):
        path = config_dir / f"sample-{i}.cfg"
        path.write_text(tests["config_text"](argv), encoding="utf-8")
        listed.append(["config", str(path)])
    rng = random.Random(0)
    every = [
        *listed,
        *(argv + ["--json"] for argv in listed),
        *(argv for make in workloads.WORKLOADS.values() for seed in (0, 1)
          for argv, _ in make(seed)),
        *(argv for argv, _ in workloads.known_defects()),
        *(tests["fuzz_argv"](rng, family) for family in tests["FAMILIES"] * 300),
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


def first_line_diff(old: str, new: str) -> str:
    """The first line at which two texts differ, None standing for a missing line."""
    pairs = itertools.zip_longest(old.splitlines(), new.splitlines())
    for number, (a, b) in enumerate(pairs, 1):
        if a != b:
            return f"line {number}: {a!r} -> {b!r}"
    return "line endings"


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


def manifest_header() -> str:
    version = f"{sys.version_info[0]}.{sys.version_info[1]}"
    return f"# python {version}: sha256[:16] of argv, of [exit, stdout, stderr]"


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]


def manifest(src: Path, optimize: bool) -> List[Tuple[List[str], str]]:
    """Each argv of the set, run on the tree `src`, with its manifest line;
    in the argv, the path of a generated config file is replaced by its text."""
    with tempfile.TemporaryDirectory() as config_dir:
        argvs = argv_set(src, src, Path(config_dir))
        texts = {str(path): path.read_text(encoding="utf-8") for path in Path(config_dir).iterdir()}
        child = _start(src, optimize, argvs)
        rows = []
        for argv, result in zip(argvs, child.stdout):
            named = [texts.get(arg, arg) if argv[0] == "config" else arg for arg in argv]
            rows.append((named, f"{_digest(named)} {_digest(json.loads(result))}"))
        if child.wait():
            raise SystemExit(f"the child failed: exit {child.returncode}")
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path, nargs="?")
    parser.add_argument("new_src", type=Path, nargs="?")
    parser.add_argument("--manifest", type=Path, metavar="SRC", help="print the manifest of SRC")
    parser.add_argument("-O", dest="optimize", action="store_true", help="run under python -O")
    args = parser.parse_args()
    if [args.old_src, args.new_src].count(None) != (2 if args.manifest else 0):
        parser.error("give OLD_SRC and NEW_SRC, or --manifest SRC alone")
    if args.manifest is not None:
        print(manifest_header())
        for _, line in manifest(args.manifest, args.optimize):
            print(line)
        return 0
    differing = 0
    with tempfile.TemporaryDirectory() as config_dir:
        argvs = argv_set(args.old_src, args.new_src, Path(config_dir))
        old = _start(args.old_src, args.optimize, argvs)
        new = _start(args.new_src, args.optimize, argvs)
        for argv, before, after in zip(argvs, old.stdout, new.stdout):
            before, after = json.loads(before), json.loads(after)
            if before == after:
                continue
            differing += 1
            fields = [
                name for name, a, b in zip(("exit", "stdout", "stderr"), before, after) if a != b
            ]
            line = f"{shlex.join(argv)}: {', '.join(fields)} differ"
            try:
                records = json.loads(before[1]), json.loads(after[1])
            except ValueError:
                records = None
            if records and all(type(record) is dict for record in records):
                line += "; JSON only adds" if only_adds(*records) else "; JSON changes"
            elif before[1] != after[1]:
                line += "; first stdout " + first_line_diff(before[1], after[1])
            print(line)
        if old.wait() or new.wait():
            raise SystemExit(f"a child failed: exit {old.returncode} and {new.returncode}")
    print(f"{differing} of {len(argvs)} argv differ")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
