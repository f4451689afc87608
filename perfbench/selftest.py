"""Self-test of the benchmark itself.

Runs the first few records of every workload through the same loop and
oracles as a benchmark run and requires that no correct record is counted
as wrong.  Then it corrupts what the CLI returns (a shifted special
grading, a changed rank vector, text that is not JSON, exit code 1) and
requires that every corrupted record is counted as failed, so that it shows
in ``fail_frac``.

    python3 perfbench/selftest.py      # exit 0 when every check holds
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import loop
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"
TINY = 8


def shift_special(record) -> bool:
    special = [g for g in record.get("generators", []) if g["origin"] == "special"]
    if not special:
        return False
    special[0]["grading"] = (special[0]["grading"] + 1) % 4
    return True


def bump_ranks(record) -> bool:
    if not isinstance(record.get("ranks"), list):
        return False
    record["ranks"][0] += 1
    return True


def not_json(record) -> str:
    return "{truncated"


def exit_one(record) -> int:
    return 1


CORRUPTIONS = {
    "special grading": shift_special,
    "rank vector": bump_ranks,
    "text that is not JSON": not_json,
    "exit code 1": exit_one,
}


def corrupting(main, mutate, applied: list):
    """The CLI entry point with its printed record altered by `mutate`, which
    edits the record in place (True when it changed something), or returns
    replacement text, or an exit code."""

    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            return code
        record = json.loads(buf.getvalue())
        changed = mutate(record)
        if changed is False:
            print(json.dumps(record))
            return code
        applied.append(argv)
        if changed is True:
            print(json.dumps(record))
        elif isinstance(changed, str):
            print(changed)
        else:
            return changed
        return code

    return run


def main() -> int:
    _, cli = loop.import_cli(SRC)
    failures = 0

    def report(ok: bool, text: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"[{'PASS' if ok else 'FAIL'}] {text}")

    for name, generate in workloads.WORKLOADS.items():
        records = generate(0)[:TINY]
        clean = loop.measure(records, cli.main, float("inf"), limit=TINY)
        report(
            clean.wrong == 0,
            f"{name}: {clean.attempted} records, {clean.exits} nonzero exit, {clean.wrong} wrong",
        )
        for label, mutate in CORRUPTIONS.items():
            applied: list = []
            tally = loop.measure(records, corrupting(cli.main, mutate, applied), float("inf"), limit=TINY)
            fail_frac = tally.failed / tally.attempted
            report(
                tally.failed == clean.failed + len(applied) and tally.ok == clean.ok - len(applied),
                f"{name}: {label} in {len(applied)} records, {tally.failed} counted failed, "
                f"fail_frac {fail_frac:.3f}",
            )
    print("OK" if failures == 0 else f"FAILED: {failures} check(s)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
