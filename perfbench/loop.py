"""Closed-loop client: one workload, one interpreter, one record at a time.

Started by run.py as a child process.  It generates the workload from the
seed, calls ``floerchains.cli.main(argv)`` in-process with stdout captured,
times each call from entry to printed JSON, and checks every record against
the oracles outside the timed region.  It prints one JSON line.

    python3 perfbench/loop.py SRC --workload NAME --seed N --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import layers
import oracles
import reference
import workloads

WARMUP_RECORDS = 8
MISMATCH_EXAMPLES = 5
REFERENCE_EVERY_S = 0.05


def run_record(main: Callable, argv: Sequence[str]):
    """Call the CLI once; return (exit code, seconds, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed record, not the end of the run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return code, elapsed, out.getvalue()


def outcome(argv: Sequence[str], expect: Dict, code, text: str) -> Optional[str]:
    """None for a correct record; otherwise why it failed, prefixed
    'exit' for a nonzero exit and 'wrong' for output that fails its oracle."""
    if code != 0:
        return f"exit {code}"
    try:
        oracles.check(argv, expect, json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, oracles.Mismatch) as exc:
        return f"wrong: {type(exc).__name__}: {exc}"
    return None


@dataclass
class Tally:
    attempted: int = 0
    exits: int = 0
    wrong: int = 0
    loop_s: float = 0.0
    emitted_bytes: int = 0
    mismatches: List[str] = field(default_factory=list)
    # per record: its position in the workload list, wall seconds, whether it
    # was correct, and the last reference sample taken before it
    inputs: List[int] = field(default_factory=list)
    times: List[float] = field(default_factory=list)
    correct: List[bool] = field(default_factory=list)
    positions: List[int] = field(default_factory=list)
    reference: List[float] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.exits + self.wrong

    @property
    def ok(self) -> int:
        return self.attempted - self.failed


def measure(records, main: Callable, budget_s: float, limit: Optional[int] = None) -> Tally:
    """Cycle through records until the timed CLI calls add up to budget_s
    (or `limit` records have run), sampling the reference kernel every
    REFERENCE_EVERY_S between records."""
    tally = Tally(reference=[reference.sample()])
    sampled = time.perf_counter()
    while tally.loop_s < budget_s and (limit is None or tally.attempted < limit):
        index = tally.attempted % len(records)
        argv, expect = records[index]
        code, elapsed, text = run_record(main, argv)
        tally.attempted += 1
        tally.inputs.append(index)
        tally.loop_s += elapsed
        tally.emitted_bytes += len(text)
        tally.times.append(elapsed)
        tally.positions.append(len(tally.reference) - 1)
        why = outcome(argv, expect, code, text)
        tally.correct.append(why is None)
        if why is not None:
            if why.startswith("wrong"):
                tally.wrong += 1
            else:
                tally.exits += 1
            if len(tally.mismatches) < MISMATCH_EXAMPLES:
                tally.mismatches.append(f"{' '.join(argv)} -> {why}")
        if time.perf_counter() - sampled >= REFERENCE_EVERY_S:
            tally.reference.append(reference.sample())
            sampled = time.perf_counter()
    tally.reference.append(reference.sample())
    return tally


def argv_digest(records) -> str:
    text = "\n".join(" ".join(argv) for argv, _ in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summary(tally: Tally) -> Dict:
    """End-to-end figures in reference seconds (see reference.py), with the
    wall-clock loop time for comparison.

    For the latency percentiles each correct record counts with the median
    time of all correct runs of its input in this run: the machine's speed
    flickers by tens of percent between consecutive milliseconds, and the
    median over repeats keeps that out of the distribution across inputs.
    An input that ran once keeps its own time."""
    times = reference.scaled(tally.times, tally.positions, tally.reference)
    loop_s = sum(times)
    repeats: Dict[int, List[float]] = defaultdict(list)
    for index, seconds, ok in zip(tally.inputs, times, tally.correct):
        if ok:
            repeats[index].append(seconds)
    typical = {index: statistics.median(runs) * 1e3 for index, runs in repeats.items()}
    ms = [typical[index] for index, ok in zip(tally.inputs, tally.correct) if ok]
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "exits": tally.exits,
        "wrong": tally.wrong,
        "samples": len(ms),
        "wall_loop_s": tally.loop_s,
        "loop_s": loop_s,
        "records_per_s": tally.ok / loop_s if loop_s else 0.0,
        "latency_p50_ms": statistics.median(ms) if ms else None,
        "latency_p90_ms": statistics.quantiles(ms, n=10)[-1] if len(ms) > 1 else None,
        "fail_frac": tally.failed / tally.attempted if tally.attempted else 0.0,
        "mismatches": tally.mismatches,
    }


def import_cli(src: Path):
    sys.path.insert(0, str(src))
    import floerchains
    import floerchains.cli

    where = Path(floerchains.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"floerchains imported from {where}, not from {src}")
    return floerchains, floerchains.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("src", type=Path)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    package, cli = import_cli(args.src)
    records = workloads.WORKLOADS[args.workload](args.seed)
    result = {
        "records_in_list": len(records),
        "argv_digest": argv_digest(records),
        "floerchains_version": getattr(package, "__version__", None),
    }
    measure(records[-WARMUP_RECORDS:], cli.main, float("inf"), limit=WARMUP_RECORDS)
    # untimed and outside the counts: inputs the program is known to reject
    defects = workloads.known_defects()
    probe = measure(defects, cli.main, float("inf"), limit=len(defects))
    result["known_defects"] = {
        "attempted": probe.attempted,
        "failed": probe.failed,
        "examples": probe.mismatches,
    }

    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = measure(records, cli.main, args.seconds)
        finally:
            tracer.uninstall()
        # the same records again with the wrappers removed
        plain = measure(records, cli.main, float("inf"), limit=traced.attempted)
        result.update(summary(traced))
        result["layers"] = tracer.metrics(
            records=traced.attempted,
            emitted_bytes=traced.emitted_bytes,
            to_reference=result["loop_s"] / result["wall_loop_s"],
        )
        result["missing"] = tracer.missing
        untraced = summary(plain)
        result["untraced_loop_s"] = untraced["loop_s"]
        result["trace_overhead"] = result["loop_s"] / untraced["loop_s"] - 1
    else:
        tally = measure(records, cli.main, args.seconds)
        result.update(summary(tally))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
