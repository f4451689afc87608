"""floerchains benchmark: one workload, one seed, one line of JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Set-up time is the median time to import ``floerchains.cli`` in
a fresh interpreter.  The workload then runs in a fresh single-threaded
child process (loop.py) as a closed loop with one client that calls the
CLI entry point in-process and checks every record with the oracles in
oracles.py.  With ``--trace 1`` the child wraps each layer's functions
(layers.py) and reports per-layer metrics and the tracing overhead instead
of the end-to-end metrics.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

SETUP_RUNS = 15
SETUP_TIMEOUT_S = 20
CHILD_TIMEOUT_S = 150
# import time of floerchains.cli in a fresh interpreter, then the reference
# kernel that scales it (imported afterwards so that it preloads nothing)
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import floerchains.cli\n"
    "elapsed = time.perf_counter() - start\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import reference\n"
    "print(elapsed, elapsed * reference.factor([reference.sample() for _ in range(5)]))\n"
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    # one thread, and the same hash order (set iteration in the library) every run
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1")
    return env


def setup_seconds():
    """Median import time of floerchains.cli over fresh interpreters, in wall
    and in reference seconds; the first run compiles bytecode and is discarded."""
    wall, scaled = [], []
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, env=child_env(), check=True,
        )
        raw, ref = done.stdout.split()[-2:]
        wall.append(float(raw))
        scaled.append(float(ref))
    return statistics.median(wall[1:]), statistics.median(scaled[1:])


def run_child(args) -> dict:
    command = [
        sys.executable, str(HERE / "loop.py"), str(SRC),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=child_env())
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"workload child exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def declared_metrics(kind: str):
    spec = json.loads(BENCHMARK.read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "floerchains" / "cli.py").is_file():
        print(f"error: no floerchains source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
    }
    try:
        setup_wall_s, setup_s = (None, None) if args.trace else setup_seconds()
        result = run_child(args)
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    provenance.update(
        floerchains_version=result["floerchains_version"],
        argv_digest=result["argv_digest"],
        records_in_list=result["records_in_list"],
        trace_overhead=result.get("trace_overhead"),
    )
    print("provenance " + json.dumps(provenance, sort_keys=True))
    defects = result["known_defects"]
    print(f"known defect, untimed and not counted: {defects['failed']} of {defects['attempted']} "
          "torus knots with an even smaller strand count >= 4 fail")
    for example in defects["examples"]:
        print(f"  {example}")
    for example in result["mismatches"]:
        print(f"failed record: {example}")

    if args.trace:
        values = dict(result["layers"], fail_frac=result["fail_frac"], **{"trace.overhead": result["trace_overhead"]})
        print(f"traced {result['attempted']} records in {result['loop_s']:.3f} s, "
              f"untraced {result['untraced_loop_s']:.3f} s, overhead {result['trace_overhead']:+.3f}")
        if result["missing"]:
            print("missing wrapped names: " + ", ".join(result["missing"]))
        busy = sorted((v, k) for k, v in values.items() if k.endswith(".self_s"))
        for seconds, name in reversed(busy):
            print(f"{name:40s} {seconds:9.4f} s {seconds / result['loop_s']:7.1%}")
        kind = "per_layer"
    else:
        values = dict(result, setup_s=setup_s)
        print(f"{result['attempted']} records ({result['failed']} failed: {result['exits']} nonzero exit, "
              f"{result['wrong']} wrong), {result['samples']} latency samples")
        print(f"loop {result['wall_loop_s']:.3f} s wall = {result['loop_s']:.3f} reference s; "
              f"setup {setup_wall_s:.4f} s wall; times below in reference seconds")
        for name, unit in declared_metrics("end_to_end") + [("fail_frac", "ratio")]:
            print(f"{name:16s} {values[name]:.6g} {unit}")
        kind = "end_to_end"

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared_metrics(kind)}
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
