"""Machine-speed reference for the benchmark's clock.

On a shared 2-core virtual machine the speed one process sees drifts by
10-30 % over seconds to minutes (other tenants use the same cores), which no
run length within the benchmark's time limits averages out.  So every run
also times this fixed pure-Python kernel (rational arithmetic, an integer
loop, JSON output: the kinds of work the program does) between records, and
reports times scaled by ``NOMINAL_S / kernel time``: seconds on a machine
where the kernel takes NOMINAL_S.  The kernel does not depend on the
program, so a change to the program moves the scaled times as it moves the
wall times; what is divided out is the machine's drift.  Raw wall times are
printed alongside.
"""

from __future__ import annotations

import json
import statistics
import time
from fractions import Fraction
from typing import List, Sequence

# median kernel time on a 2-core x86-64 VM under Python 3.11; any fixed value works
NOMINAL_S = 0.0025
# a record's speed is the median of this many kernel samples on either side of it
WINDOW = 2


def kernel() -> int:
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, 241) * Fraction(241 - i, 239)
    total = sum((i * 37) % 101 for i in range(12000))
    text = json.dumps({"a": list(range(120)), "b": [str(i) for i in range(60)]}, indent=2, sort_keys=True)
    return acc.denominator + total + len(text)


def sample() -> float:
    """Seconds one kernel call takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def factor(samples: Sequence[float]) -> float:
    """Reference seconds per wall second, given kernel times taken meanwhile."""
    return NOMINAL_S / statistics.median(samples)


def scaled(times: Sequence[float], positions: Sequence[int], samples: Sequence[float]) -> List[float]:
    """Wall times in reference seconds; a time taken after samples[p] and
    before samples[p + 1] is scaled by the WINDOW samples on either side."""
    return [t * factor(samples[max(0, p - WINDOW + 1) : p + WINDOW + 1]) for t, p in zip(times, positions)]
