"""Seeded workload generators.

A workload is a list of ``(argv, expect)`` pairs: the CLI arguments the
program sees and the oracle values the benchmark computed for them.  Every
input is valid by criteria computed here, never by calling the program.

The loop cycles through the list and stops on a time budget, so it may end
part-way through a pass.  Lists are therefore put in a low-discrepancy order
over their cost ranking (see ``interleave``): any stretch of the cycle holds
cheap and expensive records in the same proportion as the whole list, and
the cost of a run does not depend on where it stopped.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

import oracles

Record = Tuple[List[str], Dict]

_PHI = (math.sqrt(5) - 1) / 2
# candidate draws per kept record where a workload picks by cost rank
POOL = 4


def interleave(items: Sequence, rng: random.Random) -> List:
    """Reorder cost-sorted items along the golden-ratio sequence from a seeded start."""
    u = rng.random()
    return [items[i] for i in sorted(range(len(items)), key=lambda i: (u + i * _PHI) % 1.0)]


def _strata(lo: float, hi: float, count: int, rng: random.Random) -> List[float]:
    """One log-uniform draw from each of `count` equal slices of [lo, hi)."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (k + rng.random()) / count) for k in range(count)]


def _spread_pick(pool: Sequence, count: int, key: Callable, rng: random.Random) -> List:
    """One random member from each of `count` equal slices of `pool` ranked by
    `key`, so that every seed draws the same spread of costs."""
    ranked = sorted(pool, key=key)
    return [ranked[int((k + rng.random()) * len(ranked) / count)] for k in range(count)]


def _coprime_choices(a: int) -> List[int]:
    return [b for b in range(1 - a, a) if b and math.gcd(a, b) == 1]


def _two_bridge(p: int, q: int) -> Record:
    return (
        ["two-bridge", "-p", str(p), "-q", str(q), "--json"],
        {"p": p, "sigma": oracles.two_bridge_sigma(p, q)},
    )


def _partial_quotient_sum(p: int, q: int) -> int:
    total = 0
    while q:
        total += p // q
        p, q = q, p % q
    return total


# ------------------------------------------------------------- two-bridge


def two_bridge_sweep(seed: int) -> List[Record]:
    """Every coprime (p, q), odd 3 <= p <= 99, 1 <= q < p: 2006 records."""
    items = [
        _two_bridge(p, q)
        for p in range(3, 100, 2)
        for q in range(1, p)
        if math.gcd(p, q) == 1
    ]
    return interleave(items, random.Random(seed))


LARGE_RECORDS = 128
LARGE_P = (201, 1201)
# q with a long continued fraction makes the dense signature kernel, not the
# lens walk, the cost (seconds per record near q = 1 or p - 1); those pairs
# are measured by two_bridge_sweep, so this workload keeps q whose partial
# quotients of p/q sum to at most this bound.
LARGE_CF_BOUND = 48


def two_bridge_large(seed: int) -> List[Record]:
    """One odd p from each of LARGE_RECORDS equal slices of LARGE_P, random q."""
    rng = random.Random(seed)
    lo, hi = LARGE_P
    width = (hi - lo) / LARGE_RECORDS
    items = []
    for k in range(LARGE_RECORDS):
        p = rng.randrange(int(lo + k * width), int(lo + (k + 1) * width)) | 1
        while True:
            q = rng.randrange(1, p)
            if math.gcd(p, q) == 1 and _partial_quotient_sum(p, q) <= LARGE_CF_BOUND:
                break
        items.append(_two_bridge(p, q))
    return interleave(items, rng)


# --------------------------------------------------------- seifert knots

BRIESKORN_RECORDS = 96
BRIESKORN_PRODUCT = (200, 6000)
BRIESKORN_TRIES = 8
MONTESINOS_RECORDS = 48
MONTESINOS_FIBER_MAX = 12
TORUS_RECORDS = 96
TORUS_STRANDS_MAX = 24


def _brieskorn(target: float, rng: random.Random) -> Record:
    """Pairwise coprime 2 <= p < q < r, p*q*r the closest to `target` of
    BRIESKORN_TRIES random draws (the sweep's cost is about p*q*r / 4)."""
    draws = []
    while len(draws) < BRIESKORN_TRIES:
        p = rng.randint(2, 5)
        q_max = math.isqrt(int(target / p)) - 1
        if q_max <= p:
            continue
        q = rng.randint(p + 1, q_max)
        r = round(target / (p * q))
        while math.gcd(r, p * q) != 1:
            r += 1
        if math.gcd(p, q) == 1 and r > q:
            draws.append((abs(math.log(p * q * r / target)), p, q, r))
    _, p, q, r = min(draws)
    argv = ["brieskorn-knot", str(p), str(q), str(r), "--json"]
    return argv, {"casson": oracles.brieskorn_casson(p, q, r)}


def _montesinos_knot(rng: random.Random) -> Tuple[int, Record]:
    """Three fibers with |H1| = a1*a2*a3 / lcm odd and >= 3 (flat cobordism),
    with a1*a2*a3 as its cost rank."""
    while True:
        a = [rng.randint(2, MONTESINOS_FIBER_MAX) for _ in range(3)]
        order = math.prod(a) // math.lcm(*a)
        if order < 3 or order % 2 == 0:
            continue
        solutions = [
            pairs
            for bs in itertools.product(*map(_coprime_choices, a))
            for pairs in [list(zip(a, bs))]
            if oracles.seifert_h1(pairs) == order
        ]
        if solutions:
            break
    pairs = rng.choice(solutions)
    sigma = 2 * rng.randint(-5, 5)
    argv = [
        "montesinos-knot",
        "--pairs",
        ";".join(f"{x},{y}" for x, y in pairs),
        f"--signature={sigma}",
        "--json",
    ]
    return math.prod(a), (argv, {"h1": order, "sigma": sigma})


def _torus_family() -> Dict[str, List[Tuple[int, int]]]:
    """Coprime 2 <= p < q <= TORUS_STRANDS_MAX by the parity of the strand counts.

    "even-odd" (smaller count even and >= 4) is the class the CLI rejects
    today: it sorts the pair and only tests the larger count for evenness."""
    family: Dict[str, List[Tuple[int, int]]] = {"two": [], "odd": [], "odd-even": [], "even-odd": []}
    for p in range(2, TORUS_STRANDS_MAX + 1):
        for q in range(p + 1, TORUS_STRANDS_MAX + 1):
            if math.gcd(p, q) != 1:
                continue
            if p == 2:
                kind = "two"
            elif p % 2 and q % 2:
                kind = "odd"
            else:
                kind = "odd-even" if p % 2 else "even-odd"
            family[kind].append((p, q))
    return family


def _torus(p: int, q: int, rng: random.Random) -> Record:
    if p == 2:
        expect = {"route": "two-bridge", "p": q, "sigma": oracles.two_bridge_sigma(q, 1)}
    elif p % 2 and q % 2:
        expect = {"route": "odd", "sigma": oracles.torus_sigma(p, q)}
    else:
        # one strand count even: the cover is Seifert with |H1| = det = the odd one
        expect = {"route": "seifert", "sigma": oracles.torus_sigma(p, q), "h1": p if p % 2 else q}
    first, second = (p, q) if rng.random() < 0.5 else (q, p)
    return ["torus", str(first), str(second), "--json"], expect


def _torus_draw(rng: random.Random) -> List[Record]:
    """TORUS_RECORDS pairs from the classes the CLI accepts: each parity class
    keeps its share of them, and within a class the draws spread evenly over
    p*q.  The rejected class is run by ``known_defects`` instead."""
    family = _torus_family()
    del family["even-odd"]
    size = sum(len(v) for v in family.values())
    quotas = {k: TORUS_RECORDS * len(v) / size for k, v in family.items()}
    counts = {k: int(x) for k, x in quotas.items()}
    for k in sorted(quotas, key=lambda k: counts[k] - quotas[k])[: TORUS_RECORDS - sum(counts.values())]:
        counts[k] += 1
    return [
        _torus(p, q, rng)
        for kind in family
        for p, q in _spread_pick(family[kind], counts[kind], lambda pq: pq[0] * pq[1], rng)
    ]


def known_defects() -> List[Record]:
    """Every torus knot of the family whose smaller strand count is even and
    >= 4.  The CLI exits 1 on each today (a defect, see _torus_family); the
    benchmark runs them once, untimed, and reports how many still fail, so
    that the timed workloads hold only inputs the program is meant to accept
    and the defect stays visible until it is fixed."""
    rng = random.Random(0)
    return [_torus(p, q, rng) for p, q in _torus_family()["even-odd"]]


def seifert_knots(seed: int) -> List[Record]:
    """Brieskorn, flat Montesinos and torus knots in fixed shares."""
    rng = random.Random(seed)
    brieskorn = [_brieskorn(t, rng) for t in _strata(*BRIESKORN_PRODUCT, BRIESKORN_RECORDS, rng)]
    pool = [_montesinos_knot(rng) for _ in range(POOL * MONTESINOS_RECORDS)]
    montesinos = [record for _, record in _spread_pick(pool, MONTESINOS_RECORDS, lambda entry: entry[0], rng)]
    torus = _torus_draw(rng)
    return interleave(brieskorn + montesinos + torus, rng)


# --------------------------------------------------------- seifert links

LINK_RECORDS = 512
LINK_PRODUCT = (600, 4800)
LINK_FIBER_MAX = 24


def _link_pairs(rng: random.Random) -> Tuple[Tuple[int, int], ...]:
    """Three fibers with e = 0, H1(.; Z/2) = Z/2 and a1*a2*a3 in LINK_PRODUCT."""
    lo, hi = LINK_PRODUCT
    while True:
        a1, a2 = rng.randint(2, LINK_FIBER_MAX), rng.randint(2, LINK_FIBER_MAX)
        b1, b2 = rng.choice(_coprime_choices(a1)), rng.choice(_coprime_choices(a2))
        third = -(Fraction(b1, a1) + Fraction(b2, a2))
        pairs = ((a1, b1), (a2, b2), (third.denominator, third.numerator))
        if third.denominator >= 2 and lo <= a1 * a2 * third.denominator < hi and oracles.link_cover_ok(pairs):
            return pairs


def _link(pairs: Tuple[Tuple[int, int], ...], n: int, rng: random.Random) -> Record:
    # |lk| = 4 * (n1 - n3) with n1 + n3 = n
    quarter = rng.choice(range(n % 2, n + 1, 2))
    lk = rng.choice((1, -1)) * 4 * quarter
    argv = [
        "montesinos-link",
        "--pairs",
        ";".join(f"{a},{b}" for a, b in pairs),
        f"--lk={lk}",
        "--json",
    ]
    return argv, {"so3": n, "n1": (n + quarter) // 2}


def seifert_links(seed: int) -> List[Record]:
    """Links over homology S^1 x S^2 with at least one class: POOL draws per
    record, spread-picked by the size of the rotation grid the program sweeps."""
    rng = random.Random(seed)
    pool = []
    while len(pool) < POOL * LINK_RECORDS:
        pairs = _link_pairs(rng)
        n = oracles.projective_class_count(pairs)
        if n:
            pool.append((oracles.rotation_grid(pairs, oracles.w2_twist(pairs)), pairs, n))
    picked = _spread_pick(pool, LINK_RECORDS, lambda entry: entry[0], rng)
    items = [_link(pairs, n, rng) for _, pairs, n in picked]
    return interleave(items, rng)


WORKLOADS: Dict[str, Callable[[int], List[Record]]] = {
    "two_bridge_sweep": two_bridge_sweep,
    "two_bridge_large": two_bridge_large,
    "seifert_knots": seifert_knots,
    "seifert_links": seifert_links,
}
