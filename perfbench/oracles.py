"""Record oracles that do not import floerchains.

Each family gets expected values from a formula or a count of its own,
computed when the workload is generated, and a check that compares one
``--json`` record against them.  The checks read only the stable record
fields (``input``, ``generators``, ``ranks``, ``anchoring``, ``extras``), so
they keep working when the library behind the CLI is reorganised.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Pairs = Sequence[Tuple[int, int]]


# ---------------------------------------------------------------- formulas


def two_bridge_sigma(p: int, q: int) -> int:
    """Signature of the two-bridge knot (p, q) by the floor-sum formula.

    sigma = -sum_{i=1}^{p-1} (-1)^floor(i*q_odd/p), q_odd the odd
    representative of q in (-p, p).
    """
    if p == 1:
        return 0
    q0 = q % p
    q_odd = q0 if q0 % 2 else q0 - p
    return -sum(-1 if (i * q_odd // p) % 2 else 1 for i in range(1, p))


def torus_sigma(p: int, q: int) -> int:
    """Signature of the positive torus knot T(p, q), negative by convention.

    Gordon-Litherland-Murasugi recursion (Trans. AMS 1981), which shares
    nothing with the lattice count used by the library.
    """
    if p < q:
        p, q = q, p
    if q == 1:
        return 0
    if q == 2:
        return -(p - 1)
    if 2 * q <= p:
        return torus_sigma(p - 2 * q, q) - (q * q - 1 if q % 2 else q * q)
    return -torus_sigma(2 * q - p, q) - (q * q - 1 if q % 2 else q * q - 2)


def _sawtooth(x: Fraction) -> Fraction:
    return Fraction(0) if x.denominator == 1 else x - math.floor(x) - Fraction(1, 2)


def dedekind_sum(h: int, k: int) -> Fraction:
    return sum(
        (_sawtooth(Fraction(i, k)) * _sawtooth(Fraction(h * i, k)) for i in range(1, k)),
        Fraction(0),
    )


def brieskorn_casson(p: int, q: int, r: int) -> int:
    """Casson invariant of the Brieskorn sphere Sigma(p, q, r) from Dedekind sums.

    lambda = -1/8 + (1 - (pqr)^2 + (qr)^2 + (pr)^2 + (pq)^2) / (24pqr)
             - (s(qr, p) + s(pr, q) + s(pq, r)) / 2
    (Fukuhara-Matsumoto-Sakamoto; Neumann-Wahl).
    """
    n = p * q * r
    lam = (
        Fraction(-1, 8)
        + Fraction(1 - n * n + (q * r) ** 2 + (p * r) ** 2 + (p * q) ** 2, 24 * n)
        - (dedekind_sum(q * r, p) + dedekind_sum(p * r, q) + dedekind_sum(p * q, r)) / 2
    )
    if lam.denominator != 1:
        raise ArithmeticError(f"non-integral Casson value {lam} for {(p, q, r)}")
    return int(lam)


def seifert_h1(pairs: Pairs) -> int:
    """|H1| of the Seifert space, |sum_i b_i * prod_{j != i} a_j|; 0 means b1 > 0."""
    prod = math.prod(a for a, _ in pairs)
    return abs(sum(b * (prod // a) for a, b in pairs))


def _mod2_solutions(pairs: Pairs, target: Sequence[int]) -> int:
    """Number of (chi_1, .., chi_n, chi_h) in (Z/2)^(n+1) with
    a_i*chi_i + b_i*chi_h = t_i and sum chi_i = 0, all mod 2."""
    n = len(pairs)
    count = 0
    for bits in range(1 << (n + 1)):
        chi = [(bits >> i) & 1 for i in range(n + 1)]
        if sum(chi[:n]) % 2:
            continue
        if all((a * chi[i] + b * chi[n] - t) % 2 == 0 for i, ((a, b), t) in enumerate(zip(pairs, target))):
            count += 1
    return count


def link_cover_ok(pairs: Pairs) -> bool:
    """e = 0, H1(.; Z/2) = Z/2, and some single-fiber twist carries w2 != 0."""
    if seifert_h1(pairs) != 0:
        return False
    if _mod2_solutions(pairs, (0,) * len(pairs)) != 2:
        return False
    return w2_twist(pairs) is not None


def w2_twist(pairs: Pairs) -> Optional[Tuple[int, ...]]:
    """Relator parity shifts of the first single-fiber twist that is not a coboundary."""
    for i in range(len(pairs)):
        shifts = tuple(1 if j == i else 0 for j in range(len(pairs)))
        if _mod2_solutions(pairs, shifts) == 0:
            return shifts
    return None


def _rotation_ranges(pairs: Pairs, m: int, shifts: Sequence[int]) -> List[range]:
    """Rotation numbers 0 < l_i < a_i with l_i = m*b_i + t_i (mod 2)."""
    return [range(1 + (m * b + t + 1) % 2, a, 2) for (a, b), t in zip(pairs, shifts)]


def rotation_grid(pairs: Pairs, shifts: Sequence[int]) -> int:
    """Number of rotation-number tuples over both central signs (before the triangle test)."""
    return sum(math.prod(len(r) for r in _rotation_ranges(pairs, m, shifts)) for m in (0, 1))


def _triangle_tuples(pairs: Pairs, shifts: Sequence[int]) -> int:
    """SU(2) classes by rotation numbers: the tuples of _rotation_ranges that
    meet the strict spherical triangle inequality on the angles pi*l_i/a_i,
    compared in integers after scaling by a_1*a_2*a_3."""
    scale = math.prod(a for a, _ in pairs)
    u1, u2, u3 = (scale // a for a, _ in pairs)
    count = 0
    for m in (0, 1):
        r1, r2, r3 = _rotation_ranges(pairs, m, shifts)
        for l1 in r1:
            x = l1 * u1
            for l2 in r2:
                y = l2 * u2
                lo, hi = abs(x - y), min(x + y, 2 * scale - x - y)
                count += sum(1 for l3 in r3 if lo < l3 * u3 < hi)
    return count


def projective_class_count(pairs: Pairs) -> int:
    """SO(3) classes with nontrivial w2: SU(2) twisted classes, paired by the sign action."""
    shifts = w2_twist(pairs)
    if shifts is None:
        raise ValueError(f"no single-fiber twist carries w2 for {pairs}")
    su2 = _triangle_tuples(pairs, shifts)
    if su2 % 2:
        raise ArithmeticError(f"odd SU(2) count {su2} for {pairs}")
    return su2 // 2


def canonical_rotation(vec: Sequence[int]) -> List[int]:
    return list(min(tuple(vec[i:]) + tuple(vec[:i]) for i in range(4)))


# ----------------------------------------------------------------- checks


class Mismatch(Exception):
    """A record disagrees with its oracle."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def _ranks_vector(ranks) -> List[int]:
    _require(isinstance(ranks, list) and len(ranks) == 4, f"ranks {ranks!r}")
    _require(all(isinstance(x, int) and x >= 0 for x in ranks), f"ranks {ranks!r}")
    return ranks


def _special_grading(record: Dict) -> int:
    special = [g for g in record["generators"] if g["origin"] == "special"]
    _require(len(special) == 1 and special[0]["multiplicity"] == 1, "one special generator")
    return special[0]["grading"]


def _reducible_blocks(record: Dict) -> Dict[int, List[Dict]]:
    blocks: Dict[int, List[Dict]] = {}
    for g in record["generators"]:
        if g["origin"] == "reducible":
            blocks.setdefault(g["id"], []).append(g)
    for rows in blocks.values():
        # each reducible circle gives two generators, at mu and mu + 1
        _require(sum(g["multiplicity"] for g in rows) == 2, "reducible block of two")
        known = sorted(g["grading"] for g in rows if g["grading"] is not None)
        if len(known) == 2:
            _require((known[1] - known[0]) in (1, 3), "consecutive reducible gradings")
    return blocks


def _generator_ranks(record: Dict) -> Optional[List[int]]:
    vec = [0, 0, 0, 0]
    for g in record["generators"]:
        if g["grading"] is None:
            return None
        vec[g["grading"] % 4] += g["multiplicity"]
    return vec


def check_two_bridge(record: Dict, expect: Dict) -> None:
    """Total rank p, Euler characteristic 1, special generator at sigma mod 4."""
    p = expect["p"]
    ranks = _ranks_vector(record["ranks"])
    _require(record["anchoring"] == "absolute", "absolute anchoring")
    _require(sum(ranks) == p, f"total rank {sum(ranks)} != p = {p}")
    _require(ranks[0] - ranks[1] + ranks[2] - ranks[3] == 1, f"euler characteristic of {ranks}")
    _require(_special_grading(record) == expect["sigma"] % 4, "special grading != sigma mod 4")
    _require(len(_reducible_blocks(record)) == (p - 1) // 2, "one reducible block per ell")
    _require(_generator_ranks(record) == ranks, "ranks disagree with generators")


def check_brieskorn(record: Dict, expect: Dict) -> None:
    """Ranks (1 + b, b, b, b) with b = -2 * lambda from Dedekind sums."""
    b = -2 * expect["casson"]
    _require(_ranks_vector(record["ranks"]) == [1 + b, b, b, b], f"ranks != {(1 + b, b, b, b)}")
    _require(record["extras"].get("casson") == expect["casson"], "casson invariant")


def check_montesinos_knot(record: Dict, expect: Dict) -> None:
    """Special generator at signature mod 4 and (|H1| - 1) / 2 reducible blocks."""
    order = expect["h1"]
    _require(record["extras"].get("h1_order") == order, f"h1_order != {order}")
    _require(_special_grading(record) == expect["sigma"] % 4, "special grading != signature mod 4")
    _require(len(_reducible_blocks(record)) == (order - 1) // 2, "(|H1| - 1) / 2 reducible blocks")
    if record["ranks"] is not None:
        _require(_generator_ranks(record) == _ranks_vector(record["ranks"]), "ranks disagree with generators")


def check_torus(record: Dict, expect: Dict) -> None:
    """Route by the smaller strand count: 2 is two-bridge (q, 1); odd with odd
    partner is the certified total 1 + 4a, a = -sigma/4; odd with even partner
    is the Seifert route, special generator at sigma mod 4."""
    route = expect["route"]
    if route == "two-bridge":
        check_two_bridge(record, expect)
        return
    sigma = expect["sigma"]
    _require(record["extras"].get("signature") == sigma, f"signature != {sigma}")
    if route == "odd":
        total = 1 + 4 * (-sigma // 4)
        _require(record["extras"].get("total_rank") == total, f"total rank != 1 + 4a = {total}")
        _require(sum(_ranks_vector(record["ranks"])) == total, "rank vector sums to the total")
        return
    _require(_special_grading(record) == sigma % 4, "special grading != sigma mod 4")
    _require(len(_reducible_blocks(record)) == (expect["h1"] - 1) // 2, "(|H1| - 1) / 2 reducible blocks")
    if record["ranks"] is not None:
        _require(_generator_ranks(record) == _ranks_vector(record["ranks"]), "ranks disagree with generators")


def check_montesinos_link(record: Dict, expect: Dict) -> None:
    """total = 4 so3, su2 = 2 so3, ranks the rotation of (2n1, 2n3, 2n1, 2n3)."""
    n, n1 = expect["so3"], expect["n1"]
    n3 = n - n1
    extras = record["extras"]
    _require(extras.get("so3_classes") == n, f"so3 classes != {n}")
    _require(extras.get("su2_classes") == 2 * n, "su2 = 2 * so3")
    _require(extras.get("total_rank") == 4 * n, "total = 4 * so3")
    _require(record["anchoring"] == "cyclic", "cyclic anchoring")
    want = canonical_rotation((2 * n1, 2 * n3, 2 * n1, 2 * n3))
    _require(_ranks_vector(record["ranks"]) == want, f"ranks != {want}")


CHECKS = {
    "two-bridge": check_two_bridge,
    "brieskorn-knot": check_brieskorn,
    "montesinos-knot": check_montesinos_knot,
    "torus": check_torus,
    "montesinos-link": check_montesinos_link,
}


def check(argv: Sequence[str], expect: Dict, record: Dict) -> None:
    """Raise Mismatch unless the record echoes its command and meets its oracle."""
    _require(isinstance(record, dict), "record is an object")
    _require(record.get("input", {}).get("command") == argv[0], "input echo")
    CHECKS[argv[0]](record, expect)
