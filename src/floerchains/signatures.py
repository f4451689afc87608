"""Exact knot signatures for the supported families.

The mod-4 residue of the signature anchors the absolute grading of every
knot chain complex, so everything here is computed in exact arithmetic.

Chirality convention, fixed once: the right-handed torus knots have
negative signature, and the two-bridge pair (3, 1) denotes the trefoil
with signature -2.  Only the residue mod 4 is consumed downstream, and
sigma = -sigma (mod 4) for even sigma, so the convention never changes a
grading; it is pinned anyway so the integer outputs are reproducible.
"""

from __future__ import annotations

import math

from .arith import floor_sum
from .errors import NotCoprimeError


def two_bridge_signature(p: int, q: int) -> int:
    """Signature of the two-bridge knot attached to (p, q).

    Closed form: with q_odd the odd representative of q in (-p, p),

        sigma = -sum_{i=1}^{p-1} (-1)^floor(i*q_odd/p).

    Replacing q_odd by a = q_odd mod 2p keeps every parity, and
    (-1)^f = 1 - 2f + 4*floor(f/2) with floor(f/2) = floor(i*a/(2p)), so
    the sum is two floor sums (``arith.floor_sum``) and costs O(log p).
    ``tests/oracles.py`` holds the route the tests pin it to: the exact
    signature of the tridiagonal Goeritz-type form of the even continued
    fraction of (p, q).
    As a sum of p - 1 signs the value is even with |value| <= p - 1; the
    figure-eight pair (5, 3) gives 0 and (3, 1) gives -2.
    """
    if p == 1:
        return 0
    if p < 1 or p % 2 == 0:
        raise ValueError(f"p must be odd and > 1, got {p}")
    q0 = q % p
    if q0 == 0 or math.gcd(p, q0) != 1:
        raise NotCoprimeError(f"q = {q} is not invertible mod p = {p}")
    a = q0 if q0 % 2 else q0 + p  # q_odd mod 2p
    return -((p - 1) - 2 * floor_sum(p, p, a, 0) + 4 * floor_sum(p, 2 * p, a, 0))


def torus_signature(p: int, q: int) -> int:
    """Signature of the right-handed torus knot on (p, q) strands.

    Counting rule: each lattice pair (i, j) with 1 <= i < p, 1 <= j < q
    contributes -1 when (i/p + j/q) mod 2 lies in the open interval
    (1/2, 3/2), +1 when it lies outside, and 0 on the boundary.  The
    comparisons are exact integer comparisons after scaling by 4pq.
    """
    if math.gcd(p, q) != 1:
        raise NotCoprimeError(f"gcd({p}, {q}) != 1")
    if p < 2 or q < 2:
        raise ValueError(f"torus parameters must be >= 2, got ({p}, {q})")
    lo, hi = p * q, 3 * p * q
    total = 0
    for i in range(1, p):
        for j in range(1, q):
            u = (2 * (i * q + j * p)) % (4 * p * q)
            if lo < u < hi:
                total -= 1
            elif u != lo and u != hi:
                total += 1
    if total % 2:
        raise ArithmeticError(f"odd signature {total} for ({p}, {q})")
    return total

