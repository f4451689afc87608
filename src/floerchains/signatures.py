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
        raise ValueError(f"p must be odd and >= 1, got {p}")
    q0 = q % p
    if q0 == 0 or math.gcd(p, q0) != 1:
        raise NotCoprimeError(f"q = {q} is not invertible mod p = {p}")
    a = q0 if q0 % 2 else q0 + p  # q_odd mod 2p
    return -((p - 1) - 2 * floor_sum(p, p, a, 0) + 4 * floor_sum(p, 2 * p, a, 0))


def torus_signature(p: int, q: int) -> int:
    """Signature of the right-handed torus knot on (p, q) strands.

    sigma = N - 2I, with N = (p - 1)(q - 1) points (i, j) in [1, p) x [1, q)
    and I of them strictly inside pq < 2(iq + jp) < 3pq; coprimality puts no
    point on either bound.  For fixed i the inside j form one run of
    [1, q - 1]: rows with 2iq < pq + 2p (i <= i0) keep its top end q - 1,
    the rest are cut at 2jp < 3pq - 2iq, and rows with 2i < p (i <= i1)
    lose the j with 2jp < pq - 2iq.
    Each cut summed over its rows is one floor sum (``arith.floor_sum``),
    so the count costs O(log) steps.  ``tests/oracles.py`` holds the
    routes the tests pin it to: the O(pq) count itself and the
    Gordon-Litherland-Murasugi recursion (Trans. AMS 1981).
    """
    if math.gcd(p, q) != 1:
        raise NotCoprimeError(f"gcd({p}, {q}) != 1")
    if p < 2 or q < 2:
        raise ValueError(f"torus parameters must be >= 2, got ({p}, {q})")
    i0 = min(p - 1, (p * q + 2 * p - 1) // (2 * q))
    i1 = (p - 1) // 2
    top = floor_sum(p - 1 - i0, 2 * p, 2 * q, p * q + 2 * q - 1)
    low = floor_sum(i1, 2 * p, 2 * q, p * q - 2 * q * i1)
    return (p - 1) * (q - 1) - 2 * (i0 * (q - 1) + top - low)
