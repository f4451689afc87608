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

    Gordon-Litherland-Murasugi recursion (Trans. AMS 1981), for p > q:
    sigma(p, 1) = 0, sigma(p, 2) = 1 - p, and

        sigma(p, q) = sigma(p - 2q, q) - A(q)    if 2q < p,
        sigma(p, q) = -sigma(2q - p, q) - B(q)   if q < p < 2q,

    with A(q) = q^2 - 1, B(q) = q^2 - 1 for odd q and A(q) = q^2,
    B(q) = q^2 - 2 for even q; sigma is symmetric in p and q.  The loop
    keeps the answer as total + sign * sigma(p, q) and folds each run of one
    rule into a single step, so it takes O(log) steps, like Euclid's
    algorithm.  A run of the first rule is k = p // 2q steps.  The second
    rule keeps d = p - q while q drops by d and the sign flips, so a pair of
    its steps from q' lowers q by 2d and subtracts B(q') - B(q' - d) =
    d*(2q' - d) + e with e = q mod 2 - (q - d) mod 2; k = (q - 1) // 2d
    pairs fit, and the sum over them is closed.
    ``tests/oracles.py`` holds the lattice count over the (p - 1)(q - 1)
    grid that the tests pin this to.
    """
    if math.gcd(p, q) != 1:
        raise NotCoprimeError(f"gcd({p}, {q}) != 1")
    if p < 2 or q < 2:
        raise ValueError(f"torus parameters must be >= 2, got ({p}, {q})")
    total, sign = 0, 1
    while True:
        if p < q:
            p, q = q, p
        if q == 1:
            return total
        if q == 2:
            return total - sign * (p - 1)
        if 2 * q < p:
            k = p // (2 * q)
            total -= sign * k * (q * q - q % 2)
            p -= 2 * q * k
            continue
        d = p - q
        k = (q - 1) // (2 * d)
        if k:
            e = q % 2 - (q - d) % 2
            total -= sign * k * (d * (2 * q - 2 * d * k + d) + e)
            q -= 2 * d * k
            p = q + d
        else:
            total -= sign * (q * q - 2 + q % 2)
            sign = -sign
            p = 2 * q - p
