"""Exact torus-knot signature.

The mod-4 residue of the signature anchors the absolute grading of every
knot chain complex, so it is computed in exact arithmetic.  For a knot
sigma = det - 1 (mod 4) (Murasugi, Trans. AMS 1965).  The two-bridge knot
of (p, q) has determinant p, so ``complexes.two_bridge_generators`` reads
its residue as (p - 1) mod 4 and computes no signature; the floor-sum
two-bridge signature it replaced is a test oracle.

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
