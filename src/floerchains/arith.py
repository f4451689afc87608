"""Exact integer primitives shared by all other modules.

The package computes in integers only: no ``Fraction`` is built anywhere,
and a Laurent polynomial is a plain {exponent: coefficient} dict.  This
module holds modular inverses and floor sums; the package keeps no general
matrix algorithm.  The test oracles in ``tests/oracles.py`` hold the Smith
normal form of the Seifert H1 presentation and the Goeritz form of the
two-bridge signature (even continued fractions and exact signatures of
symmetric integer matrices).
"""

from __future__ import annotations

import math

from .errors import NotCoprimeError


def mod_inverse(a: int, p: int) -> int:
    """Return r with a*r = 1 (mod p) and 0 < r < p."""
    if p <= 0:
        raise ValueError(f"modulus must be positive, got {p}")
    g = math.gcd(a, p)
    if g != 1:
        raise NotCoprimeError(f"gcd({a}, {p}) = {g}, no inverse mod {p}")
    return pow(a, -1, p)


def floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Return sum_{t=0}^{n-1} floor((a*t + b) / m) in O(log m) steps.

    Requires n >= 0 and m >= 1; a and b may be any integers.  Each round
    peels off the integer parts of a/m and b/m, then swaps the roles of the
    two axes of the lattice-point count under the line y = (a*x + b)/m, the
    Euclidean step of the AtCoder Library ``floor_sum``.
    """
    if n < 0 or m < 1:
        raise ValueError(f"floor_sum needs n >= 0 and m >= 1, got n = {n}, m = {m}")
    total = 0
    while True:
        if not 0 <= a < m:
            total += n * (n - 1) // 2 * (a // m)
            a %= m
        if not 0 <= b < m:
            total += n * (b // m)
            b %= m
        y_max = a * n + b
        if y_max < m:
            return total
        n, b, m, a = y_max // m, y_max % m, a, m
