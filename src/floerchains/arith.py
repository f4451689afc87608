"""Exact integer primitives shared by all other modules.

The package computes in integers only: no ``Fraction`` is built anywhere,
and a Laurent polynomial is a plain {exponent: coefficient} dict.  This
module holds the handful of exact routines the topology pipelines need:
modular inverses, floor sums, the second derivative at 1 of a Laurent
polynomial and Smith normal form.  The Goeritz-form oracle of the
two-bridge signature (even continued fractions and exact signatures of
symmetric integer matrices) lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence, Tuple

from .errors import NotCoprimeError, NotNormalizedError


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


def second_derivative_at_one(delta: Mapping[int, int]) -> int:
    """Second derivative at t = 1 of a normalized symmetric Laurent polynomial.

    The polynomial is an {exponent: coefficient} map; a missing exponent and
    a zero coefficient mean the same.  Requires delta(1) = 1 and
    delta(t) = delta(1/t); equals sum_k c_k * k * (k - 1), which is even for
    every symmetric input.
    """
    at_one = sum(delta.values())
    if at_one != 1:
        raise NotNormalizedError(f"delta(1) = {at_one}, expected 1")
    if any(delta.get(-e, 0) != c for e, c in delta.items()):
        raise NotNormalizedError("delta(t) != delta(1/t)")
    return sum(c * e * (e - 1) for e, c in delta.items())


def _identity(n: int) -> List[List[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Return unimodular U, V and diagonal D with U * A * V = D.

    Diagonal entries are non-negative and satisfy the divisibility chain
    d1 | d2 | ... .  Intended for the small relation matrices of Seifert
    presentations; the algorithm is the textbook pivot-and-reduce loop.
    """
    a = [[int(x) for x in row] for row in matrix]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    u = _identity(m)
    v = _identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, f):
        for k in range(n):
            a[dst][k] += f * a[src][k]
        for k in range(m):
            u[dst][k] += f * u[src][k]

    def add_col(dst, src, f):
        for row in a:
            row[dst] += f * row[src]
        for row in v:
            row[dst] += f * row[src]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            swap_rows(t, i)
        if j != t:
            swap_cols(t, j)
        dirty = False
        for i in range(t + 1, m):
            f = a[i][t] // a[t][t]
            if f:
                add_row(i, t, -f)
            if a[i][t]:
                dirty = True
        for j in range(t + 1, n):
            f = a[t][j] // a[t][t]
            if f:
                add_col(j, t, -f)
            if a[t][j]:
                dirty = True
        if dirty:
            continue
        rem = next(
            (
                (i, j)
                for i in range(t + 1, m)
                for j in range(t + 1, n)
                if a[i][j] % a[t][t] != 0
            ),
            None,
        )
        if rem is not None:
            add_row(t, rem[0], 1)
            continue
        if a[t][t] < 0:
            for k in range(n):
                a[t][k] = -a[t][k]
            for k in range(m):
                u[t][k] = -u[t][k]
        t += 1

    return u, a, v
