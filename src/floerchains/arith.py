"""Exact integer and rational primitives shared by all other modules.

Rationals are plain ``fractions.Fraction`` values throughout the package:
they already enforce gcd(|num|, den) = 1 and den > 0.  This module adds the
handful of exact routines the topology pipelines need: modular inverses,
floor sums, Laurent polynomials and Smith normal form.  The Goeritz-form
oracle of the two-bridge signature (even continued fractions and exact
signatures of symmetric integer matrices) lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

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


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients.

    Stored as a map from exponent to nonzero coefficient, so the widely
    spread-out Alexander polynomials of torus knots stay cheap.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[Tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: Dict[int, int] = {}
        for e, c in items:
            acc[int(e)] = acc.get(int(e), 0) + int(c)
        self._coeffs = {e: c for e, c in acc.items() if c != 0}

    @classmethod
    def constant(cls, c: int) -> "LaurentPoly":
        return cls({0: c})

    @property
    def coeffs(self) -> Dict[int, int]:
        return dict(self._coeffs)

    def __call__(self, x):
        """Exact evaluation; x may be an int or Fraction (nonzero for e < 0)."""
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * Fraction(x) ** e
        if total.denominator == 1:
            return int(total)
        return total

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t**k."""
        return LaurentPoly({e + k: c for e, c in self._coeffs.items()})

    def is_symmetric(self) -> bool:
        """True when p(t) = p(1/t)."""
        return all(self._coeffs.get(-e) == c for e, c in self._coeffs.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LaurentPoly(0)"
        parts = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            term = "t" if e == 1 else "1" if e == 0 else f"t^{e}"
            if e != 0 and abs(c) != 1:
                term = f"{abs(c)}*{term}"
            elif e == 0:
                term = str(abs(c))
            parts.append(("- " if c < 0 else "+ ") + term)
        text = " ".join(parts)
        return "LaurentPoly(" + (text[2:] if text.startswith("+ ") else "-" + text[2:]) + ")"


def second_derivative_at_one(delta: LaurentPoly) -> int:
    """Second derivative at t = 1 of a normalized symmetric Laurent polynomial.

    Requires delta(1) = 1 and delta(t) = delta(1/t); equals
    sum_k c_k * k * (k - 1), which is even for every symmetric input.
    """
    if delta(1) != 1:
        raise NotNormalizedError(f"delta(1) = {delta(1)}, expected 1")
    if not delta.is_symmetric():
        raise NotNormalizedError("delta(t) != delta(1/t)")
    return sum(c * e * (e - 1) for e, c in delta.coeffs.items())


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
