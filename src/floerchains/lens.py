"""Lens-space representation classes and their mod-8 index data.

A nontrivial SO(3) representation of Z/p (p odd) is the adjoint of
exp(2*pi*i*ell/p) for a unique ell in 1 .. (p-1)/2; ell and p - ell are
conjugate.  The index of the odd-dimensional ASD operator between such a
representation and the trivial one, plus one, is a lattice count

    2*N1(k1, k2) + N2(k1, k2)  (mod 8)

over the congruence line i + q*j = 0 (mod p) intersected with the rectangle
|i| <= k1, |j| <= k2, where k1 = ell and k2 = -r*ell mod p with q*r = 1
(mod p).  N1 counts interior points, N2 boundary points.

Both counts are closed forms in O(log p): N1 is a difference of two floor
sums (``arith.floor_sum``) and N2 is 0 or 2 (see ``lattice_counts``).  The
tests pin them to a walk over the j-range and to a double loop over the
whole rectangle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .arith import floor_sum, mod_inverse


@dataclass(frozen=True)
class LensRep:
    """Representation class on L(p, q): p odd > 1, q normalized into (0, p)."""

    p: int
    q: int
    ell: int

    def __post_init__(self):
        if self.p <= 1 or self.p % 2 == 0:
            raise ValueError(f"p must be odd and > 1, got {self.p}")
        q = self.q % self.p
        if q == 0 or math.gcd(self.p, q) != 1:
            raise ValueError(f"q = {self.q} is not invertible mod {self.p}")
        object.__setattr__(self, "q", q)
        if not 1 <= self.ell <= (self.p - 1) // 2:
            raise ValueError(f"ell = {self.ell} outside 1 .. (p-1)/2 for p = {self.p}")


@dataclass(frozen=True)
class LatticeCounts:
    """Window sizes and interior/boundary point counts on the congruence line."""

    k1: int
    k2: int
    n1: int
    n2: int


def lens_reps(p: int, q: int) -> List[LensRep]:
    """All nontrivial representation classes of L(p, q), one per ell."""
    return [LensRep(p, q, ell) for ell in range(1, (p - 1) // 2 + 1)]


def lattice_counts(rep: LensRep) -> LatticeCounts:
    """Count congruence-line points in and on the rectangle |i| <= k1, |j| <= k2.

    Interior points: write j = t - (k2 - 1) with 0 <= t <= 2*k2 - 2, so that
    x_t = (p - q)*t + b, b = q*(k2 - 1) + k1 - 1, is congruent to
    -q*j + k1 - 1.  Since 2*k1 - 1 < p, the class of -q*j holds an i with
    |i| < k1 exactly when x_t mod p < w = 2*k1 - 1.  The indicator
    [x mod p < w] equals floor(x/p) - floor((x + p - w)/p) + 1, so N1 is
    two floor sums.

    Boundary points: -q*k2 = k1 (mod p), so j = +-k2 lands on the corners
    (+-k1, +-k2), which count for neither.  The other points with |i| = k1
    are j = k2 - p and j = p - k2, inside |j| < k2 exactly when 2*k2 > p.
    """
    p, q, ell = rep.p, rep.q, rep.ell
    r = mod_inverse(q, p)
    k1 = ell
    k2 = (-r * ell) % p
    n, a, w = 2 * k2 - 1, p - q, 2 * k1 - 1
    b = (q * (k2 - 1) + k1 - 1) % p
    n1 = floor_sum(n, p, a, b) - floor_sum(n, p, a, b + p - w) + n
    n2 = 2 if 2 * k2 > p else 0
    return LatticeCounts(k1=k1, k2=k2, n1=n1, n2=n2)


def index_plus_one(rep: LensRep) -> int:
    """ASD index of (rep, trivial) plus one, as an even residue mod 8."""
    counts = lattice_counts(rep)
    total = 2 * counts.n1 + counts.n2
    if total % 2:
        raise ArithmeticError(f"odd index datum {total} for {rep}")
    return total % 8

