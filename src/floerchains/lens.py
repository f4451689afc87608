"""Lens-space representation classes and their mod-8 index data.

A nontrivial SO(3) representation of Z/p (p odd) is the adjoint of
exp(2*pi*i*ell/p) for a unique ell in 1 .. (p-1)/2; ell and p - ell are
conjugate.  The index of the odd-dimensional ASD operator between such a
representation and the trivial one, plus one, is a lattice count

    2*N1(ell, k2) + N2(ell, k2)  (mod 8)

over the congruence line i + q*j = 0 (mod p) intersected with the rectangle
|i| <= ell, |j| <= k2, where k2 = -r*ell mod p with q*r = 1 (mod p).  N1
counts interior points, N2 boundary points.

A class is plain integers: callers pass p, q, the inverse r of q and ell,
so a lens space is validated and inverted once, not once per class.  Two
routes give the index:

- ``indices_plus_one`` lists the index of every class of one lens space in
  a single pass over ell, two popcounts per class over words of about
  sqrt(p) bits; the two-bridge record, which grades all (p-1)/2 classes,
  takes this route.
- ``index_plus_one`` gives one class in O(log p): N1 is a difference of two
  floor sums (``arith.floor_sum``) and N2 is 0 or 2 (see
  ``lattice_counts``).  The Montesinos-knot route, which needs at most
  three indices per class, takes this one.

The tests pin the batch to the per-class route and to the two Fenwick-tree
kernels it replaced, and the per-class route to a walk over the j-range and
a double loop over the whole rectangle (``tests/oracles.py``).
"""

from __future__ import annotations

from typing import List, NamedTuple

from .arith import floor_sum


class LatticeCounts(NamedTuple):
    """Window height and interior/boundary point counts on the congruence line."""

    k2: int
    n1: int
    n2: int


def lattice_counts(p: int, q: int, r: int, ell: int) -> LatticeCounts:
    """Count congruence-line points in and on the rectangle |i| <= ell, |j| <= k2.

    Requires odd p > 1, q*r = 1 (mod p) and 1 <= ell <= (p-1)/2.

    Interior points: write j = t - (k2 - 1) with 0 <= t <= 2*k2 - 2, so that
    x_t = (p - q)*t + b, b = q*(k2 - 1) + ell - 1, is congruent to
    -q*j + ell - 1.  Since 2*ell - 1 < p, the class of -q*j holds an i with
    |i| < ell exactly when x_t mod p < w = 2*ell - 1.  The indicator
    [x mod p < w] equals floor(x/p) - floor((x + p - w)/p) + 1, so N1 is
    two floor sums.

    Boundary points: -q*k2 = ell (mod p), so j = +-k2 lands on the corners
    (+-ell, +-k2), which count for neither.  The other points with |i| = ell
    are j = k2 - p and j = p - k2, inside |j| < k2 exactly when 2*k2 > p.
    """
    k2 = (-r * ell) % p
    n, a, w = 2 * k2 - 1, p - q, 2 * ell - 1
    b = (q * (k2 - 1) + ell - 1) % p
    n1 = floor_sum(n, p, a, b) - floor_sum(n, p, a, b + p - w) + n
    n2 = 2 if 2 * k2 > p else 0
    return LatticeCounts(k2=k2, n1=n1, n2=n2)


def index_plus_one(p: int, q: int, r: int, ell: int) -> int:
    """ASD index of (ell, trivial) on L(p, q) plus one, as an even residue mod 8.

    Takes the arguments of ``lattice_counts``: r is the inverse of q mod p.
    """
    counts = lattice_counts(p, q, r, ell)
    total = 2 * counts.n1 + counts.n2
    if total % 2:
        raise ArithmeticError(f"odd index datum {total} for ell = {ell} on L({p}, {q})")
    return total % 8


def indices_plus_one(p: int, r: int) -> List[int]:
    """``index_plus_one(p, q, r, ell)`` for ell = 1 .. (p-1)/2, in one pass.

    Requires odd p > 1 and r invertible mod p; only the inverse r of q
    enters, through k2 = -r*ell mod p.

    The points of the congruence line with |i| = c are j = +-k2(c) and
    j = +-(p - k2(c)), so for c < ell they fall inside |j| < k2(ell) as
    2*[k2(c) < k2(ell)] + 2*[p - k2(c) < k2(ell)], and c = 0 adds the origin.
    Only 2*N1 mod 8 is needed, that is N1 mod 4, and N1 is 1 plus twice a
    count, so only the parity of the count matters.  Folding each k2 to
    m = min(k2, p - k2) in 1 .. (p-1)/2 (classes c != ell fold to distinct
    values) turns that count into #{c < ell : m(c) < m(ell)} when
    2*k2(ell) < p, and into 2*(ell - 1) less it otherwise: same parity.
    So N1 = 1 + 2*#{c < ell : m(c) < m(ell)} (mod 4), while N2 = 2 exactly
    when 2*k2(ell) > p.

    The values m seen so far are bits of words of 2**s bits, with
    s = p.bit_length() // 2, and bit w of ``parities`` is the parity of
    word w.  The parity of the values below m is two popcounts: m's word
    under m's bit, and ``parities`` under m's word.  That is O(p) interpreter steps and
    popcounts over O(p**1.5) bits in all; a fixed width would make the
    popcounts of ``parities`` O(p**2) bits.
    """
    half, r = p // 2, r % p
    shift = p.bit_length() // 2  # words of about sqrt(p) bits
    mask = (1 << shift) - 1
    words = [0] * ((half >> shift) + 1)
    parities = 0  # bit w: parity of the values seen in word w
    out = []
    k2 = 0
    for _ in range(half):
        k2 -= r
        if k2 < 0:
            k2 += p
        if k2 > half:
            m, base = p - k2, 4  # 2*1 + N2
        else:
            m, base = k2, 2
        w = m >> shift
        bit = 1 << (m & mask)
        word = words[w]
        odd = (word & (bit - 1)).bit_count() + (parities & ((1 << w) - 1)).bit_count()
        words[w] = word | bit
        parities ^= 1 << w
        out.append((base + 4 * odd) % 8)
    return out
