"""Homological data of double branched covers.

First-homology orders, with 0 for an infinite group (b1 = 1): from the
Alexander polynomial at -1, and of Seifert-fibered covers from unnormalized
Seifert pairs, in integer arithmetic.  Also the Casson invariant of a knot's
zero-surgery from the surgery knot's Alexander polynomial.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Mapping, Sequence, Tuple

from .errors import NotNormalizedError


def _as_int(x) -> int:
    """``int(x)``, but a non-integral number is refused rather than truncated."""
    n = int(x)
    if n != x and not isinstance(x, str):
        raise ValueError(f"expected an integer, got {x!r}")
    return n


class SeifertData(namedtuple("SeifertData", "pairs")):
    """Unnormalized Seifert pairs (a_i, b_i) with a_i >= 1 and gcd(a_i, b_i) = 1.

    The pairs are stored as a tuple of int pairs, whatever sequence they came in.
    """

    __slots__ = ()

    def __new__(cls, pairs: Sequence[Tuple[int, int]]):
        if not pairs:
            raise ValueError("SeifertData needs at least one pair")
        normalized = tuple((_as_int(a), _as_int(b)) for a, b in pairs)
        for a, b in normalized:
            if a < 1:
                raise ValueError(f"fiber multiplicity must be >= 1, got {a}")
            if math.gcd(a, b) != 1:
                raise ValueError(f"pair ({a}, {b}) is not coprime")
        return super().__new__(cls, normalized)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)


def branched_cover_h1(delta: Mapping[int, int]) -> int:
    """|H1| of the double cover from the branch set's Alexander polynomial; 0 encodes b1 = 1.

    The polynomial is an {exponent: coefficient} map.  The cover has
    b1 = 1 when delta(-1) = 0 and otherwise has finite first homology of
    order |delta(-1)| (the determinant of the branch set), so the result is
    |delta(-1)| either way, in the encoding of ``seifert_h1_order``.
    """
    return abs(sum(-c if e % 2 else c for e, c in delta.items()))


def casson_from_alexander(delta: Mapping[int, int]) -> int:
    """Casson invariant of the zero-surgery from the surgery knot's Alexander polynomial.

    The polynomial is an {exponent: coefficient} map, a zero coefficient
    meaning an absent term, with delta(1) = 1 and delta(t) = delta(1/t).  The
    invariant -delta''(1) / 2 is, by the symmetry, -sum_{e > 0} c_e * e**2.
    """
    at_one = sum(delta.values())
    if at_one != 1:
        raise NotNormalizedError(f"delta(1) = {at_one}, expected 1")
    if any(delta.get(-e, 0) != c for e, c in delta.items()):
        raise NotNormalizedError("delta(t) != delta(1/t)")
    return -sum(c * e * e for e, c in delta.items() if e > 0)


def seifert_h1_order(s: SeifertData) -> int:
    """|H1| of the Seifert-fibered space with the given pairs; 0 encodes b1 > 0.

    Equals |e * a_1 * ... * a_n| with e = sum(b_i / a_i), computed in
    integers as |sum_i b_i * prod_{j != i} a_j| by folding in one pair at a
    time.  A zero Euler number means the space is a homology S^1 x S^2.
    """
    total, prod = 0, 1
    for a, b in s.pairs:
        total, prod = total * a + b * prod, prod * a
    return abs(total)
