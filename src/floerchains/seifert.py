"""Representation classes of Seifert-fibered double branched covers.

The fundamental group of the Seifert space with unnormalized pairs
(a_1, b_1), ..., (a_n, b_n) is

    < x_1, ..., x_n, h | h central, x_i^(a_i) = h^(-b_i), x_1 ... x_n = 1 >.

An irreducible SU(2) representation sends h to a central sign (-1)^m and
each x_i to a rotation by angle pi * ell_i / a_i, subject to the parity
constraint ell_i = m * b_i (mod 2) forced by the torsion relation, and to
the strict spherical triangle condition on the three angles, which is
exactly the existence-and-rigidity criterion for an irreducible triple
with prescribed conjugacy classes.  Twisting a relator by a sign flips the
corresponding parity and enumerates projective classes instead.  On a
homology S^1 x S^2 (e = 0) the parities of the multiplicities fix both the
twist that carries w2 and the sign character that pairs projective classes
into orbits: two even fibers, twisted on the larger, or none, twisted on the
largest (``_link_twist``).

All angle comparisons are exact integer comparisons: the angles
ell_i / a_i are scaled by a_1 * a_2 before they are compared.  For each
(ell_1, ell_2) the admissible ell_3 form one interval; irreducible classes
are only counted, by summing the interval lengths, while projective orbits
are returned as the (m, ells) tuple of their first member and reducible
classes as their ells tuple.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator, List, Sequence, Tuple

from .arith import mod_inverse
from .covers import SeifertData, seifert_h1_order
from .errors import (
    EvenOrderError,
    FlatCobordismError,
    InfiniteH1Error,
    NotCoprimeError,
    NotHomologyS1xS2Error,
    UnsupportedFiberCountError,
)


def _reduced_cover(s: SeifertData) -> Tuple[SeifertData, int]:
    """The data reduced to three exceptional fibers, and its |H1|.

    Every (1, b) pair is folded into the first exceptional fiber: moving b
    onto (a, c) yields (a, c + a*b), the same manifold.  Data with no
    exceptional fiber reduces to the single pair (1, sum of the b).  Raises
    UnsupportedFiberCountError unless three exceptional fibers remain; |H1|
    is ``seifert_h1_order`` of the triple, 0 when it is infinite.
    """
    shift = sum(b for a, b in s.pairs if a == 1)
    pairs = [(a, b) for a, b in s.pairs if a > 1] or [(1, 0)]
    a0, b0 = pairs[0]
    pairs[0] = (a0, b0 + a0 * shift)
    if len(pairs) != 3:
        raise UnsupportedFiberCountError(
            f"need exactly 3 exceptional fibers, got {tuple(pairs)}"
        )
    reduced = SeifertData(pairs)
    return reduced, seifert_h1_order(reduced)


def _rotation_intervals(
    pairs, m: int, parity_shift: Sequence[int]
) -> Iterator[Tuple[int, int, int, int]]:
    """Rotation-number sweep for central sign (-1)^m and given relator parities.

    Each ell_i runs over 0 < ell_i < a_i with ell_i = m*b_i + t_i (mod 2),
    and the tuple must satisfy the strict spherical triangle condition
    |f1 - f2| < f3 < min(f1 + f2, 2 - f1 - f2) on f_i = ell_i / a_i.  For
    fixed (ell_1, ell_2) put d = a_1*a_2, x_1 = ell_1*a_2, x_2 = ell_2*a_1
    and s = x_1 + x_2; the condition then holds exactly for ell_3 in

        floor(a_3*|x_1 - x_2| / d) + 1 <= ell_3 <= floor((a_3*min(s, 2d - s) - 1) / d),

    a range inside [1, a_3 - 1].  Yields (ell_1, ell_2, lo, hi) for every
    (ell_1, ell_2) in lexicographic order, with lo moved up to the required
    parity: the admissible ell_3 are range(lo, hi + 1, 2), possibly empty.
    The sweep takes O(a_1*a_2) steps whatever the number of tuples.
    """
    (a1, b1), (a2, b2), (a3, b3) = pairs
    t1, t2, t3 = parity_shift
    want3 = (m * b3 + t3) % 2
    d = a1 * a2
    for ell1 in range(2 - (m * b1 + t1) % 2, a1, 2):
        x1 = ell1 * a2
        for ell2 in range(2 - (m * b2 + t2) % 2, a2, 2):
            x2 = ell2 * a1
            s = x1 + x2
            lo = a3 * abs(x1 - x2) // d + 1
            hi = (a3 * min(s, 2 * d - s) - 1) // d
            yield ell1, ell2, lo + (lo - want3) % 2, hi


def _irreducible_count(pairs) -> int:
    """Number of irreducible SU(2) classes of three exceptional fibers.

    Sums the lengths of the untwisted sweep's ell_3 intervals over both
    central signs.  The count does not depend on the order of the fibers,
    so the sweep takes them in increasing multiplicity and walks the two
    smallest: O(a_1*a_2) time for a_1 <= a_2 <= a_3, and constant memory.
    For covers of knots (odd |H1|) these classes coincide with the
    irreducible SO(3) classes with trivial w2.
    """
    pairs = sorted(pairs)
    return sum(
        len(range(lo, hi + 1, 2))
        for m in (0, 1)
        for _, _, lo, hi in _rotation_intervals(pairs, m, (0, 0, 0))
    )


def casson(p: int, q: int, r: int) -> int:
    """Casson invariant of the Brieskorn sphere with the given multiplicities.

    Builds Seifert data with Euler number -1/(p*q*r) and counts irreducible
    classes; the invariant is minus half the count.  Inputs must be
    pairwise coprime positive integers, as ``brieskorn_seifert_data``
    checks.  A trivial multiplicity needs no case of its own: its fiber
    sweeps an empty range, so the count is 0.
    """
    count = _irreducible_count(brieskorn_seifert_data(p, q, r).pairs)
    if count % 2:
        raise ArithmeticError(f"odd irreducible count {count} for ({p}, {q}, {r})")
    return -count // 2


def brieskorn_seifert_data(p: int, q: int, r: int) -> SeifertData:
    """Seifert pairs for the Brieskorn sphere: e = -1/(p*q*r).

    Inputs must be pairwise coprime positive integers.  A trivial
    multiplicity needs no case of its own: the inverse mod 1 is 0, so its
    pair is (1, 0), or carries the remainder when it comes last.
    """
    values = (p, q, r)
    if any(v < 1 for v in values):
        raise ValueError(f"multiplicities must be positive, got {values}")
    for x, y in itertools.combinations(values, 2):
        if math.gcd(x, y) != 1:
            raise NotCoprimeError(f"{x} and {y} are not coprime")
    qr, pr, pq = q * r, p * r, p * q
    b1 = (-mod_inverse(qr % p, p)) % p
    b2 = (-mod_inverse(pr % q, q)) % q
    rem = -1 - b1 * qr - b2 * pr
    if rem % pq:
        raise ArithmeticError(f"Euler number -1/{p * q * r} has no integral third pair")
    return SeifertData(((p, b1), (q, b2), (r, rem // pq)))


def reducible_characters(s: SeifertData, order: int) -> List[Tuple[int, ...]]:
    """Nontrivial characters of H1 into SO(2), up to inversion.

    Takes the three exceptional fibers and the |H1| of ``_reduced_cover``.
    |H1| must be finite and odd, and the cobordism flat: a_1*a_2*a_3 =
    lcm(a_i) * |H1|.  Flatness makes every character trivial on h, so a
    character is a triple k_i in Z/a_i with sum k_i * (L / a_i) = 0
    (mod L), L the lcm.  The walk runs over the smallest fiber; for each k
    on it the second fiber steps through the arithmetic progression of
    solutions of that congruence mod L / a_3, and the third is solved for:
    O(a_min + |H1|) steps.  Each class is returned as its induced rotation
    numbers ell_i = min(k_i, a_i - k_i), and the classes come sorted by
    these tuples.
    """
    if order == 0:
        raise InfiniteH1Error("first homology is infinite")
    if order % 2 == 0:
        raise EvenOrderError(f"|H1| = {order} is even")
    mults = [a for a, _ in s.pairs]
    lcm = math.lcm(*mults)
    if math.prod(mults) != lcm * order:
        raise FlatCobordismError(
            "central fiber class survives in H1; characters do not extend flatly"
        )

    # walk order: fiber i smallest, then j, then t; the congruence on
    # (k_i, k_j) is k_i*w_i + k_j*w_j = 0 (mod m) with m = L / a_t
    walk = sorted(range(3), key=lambda i: mults[i])
    (ai, wi), (aj, wj), (at, m) = ((mults[i], lcm // mults[i]) for i in walk)
    g = math.gcd(wj, m)
    step = m // g
    inv = pow(wj // g, -1, step)
    found = []
    for ki in range(ai):
        c = -ki * wi
        if c % g:
            continue
        li = min(ki, ai - ki)
        for kj in range(c // g * inv % step, aj, step):
            kt = (c - kj * wj) // m % at
            found.append((li, min(kj, aj - kj), min(kt, at - kt)))
    back = operator.itemgetter(*(walk.index(i) for i in range(3)))
    # k and -k fold to the same tuple and |H1| is odd, so after the trivial
    # character, which sorts first, every class appears exactly twice
    classes = sorted(map(back, found))[1::2]
    if len(classes) != (order - 1) // 2:
        raise ArithmeticError(f"{len(classes)} character classes for |H1| = {order}")
    return classes


def _link_twist(pairs) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Relator parity shifts of the w2 twist, and the nontrivial sign character.

    Takes three exceptional fibers with e = 0, where the parities of the
    multiplicities decide both.  Exactly one even fiber cannot occur: its
    b_i / a_i would be the only term of e with negative 2-adic valuation.
    With two even fibers the twist goes on the larger of them and chi is 1
    on both and 0 on the odd fiber and on h; with none, the twist goes on
    the largest fiber and chi is b_i mod 2 on x_i and 1 on h.  Ties go to
    the earlier fiber.  Three even fibers make H1(.; Z/2) = (Z/2)^2 and
    raise NotHomologyS1xS2Error.  chi is returned as (chi_1, .., chi_n, chi_h).
    """
    n = len(pairs)
    even = [i for i, (a, _) in enumerate(pairs) if a % 2 == 0]
    if len(even) not in (0, 2):
        raise NotHomologyS1xS2Error(
            "H1(.; Z/2) is not Z/2; not a two-component link cover"
        )
    # max keeps the first of equal multiplicities
    twisted = max(even or range(n), key=lambda i: pairs[i][0])
    shifts = tuple(int(i == twisted) for i in range(n))
    if even:
        return shifts, tuple(int(i in even) for i in range(n)) + (0,)
    return shifts, tuple(b % 2 for _, b in pairs) + (1,)


def enumerate_projective(s: SeifertData) -> List[Tuple[int, Tuple[int, ...]]]:
    """SO(3) classes with nontrivial w2, one per orbit of the free sign action.

    The data must reduce to three exceptional fibers (``_reduced_cover``,
    checked first) whose cover is a homology S^1 x S^2.  SU(2) classes of
    the relations twisted by _link_twist come from the rotation sweep; the
    nontrivial character of H1(.; Z/2) acts on them by ell_i -> a_i - ell_i
    on the fibers it hits (and flips the central sign when it is nonzero
    on h), and orbits have size two.  Each orbit is returned as the
    (m, ells) pair of its first member in sweep order.
    """
    s, order = _reduced_cover(s)
    if order != 0:
        raise NotHomologyS1xS2Error(f"|H1| = {order}, expected a homology S^1 x S^2")
    pairs = s.pairs
    shifts, chi = _link_twist(pairs)
    n = len(pairs)

    def partner(cls):
        m, ells = cls
        flipped = tuple(
            pairs[i][0] - ell if chi[i] else ell for i, ell in enumerate(ells)
        )
        return ((m + chi[n]) % 2, flipped)

    # the sweep emits (m, ells) in lexicographic order, so naming each orbit
    # by its first member lists the orbits in that order too
    su2 = [
        (m, (ell1, ell2, ell3))
        for m in (0, 1)
        for ell1, ell2, lo, hi in _rotation_intervals(pairs, m, shifts)
        for ell3 in range(lo, hi + 1, 2)
    ]
    remaining = set(su2)
    orbits = []
    for cls in su2:
        if cls not in remaining:
            continue
        other = partner(cls)
        if other == cls or other not in remaining:
            raise ArithmeticError(f"sign action is not free at {cls}")
        remaining.remove(cls)
        remaining.discard(other)
        orbits.append(cls)
    return orbits
