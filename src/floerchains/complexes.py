"""Assembly of the chain data: graded generator multisets and rank vectors.

Multiplicity rules are fixed by the orbit structure of the generators: the
trivial class contributes the single special generator, graded by the knot
signature mod 4; every nontrivial reducible class contributes a circle
that perturbs into two generators at consecutive gradings mu, mu + 1; and
every irreducible class contributes two circles, hence four generators,
two at mu and two at mu + 1.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .arith import mod_inverse
from .covers import SeifertData, _as_int
from .errors import InconsistentLkError
from .lens import index_plus_one, indices_plus_one
from .seifert import (
    _irreducible_count,
    _reduced_cover,
    casson,
    enumerate_projective,
    reducible_characters,
)
from .signatures import two_bridge_signature, torus_signature

ABSOLUTE = "absolute"
CYCLIC = "cyclic"

SPECIAL = "special"
REDUCIBLE = "reducible"
IRREDUCIBLE = "irreducible"


class ChainRanks(namedtuple("ChainRanks", "r anchoring conjectural")):
    """Rank 4-vector in grading order 0, 1, 2, 3 with its anchoring mode."""

    __slots__ = ()

    def __new__(
        cls, r: Tuple[int, int, int, int], anchoring: str = ABSOLUTE, conjectural: bool = False
    ):
        r = tuple(map(_as_int, r))
        if len(r) != 4 or any(x < 0 for x in r):
            raise ValueError(f"ranks must be four non-negative integers, got {r}")
        if anchoring not in (ABSOLUTE, CYCLIC):
            raise ValueError(f"unknown anchoring {anchoring!r}")
        return super().__new__(cls, r, anchoring, conjectural)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @property
    def total(self) -> int:
        return sum(self.r)


def _row(
    grading: Optional[int], multiplicity: int, origin: str, class_id: Optional[int] = None
) -> Dict:
    """A block of generators at one grading, as the record prints it.

    A grading of None means unknown; id names the class of the block, if any.
    """
    return {"grading": grading, "id": class_id, "multiplicity": multiplicity, "origin": origin}


class GradedGenerators(NamedTuple):
    """Multiset of generator blocks, possibly with unknown gradings."""

    entries: Tuple[Dict, ...]
    warnings: Tuple[str, ...] = ()

    def ranks(self) -> Optional[ChainRanks]:
        """Rank vector when every grading is known, else None."""
        vec = [0, 0, 0, 0]
        for e in self.entries:
            grading = e["grading"]
            if grading is None:
                return None
            vec[grading % 4] += e["multiplicity"]
        return ChainRanks(tuple(vec), ABSOLUTE)


def euler_characteristic(c: ChainRanks) -> int:
    """Alternating sum of the ranks; defined only up to sign for cyclic anchoring."""
    r = c.r
    return r[0] - r[1] + r[2] - r[3]


def two_bridge_generators(p: int, q: int) -> GradedGenerators:
    """Generator blocks of the two-bridge chain complex for the pair (p, q).

    The special generator sits at the signature mod 4.  Each ell labels a
    circle on the lens-space cover; its Morse-Bott index comes from the
    mod-8 lattice-count datum of L(p, q') with q' the inverse of q, the
    parameterization pinned by the figure-eight vector (ell 1 -> 2,
    ell 2 -> 4).
    """
    sign = two_bridge_signature(p, q)
    entries = [_row(sign % 4, 1, SPECIAL)]
    # the indices of L(p, q') read only the inverse of q', which is q itself
    for ell, index in enumerate(indices_plus_one(p, q), 1):
        mu = (index // 2 + sign) % 4
        entries.append(_row(mu, 1, REDUCIBLE, ell))
        entries.append(_row((mu + 1) % 4, 1, REDUCIBLE, ell))
    return GradedGenerators(tuple(entries))


def special_montesinos_complex(p: int, q: int, r: int) -> ChainRanks:
    """Chain ranks (1 + b, b, b, b) for a Montesinos knot over a Brieskorn sphere.

    b is minus twice the Casson invariant; the special generator sits in
    degree zero because these knots have signature divisible by 8.
    """
    b = -2 * casson(p, q, r)
    return ChainRanks((1 + b, b, b, b), ABSOLUTE)


def montesinos_knot_complex(
    s: SeifertData,
    sign_k: int,
    irreducible_block: Optional[Sequence[int]] = None,
) -> GradedGenerators:
    """Generator blocks for a Montesinos knot with three exceptional fibers.

    ``_reduced_cover`` folds the trivial fibers, checks that three
    exceptional ones remain and gives |H1|.  ``reducible_characters`` then
    checks that |H1| is finite and odd and that the cobordism is flat,
    a_1 * a_2 * a_3 = lcm(a_1, a_2, a_3) * |H1|, and returns the
    (|H1| - 1) / 2 classes in lexicographic order of their rotation
    numbers; reducible class k (the block id) is the k-th in that order.
    Reducible classes are graded through the per-fiber lens indices
    whenever every fiber they touch has odd multiplicity, and are left
    unknown otherwise.  Irreducible classes are graded by the given block
    4-vector if one is supplied, by the pairing argument when the cover is
    a homology sphere (no reducible class), and are otherwise left unknown.
    """
    sign_k = _as_int(sign_k)
    if sign_k % 2:
        raise ValueError(f"knot signatures are even, got {sign_k}")
    reduced, order = _reduced_cover(s)
    classes = reducible_characters(reduced, order)

    warnings: List[str] = []
    entries = [_row(sign_k % 4, 1, SPECIAL)]
    # the lens space L(a, -b) of each odd fiber, with the inverse of -b mod a
    lenses = [
        (a, -b % a, mod_inverse(-b, a)) if a % 2 else None for a, b in reduced.pairs
    ]

    for idx, ells in enumerate(classes, start=1):
        active = [(lens, ell) for lens, ell in zip(lenses, ells) if ell != 0]
        if any(lens is None for lens, _ in active):
            warnings.append(
                f"unknown gradings: reducible class {idx} restricts nontrivially "
                "to an even-multiplicity fiber"
            )
            entries.append(_row(None, 2, REDUCIBLE, idx))
            continue
        mu = sign_k - 1
        for lens, ell in active:
            mu += index_plus_one(*lens, ell) // 2 + 1
        mu %= 4
        entries.append(_row(mu, 1, REDUCIBLE, idx))
        entries.append(_row((mu + 1) % 4, 1, REDUCIBLE, idx))

    k = _irreducible_count(reduced.pairs)
    block = ()
    if irreducible_block is not None:
        block = tuple(_as_int(x) for x in irreducible_block)
        if len(block) != 4 or any(x < 0 for x in block):
            raise ValueError(f"irreducible block must be four counts, got {block}")
        if sum(block) != 4 * k:
            raise ValueError(
                f"irreducible block sums to {sum(block)}, expected {4 * k}"
            )
        if any(x % 2 for x in block) or block[0] - block[1] + block[2] - block[3]:
            # each class places two generators at mu and two at mu + 1,
            # so entries are even and the alternating sum vanishes
            raise ValueError(f"block {block} is not a sum of consecutive-grading pairs")
    elif not classes:
        # homology sphere: the degree-4 pairing spreads the classes
        # uniformly, one generator per class in every grading
        block = (k, k, k, k)
    elif k:
        warnings.append(
            f"unknown gradings: {k} irreducible class(es) contribute "
            f"{4 * k} generators at unresolved gradings"
        )
        for idx in range(1, k + 1):
            entries.append(_row(None, 4, IRREDUCIBLE, idx))
    for g, count in enumerate(block):
        if count:
            entries.append(_row(g, count, IRREDUCIBLE))

    return GradedGenerators(tuple(entries), tuple(warnings))


def torus_even_seifert_data(p: int, q: int) -> SeifertData:
    """Seifert pairs of the double cover of the torus knot with even q = 2r.

    The cover fibers over the sphere with multiplicities (1, p, p, r) and
    pairs solving b1*p*r + 2*b2*r + b3*p = 1.
    """
    if q % 2 or p % 2 == 0 or math.gcd(p, q) != 1:
        raise ValueError(f"need odd p and even q coprime, got ({p}, {q})")
    r = q // 2
    if r < 2:
        raise ValueError("q = 2 covers are lens spaces; use the two-bridge route")
    b2 = mod_inverse((2 * r) % p, p)
    rem = 1 - 2 * b2 * r
    if rem % p:
        raise ArithmeticError(f"1 - 2*{b2}*{r} is not divisible by p = {p}")
    s = rem // p
    b3 = s % r
    b1 = (s - b3) // r
    return SeifertData(((1, b1), (p, b2), (p, b2), (r, b3)))


def torus_complex(p: int, q: int) -> ChainRanks:
    """Chain ranks (1 + a, a, a, a) of the torus knot on odd coprime p, q >= 3.

    a is minus a quarter of the signature.  The total rank 1 + 4a is
    certified, and the special generator sits in degree zero since the
    signature is divisible by 8.  The even split is conjectural and flagged so.
    """
    if p % 2 == 0 or q % 2 == 0 or p < 3 or q < 3:
        raise ValueError(f"both parameters must be odd and >= 3, got ({p}, {q})")
    sign = torus_signature(p, q)
    if sign % 8:
        raise ArithmeticError(f"torus signature {sign} is not divisible by 8")
    a = -sign // 4
    return ChainRanks((1 + a, a, a, a), ABSOLUTE, conjectural=True)


class LinkComplex(NamedTuple):
    """Rank data of a two-component Montesinos link complex.

    so3_classes is the number of SO(3) classes with nontrivial w2; each
    contributes four generators and lifts to two SU(2) classes.  When the
    split (n1, n3), n1 >= n3, is determined, by the linking number or by
    being the only admissible one (one class, say), candidates holds the
    single vector (2n3, 2n1, 2n3, 2n1), the least rotation of
    (2n1, 2n3, 2n1, 2n3); otherwise split is None and candidates holds one
    such vector per admissible split.
    """

    so3_classes: int
    candidates: Tuple[ChainRanks, ...]
    split: Optional[Tuple[int, int]]
    warnings: Tuple[str, ...] = ()
    notes: Tuple[str, ...] = ()

    @property
    def ranks(self) -> Optional[ChainRanks]:
        return None if self.split is None else self.candidates[0]

    @property
    def su2_classes(self) -> int:
        # enumerate_projective raises unless every orbit has two members
        return 2 * self.so3_classes

    @property
    def total(self) -> int:
        return 4 * self.so3_classes


def montesinos_link_complex(s: SeifertData, lk: Optional[int] = None) -> LinkComplex:
    """Chain ranks of a two-component Montesinos link over a homology S^1 x S^2.

    The generator count is four per projective SO(3) class; the rank
    template is (2n1, 2n3, 2n1, 2n3) with n1 + n3 the class count.  The
    split is fixed by the Euler-characteristic constraint
    4*(n1 - n3) = +-lk, or without lk when only one split is admissible;
    the sign ambiguity only rotates the vector, which is anchored up to
    cyclic permutation anyway.
    """
    n = len(enumerate_projective(s))
    notes = (
        "split fixed by the Euler-characteristic identity 4*(n1 - n3) = +-lk; "
        "the alternative identity n3 - n1 = +-lk conflicts with the worked "
        "rank vectors and is not used",
    )

    n1s = range((n + 1) // 2, n + 1)  # the admissible n1 >= n3
    if lk is not None:
        lk = _as_int(lk)
        quarter, rem = divmod(abs(lk), 4)  # quarter = n1 - n3
        if rem or quarter > n or (n + quarter) % 2:
            raise InconsistentLkError(
                f"|lk| = {abs(lk)} admits no split with n1 + n3 = {n}"
            )
        n1s = ((n + quarter) // 2,)
    if len(n1s) == 1:
        n1 = n1s[0]
        split = (n1, n - n1)
        warnings = ("split (n1, n3) is determined only up to interchange",) if 2 * n1 != n else ()
    else:
        split = None
        warnings = ("ambiguous split: no linking number supplied",)
    candidates = tuple(
        ChainRanks((2 * (n - n1), 2 * n1, 2 * (n - n1), 2 * n1), CYCLIC) for n1 in n1s
    )
    return LinkComplex(n, candidates, split, warnings, notes)
