import math
import random

import pytest

from floerchains.arith import mod_inverse
from floerchains.complexes import two_bridge_generators
from floerchains.lens import (
    LatticeCounts,
    LensRep,
    index_plus_one,
    lattice_counts,
    lens_reps,
)
from floerchains.signatures import two_bridge_signature


def naive_counts(rep):
    """Reference double loop over the full rectangle."""
    p, q, ell = rep.p, rep.q, rep.ell
    r = mod_inverse(q, p)
    k1 = ell
    k2 = (-r * ell) % p
    n1 = n2 = 0
    for i in range(-k1, k1 + 1):
        for j in range(-k2, k2 + 1):
            if (i + q * j) % p != 0:
                continue
            if abs(i) < k1 and abs(j) < k2:
                n1 += 1
            elif (abs(i) == k1 and abs(j) < k2) or (abs(i) < k1 and abs(j) == k2):
                n2 += 1
    return LatticeCounts(k1, k2, n1, n2)


def walk_counts(rep):
    """Reference walk over the j-range of the rectangle, O(p) per ell.

    Since k1 <= (p-1)/2, each j admits at most one i with |i| <= k1 in its
    congruence class, namely the symmetric representative of -q*j mod p.
    """
    p, q, ell = rep.p, rep.q, rep.ell
    r = mod_inverse(q, p)
    k1 = ell
    k2 = (-r * ell) % p
    half = (p - 1) // 2
    n1 = n2 = 0
    for j in range(-k2, k2 + 1):
        i = (-q * j) % p
        if i > half:
            i -= p
        ai, aj = abs(i), abs(j)
        if ai < k1 and aj < k2:
            n1 += 1
        elif (ai == k1 and aj < k2) or (ai < k1 and aj == k2):
            n2 += 1
    return LatticeCounts(k1=k1, k2=k2, n1=n1, n2=n2)


class TestLensReps:
    def test_counts(self):
        assert [r.ell for r in lens_reps(5, 3)] == [1, 2]
        assert [r.ell for r in lens_reps(3, 2)] == [1]
        assert [r.ell for r in lens_reps(7, 1)] == [1, 2, 3]

    def test_q_normalization(self):
        assert LensRep(5, -2, 1).q == 3
        with pytest.raises(ValueError):
            LensRep(4, 1, 1)
        with pytest.raises(ValueError):
            LensRep(5, 3, 3)


class TestLatticeCounts:
    def test_examples(self):
        assert lattice_counts(LensRep(5, 2, 1)) == LatticeCounts(1, 2, 1, 0)
        assert lattice_counts(LensRep(5, 2, 2)) == LatticeCounts(2, 4, 5, 2)
        assert lattice_counts(LensRep(3, 2, 1)) == LatticeCounts(1, 1, 1, 0)

    def test_matches_naive_double_loop(self):
        for p in range(3, 62, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                for ell in range(1, (p - 1) // 2 + 1):
                    rep = LensRep(p, q, ell)
                    counts = lattice_counts(rep)
                    assert counts == walk_counts(rep) == naive_counts(rep)

    def test_matches_walk_for_large_p(self):
        # the double loop is cubic in p here; the walk is pinned to it above
        rng = random.Random(2)
        for _ in range(6):
            p = rng.randrange(201, 1202, 2)
            q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
            for rep in lens_reps(p, q):
                assert lattice_counts(rep) == walk_counts(rep), (p, q, rep.ell)

    def test_interior_count_odd_and_positive(self):
        for p in range(3, 40, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                for rep in lens_reps(p, q):
                    counts = lattice_counts(rep)
                    assert counts.n1 >= 1
                    assert counts.n1 % 2 == 1
                    assert counts.n2 % 2 == 0


class TestIndexPlusOne:
    def test_pinned_values(self):
        assert index_plus_one(LensRep(5, 2, 1)) == 2
        assert index_plus_one(LensRep(5, 2, 2)) == 4
        assert index_plus_one(LensRep(3, 2, 1)) == 2

    def test_even_up_to_199(self):
        for p in range(3, 200, 2):
            qs = (
                [q for q in range(1, p) if math.gcd(p, q) == 1]
                if p <= 43
                else [q for q in (1, 2, 3, p - 1, p - 2, p // 2, p // 3, 5) if 0 < q < p and math.gcd(p, q) == 1]
            )
            for q in qs:
                for rep in lens_reps(p, q):
                    assert index_plus_one(rep) % 2 == 0

    def test_multiset_invariant_under_q_inverse(self):
        for p in range(3, 50, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                qi = mod_inverse(q, p)
                left = sorted(index_plus_one(r) for r in lens_reps(p, q))
                right = sorted(index_plus_one(r) for r in lens_reps(p, qi))
                assert left == right


class TestMorseBottIndex:
    @staticmethod
    def unshifted_index(p, q_param, ell):
        """Lower grading of the ell circle of L(p, q_param), less the signature."""
        q = mod_inverse(q_param, p)
        mu = next(
            e.grading
            for e in two_bridge_generators(p, q).entries
            if e.origin == "reducible" and e.class_id == ell
        )
        return (mu - two_bridge_signature(p, q)) % 4

    def test_pinned_values(self):
        assert self.unshifted_index(5, 2, 1) == 1
        assert self.unshifted_index(5, 2, 2) == 2
        assert self.unshifted_index(3, 2, 1) == 1
