import math
import random

from floerchains.arith import mod_inverse
from floerchains.complexes import two_bridge_generators
from floerchains.lens import LatticeCounts, index_plus_one, indices_plus_one, lattice_counts
from floerchains.signatures import two_bridge_signature

from oracles import bit_fenwick_indices, naive_counts, walk_counts, word_fenwick_indices


def classes(p, q):
    """Arguments (p, q, r, ell) of every nontrivial class of L(p, q)."""
    r = mod_inverse(q, p)
    return [(p, q, r, ell) for ell in range(1, (p - 1) // 2 + 1)]


class TestLensReps:
    def test_counts(self):
        # one circle per class: the two-bridge generators list each ell twice
        def ells(p, q):
            gens = two_bridge_generators(p, q)
            return [e["id"] for e in gens.entries if e["origin"] == "reducible"][::2]

        assert ells(5, 3) == [1, 2]
        assert ells(3, 2) == [1]
        assert ells(7, 1) == [1, 2, 3]


class TestLatticeCounts:
    def test_examples(self):
        assert lattice_counts(5, 2, 3, 1) == LatticeCounts(2, 1, 0)
        assert lattice_counts(5, 2, 3, 2) == LatticeCounts(4, 5, 2)
        assert lattice_counts(3, 2, 2, 1) == LatticeCounts(1, 1, 0)

    def test_matches_naive_double_loop(self):
        for p in range(3, 62, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                for args in classes(p, q):
                    ell = args[3]
                    counts = lattice_counts(*args)
                    assert counts == walk_counts(p, q, ell) == naive_counts(p, q, ell)

    def test_matches_walk_for_large_p(self):
        # the double loop is cubic in p here; the walk is pinned to it above
        rng = random.Random(2)
        for _ in range(6):
            p = rng.randrange(201, 1202, 2)
            q = rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])
            for args in classes(p, q):
                assert lattice_counts(*args) == walk_counts(p, q, args[3]), args

    def test_interior_count_odd_and_positive(self):
        for p in range(3, 40, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                for args in classes(p, q):
                    counts = lattice_counts(*args)
                    assert counts.n1 >= 1
                    assert counts.n1 % 2 == 1
                    assert counts.n2 % 2 == 0


class TestIndexPlusOne:
    def test_pinned_values(self):
        assert index_plus_one(5, 2, 3, 1) == 2
        assert index_plus_one(5, 2, 3, 2) == 4
        assert index_plus_one(3, 2, 2, 1) == 2

    def test_even_up_to_199(self):
        for p in range(3, 200, 2):
            qs = (
                [q for q in range(1, p) if math.gcd(p, q) == 1]
                if p <= 43
                else [q for q in (1, 2, 3, p - 1, p - 2, p // 2, p // 3, 5) if 0 < q < p and math.gcd(p, q) == 1]
            )
            for q in qs:
                for args in classes(p, q):
                    assert index_plus_one(*args) % 2 == 0

    def test_multiset_invariant_under_q_inverse(self):
        for p in range(3, 50, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                qi = mod_inverse(q, p)
                left = sorted(index_plus_one(*args) for args in classes(p, q))
                right = sorted(index_plus_one(*args) for args in classes(p, qi))
                assert left == right


class TestIndicesPlusOne:
    @staticmethod
    def per_class(p, q):
        return [index_plus_one(*args) for args in classes(p, q)]

    def test_pinned_values(self):
        assert indices_plus_one(5, 3) == [2, 4]
        assert indices_plus_one(3, 2) == [2]
        assert indices_plus_one(1, 1) == []

    def test_matches_per_class_route_up_to_99(self):
        for p in range(3, 100, 2):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    assert indices_plus_one(p, mod_inverse(q, p)) == self.per_class(p, q), (p, q)

    def test_reads_r_mod_p(self):
        assert indices_plus_one(11, 3 + 11) == indices_plus_one(11, 3 - 22) == self.per_class(11, 4)

    def test_large_p_spot_check(self):
        rng = random.Random(12)
        p = 100001
        for q in (37, 2, p - 1, rng.randrange(2, p)):
            r = mod_inverse(q, p)
            batch = indices_plus_one(p, r)
            assert len(batch) == (p - 1) // 2
            for ell in rng.sample(range(1, (p - 1) // 2 + 1), 50):
                assert batch[ell - 1] == index_plus_one(p, q, r, ell), (q, ell)


class TestTwoPopcountIndex:
    """The two-popcount batch against the two Fenwick-tree kernels it
    replaced and against the per-class route.  Words hold 2**s bits with
    s = p.bit_length() // 2, so several words are in play from p = 5 on,
    and the width doubles where p gains a bit, as from 511 to 513."""

    both = (bit_fenwick_indices, word_fenwick_indices)

    @staticmethod
    def check(p, q, ells, oracles=(bit_fenwick_indices,)):
        """Every class against each oracle, the classes `ells` against the per-class route."""
        r = mod_inverse(q, p)
        batch = indices_plus_one(p, r)
        for oracle in oracles:
            assert batch == oracle(p, r), (oracle.__name__, p, q)
        for ell in ells:
            assert batch[ell - 1] == index_plus_one(p, q, r, ell), (p, q, ell)

    def test_every_pair_up_to_301(self):
        # every class against the oracle; the per-class route, which
        # TestIndicesPlusOne runs on every class up to p = 99, takes a sample
        rng = random.Random(301)
        for p in range(3, 302, 2):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    self.check(p, q, rng.sample(range(1, p // 2 + 1), min(4, p // 2)))

    def test_every_q_at_word_boundaries(self):
        # the width steps from 2**4 to 2**5 bits between 511 and 513, and
        # (p - 1)/2 is one below, at and one above 2**8 and 2**9 folded
        # values; the per-class route, about 10 us a class, takes a sample
        rng = random.Random(19)
        for p in (511, 513, 515, 1023, 1025, 1027):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    self.check(p, q, rng.sample(range(1, p // 2 + 1), 16))

    def test_seeded_q_across_a_width_step(self):
        # the width steps from 2**5 to 2**6 bits between 2047 and 2049, and
        # the word count from 32 to 33 between 4095 and 4097; 40 q each
        # keeps the test near half a second
        rng = random.Random(23)
        for p in (2047, 2049, 4095, 4097):
            qs = [q for q in range(1, p) if math.gcd(p, q) == 1]
            for q in rng.sample(qs, 40):
                self.check(p, q, rng.sample(range(1, p // 2 + 1), 2), self.both)

    def test_seeded_pairs_up_to_200001(self):
        rng = random.Random(19)
        pairs = [(200001, 7), (200001, 200000)]
        while len(pairs) < 8:
            p = 2 * rng.randint(514, 100000) + 1
            q = rng.randrange(1, p)
            if math.gcd(p, q) == 1:
                pairs.append((p, q))
        for p, q in pairs:
            self.check(p, q, rng.sample(range(1, p // 2 + 1), 40), self.both)


class TestMorseBottIndex:
    @staticmethod
    def unshifted_index(p, q_param, ell):
        """Lower grading of the ell circle of L(p, q_param), less the signature."""
        q = mod_inverse(q_param, p)
        mu = next(
            e["grading"]
            for e in two_bridge_generators(p, q).entries
            if e["origin"] == "reducible" and e["id"] == ell
        )
        return (mu - two_bridge_signature(p, q)) % 4

    def test_pinned_values(self):
        assert self.unshifted_index(5, 2, 1) == 1
        assert self.unshifted_index(5, 2, 2) == 2
        assert self.unshifted_index(3, 2, 1) == 1
