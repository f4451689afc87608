import math
import random

import pytest

from floerchains.errors import NotCoprimeError
from floerchains.seifert import casson
from floerchains.signatures import torus_signature, two_bridge_signature

from oracles import (
    even_continued_fraction,
    goeritz_signature,
    signature,
    torus_lattice_signature,
    torus_recursion_signature,
)


def brick_seifert_matrix(p, q):
    """Seifert matrix of the torus knot from the brick grid of its braid closure."""
    idx = {(i, j): i * (q - 1) + j for i in range(p - 1) for j in range(q - 1)}
    n = len(idx)
    v = [[0] * n for _ in range(n)]
    for (i, j), a in idx.items():
        v[a][a] = -1
        if (i, j + 1) in idx:
            v[a][idx[(i, j + 1)]] = 1
        if (i + 1, j) in idx:
            v[a][idx[(i + 1, j)]] = 1
        if (i + 1, j + 1) in idx:
            v[a][idx[(i + 1, j + 1)]] = -1
    return v


def partial_quotient_sum(p, q):
    """Sum of the partial quotients of the regular continued fraction of p/q."""
    total = 0
    while q:
        total += p // q
        p, q = q, p % q
    return total


def seifert_oracle_signature(p, q):
    v = brick_seifert_matrix(p, q)
    n = len(v)
    return signature([[v[i][j] + v[j][i] for j in range(n)] for i in range(n)])


class TestTwoBridgeSignature:
    def test_figure_eight(self):
        assert two_bridge_signature(5, 3) == 0

    def test_trefoil_and_cinquefoil(self):
        assert two_bridge_signature(3, 1) == -2
        assert abs(two_bridge_signature(5, 1)) == 4

    def test_seifert_matrix_oracle_trefoil(self):
        v = [[-1, 1], [0, -1]]
        sym = [[v[i][j] + v[j][i] for j in range(2)] for i in range(2)]
        assert signature(sym) == two_bridge_signature(3, 1) == -2

    def test_matches_goeritz_form_small_p(self):
        for p in range(3, 100, 2):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    assert two_bridge_signature(p, q) == goeritz_signature(p, q), (p, q)

    def test_matches_goeritz_form_large_p(self):
        # short continued fractions keep the dense elimination cheap
        rng = random.Random(3)
        checked = 0
        while checked < 40:
            p = rng.randrange(101, 1202, 2)
            q = rng.randrange(1, p)
            if math.gcd(p, q) != 1 or partial_quotient_sum(p, q) > 48:
                continue
            assert two_bridge_signature(p, q) == goeritz_signature(p, q), (p, q)
            checked += 1

    def test_input_errors(self):
        with pytest.raises(ValueError):
            two_bridge_signature(4, 1)
        with pytest.raises(ValueError):
            two_bridge_signature(-3, 1)
        with pytest.raises(NotCoprimeError):
            two_bridge_signature(9, 3)
        with pytest.raises(NotCoprimeError):
            two_bridge_signature(7, 14)

    def test_q_inverse_invariance(self):
        for p in range(3, 100, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                qi = pow(q, -1, p)
                assert two_bridge_signature(p, q) == two_bridge_signature(p, qi)

    def test_even_and_bounded(self):
        for p in range(3, 60, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                s = two_bridge_signature(p, q)
                assert s % 2 == 0
                assert abs(s) <= p - 1

    def test_mirror_antisymmetry(self):
        for p in range(3, 60, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                assert two_bridge_signature(p, p - q) == -two_bridge_signature(p, q)

    @pytest.mark.parametrize(
        "p,q,magnitude",
        [
            (3, 1, 2),
            (5, 3, 0),
            (5, 1, 4),
            (7, 3, 2),
            (9, 7, 0),
            (11, 3, 2),
            (13, 5, 0),
            (7, 1, 6),
            (11, 5, 2),
            (15, 4, 2),
            (13, 11, 0),
            (15, 7, 2),
        ],
    )
    def test_classical_table_values(self, p, q, magnitude):
        # two-bridge knots 3_1 .. 9_2 with their published |signature|
        assert abs(two_bridge_signature(p, q)) == magnitude

    def test_goeritz_form_determinant_is_knot_determinant(self):
        for p in range(3, 80, 2):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                entries = even_continued_fraction(p, q)
                prev2, prev1 = 1, entries[0]
                for c in entries[1:]:
                    prev2, prev1 = prev1, c * prev1 - prev2
                assert abs(prev1) == p

    def test_residue_is_determinant_minus_one(self):
        # sigma = det - 1 (mod 4) for every knot, and the two-bridge knot
        # of (p, q) has determinant p
        for p in range(1, 200, 2):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    assert (two_bridge_signature(p, q) - p + 1) % 4 == 0, (p, q)

    def test_unknot(self):
        assert two_bridge_signature(1, 1) == 0


class TestTorusSignature:
    @pytest.mark.parametrize("p,q,want", [(2, 3, -2), (3, 4, -6), (3, 5, -8)])
    def test_examples(self, p, q, want):
        assert torus_signature(p, q) == want

    def test_symmetry(self):
        for p in range(2, 8):
            for q in range(2, 10):
                if math.gcd(p, q) == 1:
                    assert torus_signature(p, q) == torus_signature(q, p)

    def test_odd_coprime_divisible_by_eight(self):
        for p in range(3, 26, 2):
            for q in range(p + 2, 26, 2):
                if math.gcd(p, q) == 1:
                    assert torus_signature(p, q) % 8 == 0

    def test_agrees_with_seifert_matrix_oracle(self):
        pairs = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (2, 9), (3, 7), (3, 8), (4, 5), (4, 7), (5, 6), (5, 7)]
        # consecutive and near strand counts, where the recursion oracle
        # folds runs of its second rule
        pairs += [(5, 8), (6, 7), (7, 8)]
        for p, q in pairs:
            assert torus_signature(p, q) == seifert_oracle_signature(p, q)

    def test_matches_lattice_count(self):
        for p in range(2, 60):
            for q in range(p + 1, 60):
                if math.gcd(p, q) == 1:
                    assert torus_signature(p, q) == torus_lattice_signature(p, q), (p, q)

    def test_matches_lattice_count_larger(self):
        rng = random.Random(4)
        checked = 0
        while checked < 40:
            p, q = rng.randrange(2, 300), rng.randrange(2, 300)
            if math.gcd(p, q) == 1:
                assert torus_signature(p, q) == torus_lattice_signature(p, q), (p, q)
                checked += 1

    @pytest.mark.parametrize("p,q,want", [(601, 603, -181200), (3, 100001, -133336)])
    def test_large_pins(self, p, q, want):
        # the recursion oracle runs its second rule 300 times on (601, 603)
        # and its first 16666 times on (3, 100001)
        assert torus_signature(p, q) == torus_signature(q, p) == want
        assert torus_lattice_signature(p, q) == torus_recursion_signature(p, q) == want

    def test_matches_recursion_small(self):
        for p in range(2, 160):
            for q in range(2, 160):
                if math.gcd(p, q) == 1:
                    assert torus_signature(p, q) == torus_recursion_signature(p, q), (p, q)

    def test_matches_recursion_large(self):
        rng = random.Random(9)
        checked = 0
        while checked < 2000:
            p, q = rng.randrange(2, 10**9), rng.randrange(2, 10**9)
            if math.gcd(p, q) == 1:
                want = torus_recursion_signature(p, q)
                assert torus_signature(p, q) == torus_signature(q, p) == want, (p, q)
                assert torus_recursion_signature(q, p) == want, (p, q)
                checked += 1

    def test_residue_is_determinant_minus_one(self):
        # sigma = det - 1 (mod 4) for every knot; det T(p, q) = |Delta(-1)|
        # is 1 when both strand counts are odd and the odd one otherwise
        for p in range(2, 120):
            for q in range(p + 1, 120):
                if math.gcd(p, q) == 1:
                    det = 1 if p * q % 2 else p if p % 2 else q
                    assert (torus_signature(p, q) - det + 1) % 4 == 0, (p, q)

    def test_eight_times_brieskorn_casson(self):
        # the double branched cover of T(p, q) is the Brieskorn sphere
        # Sigma(2, p, q), and sigma = 8 * lambda there
        for p in range(3, 60, 2):
            for q in range(p + 2, 60, 2):
                if math.gcd(p, q) == 1:
                    assert torus_signature(p, q) == 8 * casson(2, p, q), (p, q)

    def test_two_strands(self):
        for q in (3, 5, 99, 100001):
            assert torus_signature(2, q) == torus_signature(q, 2) == 1 - q

    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprimeError):
            torus_signature(4, 6)

    def test_rejects_short_strands(self):
        for p, q in [(1, 5), (5, 1), (0, 1), (-3, 2)]:
            with pytest.raises(ValueError):
                torus_signature(p, q)

