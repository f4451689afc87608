import math
import random
from fractions import Fraction

import pytest

from floerchains.arith import floor_sum, mod_inverse
from floerchains.errors import NotCoprimeError

from oracles import (
    evaluate_minus_fraction,
    even_continued_fraction,
    signature,
    smith_normal_form,
)


class TestModInverse:
    @pytest.mark.parametrize("a,p,want", [(3, 5, 2), (1, 7, 1), (2, 3, 2)])
    def test_examples(self, a, p, want):
        assert mod_inverse(a, p) == want

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            mod_inverse(6, 9)

    def test_nonpositive_modulus(self):
        with pytest.raises(ValueError, match="modulus must be positive, got 0"):
            mod_inverse(3, 0)

    def test_exhaustive_small_range(self):
        for p in range(2, 300):
            for a in range(1, p):
                if math.gcd(a, p) == 1:
                    r = mod_inverse(a, p)
                    assert 0 < r < p and (a * r) % p == 1

    def test_sampled_up_to_ten_thousand(self):
        rng = random.Random(7)
        for p in range(2, 10001, 97):
            for a in [1, 2, p - 1] + [rng.randrange(1, p) for _ in range(5)]:
                if math.gcd(a, p) == 1:
                    assert (a * mod_inverse(a, p)) % p == 1


class TestFloorSum:
    @staticmethod
    def brute(n, m, a, b):
        return sum((a * t + b) // m for t in range(n))

    @pytest.mark.parametrize("n,m,a,b,want", [(0, 5, 3, 2, 0), (4, 10, 6, 3, 3), (6, 5, 4, 3, 13)])
    def test_examples(self, n, m, a, b, want):
        assert floor_sum(n, m, a, b) == want == self.brute(n, m, a, b)

    def test_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(3000):
            n = rng.randrange(0, 60)
            m = rng.randrange(1, 80)
            # a >= m, b >= m and negative values all occur
            a = rng.randrange(-3 * m, 3 * m)
            b = rng.randrange(-3 * m, 3 * m)
            assert floor_sum(n, m, a, b) == self.brute(n, m, a, b), (n, m, a, b)

    def test_large_arguments(self):
        rng = random.Random(6)
        for _ in range(20):
            m = rng.randrange(1, 10**6)
            n = rng.randrange(0, 2000)
            a, b = rng.randrange(-(10**9), 10**9), rng.randrange(-(10**9), 10**9)
            assert floor_sum(n, m, a, b) == self.brute(n, m, a, b)

    @pytest.mark.parametrize("n,m", [(-1, 5), (3, 0), (3, -2)])
    def test_rejects_bad_range(self, n, m):
        with pytest.raises(ValueError):
            floor_sum(n, m, 1, 0)


class TestEvenContinuedFraction:
    def test_examples(self):
        assert even_continued_fraction(3, 1) == [-2, -2]
        assert even_continued_fraction(5, 3) == [2, -2]
        assert even_continued_fraction(5, 2) == [2, -2]

    @pytest.mark.parametrize("p", range(3, 100, 2))
    def test_reevaluation_invariant(self, p):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            entries = even_continued_fraction(p, q)
            assert len(entries) % 2 == 0
            assert all(c != 0 and c % 2 == 0 for c in entries)
            value = evaluate_minus_fraction(entries)
            assert abs(value.numerator) == p
            q2 = value.denominator if value >= 0 else -value.denominator
            q2 %= p
            assert q2 == q % p or (q2 * q) % p == 1

    def test_rejects_even_p(self):
        with pytest.raises(ValueError):
            even_continued_fraction(4, 1)

    def test_rejects_non_coprime(self):
        with pytest.raises(NotCoprimeError):
            even_continued_fraction(9, 3)


def random_unimodular(rng, n):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        f = rng.randint(-2, 2)
        for k in range(n):
            m[i][k] += f * m[j][k]
    return m


class TestSignature:
    def test_examples(self):
        assert signature([[2, 1], [1, 2]]) == 2
        assert signature([[2, 1], [1, -2]]) == 0
        assert signature([[0]]) == 0

    def test_degenerate_and_hyperbolic(self):
        assert signature([[0, 1], [1, 0]]) == 0
        assert signature([[0, 0], [0, 0]]) == 0
        assert signature([[1, 0, 0], [0, 0, 2], [0, 2, 0]]) == 1

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            signature([[0, 1], [2, 0]])

    def test_congruence_invariance(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 6)
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(-4, 4)
            u = random_unimodular(rng, n)
            # b = u^T a u
            au = [[sum(a[i][k] * u[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            b = [[sum(u[k][i] * au[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
            assert signature(b) == signature(a)


class TestSmithNormalForm:
    def _det(self, m):
        n = len(m)
        a = [[Fraction(x) for x in row] for row in m]
        det = Fraction(1)
        for k in range(n):
            piv = next((i for i in range(k, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            if piv != k:
                a[k], a[piv] = a[piv], a[k]
                det = -det
            det *= a[k][k]
            for i in range(k + 1, n):
                f = a[i][k] / a[k][k]
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
        return det

    def test_random_matrices(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.randint(2, 5)
            n = rng.randint(2, 5)
            a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
            u, d, v = smith_normal_form(a)
            assert abs(self._det(u)) == 1
            assert abs(self._det(v)) == 1
            ua = [[sum(u[i][k] * a[k][j] for k in range(m)) for j in range(n)] for i in range(m)]
            uav = [[sum(ua[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(m)]
            assert uav == d
            diag = [d[i][i] for i in range(min(m, n))]
            for i in range(m):
                for j in range(n):
                    if i != j:
                        assert d[i][j] == 0
            for x, y in zip(diag, diag[1:]):
                if x:
                    assert y % x == 0
                else:
                    assert y == 0
