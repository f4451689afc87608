import itertools
import random
from fractions import Fraction

import pytest

from floerchains import cli
from floerchains.covers import (
    SeifertData,
    branched_cover_h1,
    casson_from_alexander,
    seifert_h1_order,
)
from floerchains.errors import NotNormalizedError

from oracles import second_derivative_at_one


class TestBranchedCoverH1:
    def test_unknot(self):
        assert branched_cover_h1({0: 1}) == 1

    def test_trefoil(self):
        assert branched_cover_h1({1: 1, 0: -1, -1: 1}) == 3
        # odd negative exponents flip sign at t = -1 as positive ones do
        assert branched_cover_h1({-3: 1, -2: -1, -1: 1, 0: -1, 1: 1, 2: -1, 3: 1}) == 7

    def test_zero_surgery_branch(self):
        # a two-component link polynomial vanishing at -1: infinite H1, b1 = 1
        assert branched_cover_h1({1: 1, 0: 2, -1: 1}) == 0
        # a split link's Alexander polynomial is 0
        assert branched_cover_h1({0: 0}) == 0

    def test_order_is_odd_for_knot_polynomials(self):
        rng = random.Random(1)
        for _ in range(60):
            coeffs = {}
            for e in range(1, rng.randint(2, 5)):
                c = rng.randint(-3, 3)
                coeffs[e] = c
                coeffs[-e] = c
            tail = 2 * sum(coeffs.get(e, 0) for e in range(1, 6))
            coeffs[0] = (1 if rng.random() < 0.5 else -1) - tail
            assert abs(sum(coeffs.values())) == 1
            assert branched_cover_h1(coeffs) % 2 == 1


class TestCassonFromAlexander:
    def test_examples(self):
        assert casson_from_alexander({1: 1, 0: -1, -1: 1}) == -1
        assert casson_from_alexander({0: 1}) == 0
        five = {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
        assert casson_from_alexander(five) == -3

    def test_zero_coefficients_count_as_absent(self):
        # t^2 and t^-3 with coefficient 0 have no partner exponent, and the
        # polynomial is still symmetric
        assert casson_from_alexander({2: 0, 1: 1, 0: -1, -1: 1, -3: 0}) == -1
        assert casson_from_alexander({0: 1, 4: 0}) == 0
        with pytest.raises(NotNormalizedError, match=r"delta\(1\) = 0, expected 1"):
            casson_from_alexander({0: 0})

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError, match=r"delta\(1\) = 2, expected 1"):
            casson_from_alexander({0: 2})
        with pytest.raises(NotNormalizedError, match=r"delta\(t\) != delta\(1/t\)"):
            casson_from_alexander({1: 1, 0: 1, -1: -1})

    def test_matches_half_second_derivative(self):
        # every symmetric delta with delta(1) = 1 and c_1, c_2, c_3 in [-3, 3]
        for tail in itertools.product(range(-3, 4), repeat=3):
            delta = {0: 1 - 2 * sum(tail)}
            for e, c in enumerate(tail, 1):
                delta[e] = delta[-e] = c
            second = second_derivative_at_one(delta)
            assert second % 2 == 0, delta
            assert casson_from_alexander(delta) == -second // 2, delta

    def test_matches_half_second_derivative_random(self):
        rng = random.Random(3)
        for _ in range(50):
            delta = {0: 1}
            for e in range(1, rng.randint(2, 12)):
                delta[e] = delta[-e] = rng.randint(-3, 3)
            delta[0] = 1 - 2 * sum(c for e, c in delta.items() if e > 0)
            assert casson_from_alexander(delta) == -second_derivative_at_one(delta) // 2


def homology_parities(lk):
    """The cup form and grading shift of ``homology --pairs "2,1;3,-1;6,-1" --lk lk``."""
    argv = ["homology", "--pairs", "2,1;3,-1;6,-1", "--lk", str(lk), "--json"]
    code, record = cli._evaluate(cli._parse(argv))
    assert code == 0
    return record["extras"]["cup_form"], record["extras"]["grading_shift"]


class TestCupFormAndDelta:
    @pytest.mark.parametrize("lk,want", [(1, 1), (0, 0), (4, 0)])
    def test_cup_examples(self, lk, want):
        assert homology_parities(lk)[0] == want

    @pytest.mark.parametrize("lk,want", [(1, 0), (4, 1), (0, 1)])
    def test_delta_examples(self, lk, want):
        assert homology_parities(lk)[1] == want

    def test_complementary_parities(self):
        for lk in range(-7, 8):
            cup, shift = homology_parities(lk)
            assert (cup, shift) == (lk % 2, 1 - lk % 2), lk
            assert cup + shift == 1, lk


class TestSeifertH1Order:
    def test_examples(self):
        assert seifert_h1_order(SeifertData(((2, -1), (3, 1), (3, 1)))) == 3
        assert seifert_h1_order(SeifertData(((2, 1), (3, -1), (6, -1)))) == 0
        assert seifert_h1_order(SeifertData(((2, 1), (3, 1), (5, -4)))) == 1

    def test_normalization_invariance(self):
        rng = random.Random(2)
        for _ in range(100):
            pairs = []
            for _ in range(rng.randint(1, 4)):
                a = rng.randint(1, 9)
                b = rng.choice([b for b in range(-9, 10) if b and __import__("math").gcd(a, b) == 1])
                pairs.append((a, b))
            data = SeifertData(tuple(pairs))
            i = rng.randrange(len(pairs))
            moved = list(pairs)
            moved[i] = (pairs[i][0], pairs[i][1] + pairs[i][0])
            moved.append((1, -1))
            assert seifert_h1_order(SeifertData(tuple(moved))) == seifert_h1_order(data)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"pair \(4, 2\) is not coprime"):
            SeifertData(((4, 2),))
        with pytest.raises(ValueError, match="at least one pair"):
            SeifertData(())
        with pytest.raises(ValueError, match="at least one pair"):
            SeifertData(pairs=[])
        with pytest.raises(ValueError, match="multiplicity must be >= 1, got 0"):
            SeifertData(((0, 1),))
        with pytest.raises(ValueError, match=r"pair \(4, 2\) is not coprime"):
            SeifertData(((2, 1),))._replace(pairs=[(4, 2)])
        # a non-integral number is refused, not truncated to ((2, 1), (3, 1), (7, -6))
        with pytest.raises(ValueError, match="expected an integer, got 2.5"):
            SeifertData(((2.5, 1), (3, 1.9), (Fraction(15, 2), -6.5)))
        with pytest.raises(ValueError, match="expected an integer, got 1.9"):
            SeifertData(((2, 1), (3, 1.9)))
        with pytest.raises(ValueError, match=r"expected an integer, got Fraction\(15, 2\)"):
            SeifertData(((Fraction(15, 2), -6),))
        with pytest.raises(ValueError, match="expected an integer, got -6.5"):
            SeifertData(((7, -6.5),))
        with pytest.raises(ValueError, match="expected an integer, got 2.5"):
            SeifertData(((2, 1),))._replace(pairs=[(2.5, 1)])
        assert SeifertData(((2.0, 1), (3, Fraction(4, 2)))).pairs == ((2, 1), (3, 2))

    def test_pairs_are_normalized_to_int_tuples(self):
        data = SeifertData([[2, -1], (3, True), ("3", 1)])
        assert data.pairs == ((2, -1), (3, 1), (3, 1))
        assert all(type(x) is int for pair in data.pairs for x in pair)
        assert type(data.pairs) is tuple and all(type(pair) is tuple for pair in data.pairs)
        assert data._replace(pairs=[[5, 2]]).pairs == ((5, 2),)

    def test_equality_and_hash(self):
        data = SeifertData(((2, -1), (3, 1), (3, 1)))
        same = SeifertData(pairs=[[2, -1], [3, 1], [3, 1]])
        assert data == same and hash(data) == hash(same)
        assert data != SeifertData(((2, 1), (3, 1), (3, 1)))
        assert len({data, same}) == 1
