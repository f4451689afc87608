import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from floerchains import seifert
from floerchains.covers import SeifertData, seifert_h1_order
from floerchains.errors import (
    EvenOrderError,
    FlatCobordismError,
    InfiniteH1Error,
    NotCoprimeError,
    NotHomologyS1xS2Error,
    UnsupportedFiberCountError,
)
from floerchains.seifert import (
    _irreducible_count,
    _link_twist,
    _reduced_cover,
    brieskorn_seifert_data,
    casson,
    enumerate_projective,
    reducible_characters,
)

from oracles import (
    _mod2_solutions,
    _w2_shifts,
    brieskorn_casson,
    enumerate_irreducibles,
    enumerate_reducibles,
    fraction_reducible_characters,
    fraction_sweep,
    rotation_sweep,
)
from su2_oracle import seifert_su2_count


def random_coprime(rng, a):
    return rng.choice([b for b in range(-9, 10) if b and math.gcd(a, b) == 1])


def random_triple(rng, amax=7):
    pairs = []
    for _ in range(3):
        a = rng.randint(2, amax)
        pairs.append((a, random_coprime(rng, a)))
    return SeifertData(tuple(pairs))


def irreducible_count(s):
    """The shipping count of irreducible classes for any Seifert data."""
    return _irreducible_count(_reduced_cover(s)[0].pairs)


def twisted_classes(s, shifts=None):
    """SU(2) classes (m, ells) of the reduced triple twisted by the parity shifts,
    by default those of the oracle's canonical twist."""
    pairs = _reduced_cover(s)[0].pairs
    if shifts is None:
        shifts = _w2_shifts(pairs)
    return [(m, ells) for m in (0, 1) for ells in rotation_sweep(pairs, m, shifts)]


def single_twists(pairs):
    """Parity shifts of every single-fiber twist, with whether it is a coboundary."""
    for i in range(len(pairs)):
        shifts = tuple(int(j == i) for j in range(len(pairs)))
        yield shifts, bool(_mod2_solutions(pairs, shifts))


def relator_signs(shifts):
    return tuple(-1 if t else 1 for t in shifts)


def min_remaining_orbits(s, shifts=None):
    """Reference orbit pairing: repeatedly take the least unpaired class."""
    su2 = twisted_classes(s, shifts)
    pairs = _reduced_cover(s)[0].pairs
    (chi,) = [c for c in _mod2_solutions(pairs, (0, 0, 0)) if any(c)]

    def partner(cls):
        m, ells = cls
        flipped = tuple(pairs[i][0] - ell if chi[i] else ell for i, ell in enumerate(ells))
        return ((m + chi[3]) % 2, flipped)

    remaining = set(su2)
    orbits = []
    while remaining:
        cls = min(remaining)
        other = partner(cls)
        if other == cls or other not in remaining:
            raise ArithmeticError(f"sign action is not free at {cls}")
        remaining.remove(cls)
        remaining.discard(other)
        orbits.append(cls)
    return sorted(orbits)


def random_link_triple(rng, amax=24, product_max=6000):
    """Three fibers with e = 0 and a1*a2*a3 <= product_max whose cover is a
    two-component link cover."""
    while True:
        a1, a2 = rng.randint(2, amax), rng.randint(2, amax)
        b1, b2 = random_coprime(rng, a1), random_coprime(rng, a2)
        third = -(Fraction(b1, a1) + Fraction(b2, a2))
        if not 2 <= third.denominator <= product_max // (a1 * a2):
            continue
        data = SeifertData(((a1, b1), (a2, b2), (third.denominator, third.numerator)))
        if len([c for c in _mod2_solutions(data.pairs, (0, 0, 0)) if any(c)]) != 1:
            continue
        return data


class TestEnumerateIrreducibles:
    def test_brieskorn_2_3_7(self):
        reps = enumerate_irreducibles(SeifertData(((2, 1), (3, 1), (7, -6))))
        assert sorted(ells for _, ells in reps) == [(1, 1, 2), (1, 1, 4)]
        assert all(m == 1 for m, _ in reps)

    def test_brieskorn_2_3_5(self):
        data = SeifertData(((2, 1), (3, 1), (5, -4)))
        assert len(enumerate_irreducibles(data)) == irreducible_count(data) == 2

    def test_example_2m1_3_3(self):
        data = SeifertData(((2, -1), (3, 1), (3, 1)))
        assert len(enumerate_irreducibles(data)) == irreducible_count(data) == 1

    def test_fiber_count_contract(self):
        with pytest.raises(UnsupportedFiberCountError):
            _reduced_cover(SeifertData(((2, 1), (3, 1))))
        with pytest.raises(UnsupportedFiberCountError):
            _reduced_cover(SeifertData(((2, 1), (3, 1), (5, 1), (7, 1))))

    def test_absorbs_trivial_fibers(self):
        with_trivial = SeifertData(((1, -1), (2, 1), (3, 1), (3, 1)))
        plain = SeifertData(((2, -1), (3, 1), (3, 1)))
        assert _reduced_cover(with_trivial) == (plain, 3)
        assert irreducible_count(with_trivial) == irreducible_count(plain)


class TestCasson:
    def test_pinned_values(self):
        assert casson(2, 3, 7) == -1
        assert casson(2, 3, 5) == -1
        assert casson(1, 1, 1) == 0

    def test_trivial_multiplicity_gives_zero(self):
        assert casson(1, 2, 3) == 0
        assert casson(1, 1, 5) == 0
        assert casson(4, 1, 9) == 0

    def test_brieskorn_family(self):
        # closed form for the (2, 3, 6k +- 1) family
        for k in range(1, 9):
            assert casson(2, 3, 6 * k + 1) == -k
            assert casson(2, 3, 6 * k - 1) == -k

    def test_count_equals_minus_two_lambda(self):
        for p, q, r in [(2, 3, 5), (2, 3, 7), (2, 3, 11), (3, 4, 5), (2, 5, 7)]:
            count = len(enumerate_irreducibles(brieskorn_seifert_data(p, q, r)))
            assert count == -2 * casson(p, q, r)

    def test_matches_dedekind_sum_formula(self):
        checked = 0
        for p, q, r in itertools.combinations(range(2, 30), 3):
            if p * q * r > 4000 or math.gcd(p, q) * math.gcd(p, r) * math.gcd(q, r) != 1:
                continue
            assert casson(p, q, r) == brieskorn_casson(p, q, r), (p, q, r)
            checked += 1
        assert checked > 100
        # a trivial multiplicity takes the general path: its fiber sweeps an
        # empty range, and the Seifert data still describes a homology sphere
        trivial = 0
        for p, q, r in itertools.product(range(1, 30), repeat=3):
            if 1 not in (p, q, r) or math.gcd(p, q) * math.gcd(p, r) * math.gcd(q, r) != 1:
                continue
            assert casson(p, q, r) == brieskorn_casson(p, q, r) == 0, (p, q, r)
            assert seifert_h1_order(brieskorn_seifert_data(p, q, r)) == 1, (p, q, r)
            trivial += 1
        assert trivial == 1531

    def test_rejects_common_factor(self):
        # the Seifert data makes casson's checks before any inverse is
        # taken; a zero multiplicity fails positivity before coprimality
        for f in (casson, brieskorn_seifert_data):
            with pytest.raises(NotCoprimeError, match="^2 and 4 are not coprime$"):
                f(2, 4, 5)
            with pytest.raises(ValueError, match=r"^multiplicities must be positive, got \(0, 3, 5\)$"):
                f(0, 3, 5)

    def test_odd_count_raises(self, monkeypatch):
        monkeypatch.setattr(seifert, "_irreducible_count", lambda pairs: 3)
        with pytest.raises(ArithmeticError):
            casson(2, 3, 7)


class TestEnumerateReducibles:
    def test_examples(self):
        assert enumerate_reducibles(SeifertData(((2, -1), (3, 1), (3, 1)))) == 1
        assert enumerate_reducibles(SeifertData(((2, 1), (3, 1), (5, -4)))) == 0
        # lens space of order 5 presented as degenerate two-fiber data
        assert seifert_h1_order(SeifertData(((2, 1), (3, 1)))) == 5
        assert enumerate_reducibles(SeifertData(((2, 1), (3, 1)))) == 2

    def test_infinite_homology(self):
        with pytest.raises(InfiniteH1Error):
            enumerate_reducibles(SeifertData(((2, 1), (3, -1), (6, -1))))

    def test_even_order(self):
        with pytest.raises(EvenOrderError):
            enumerate_reducibles(SeifertData(((2, 1), (2, 1), (3, 1))))


class TestReducibleCharacters:
    def test_example_class(self):
        data = SeifertData(((2, -1), (3, 1), (3, 1)))
        classes = reducible_characters(*_reduced_cover(data))
        assert len(classes) == 1
        assert classes[0] == (0, 1, 1)

    def test_count_matches_enumerate(self):
        rng = random.Random(4)
        found = 0
        while found < 20:
            data = random_triple(rng)
            order = seifert_h1_order(data)
            prod = math.prod(a for a, _ in data.pairs)
            lcm = math.lcm(*(a for a, _ in data.pairs))
            if order == 0 or order % 2 == 0 or prod != lcm * order:
                continue
            found += 1
            classes = reducible_characters(data, order)
            assert len(classes) == enumerate_reducibles(data)
            oracle = fraction_reducible_characters(data)
            assert classes == oracle, data

    @pytest.mark.parametrize(
        "pairs,want",
        [
            (
                ((30021, 25018), (30027, -35032), (3, 1)),
                [(0, 10009, 1), (10007, 0, 1), (10007, 10009, 0), (10007, 10009, 1)],
            ),
            (
                ((300000021, 23333335), (300000111, -123333379), (3, 1)),
                [
                    (0, 100000037, 1),
                    (100000007, 0, 1),
                    (100000007, 100000037, 0),
                    (100000007, 100000037, 1),
                ],
            ),
        ],
    )
    def test_walks_the_smallest_fiber(self, pairs, want):
        # |H1| = 9: the walk over the fiber of multiplicity 3 takes 3 + 9
        # steps.  A walk over a larger fiber takes at least its multiplicity
        # in steps, about 3 * 10^8 on the second triple, and a double loop
        # over the two fibers listed first about 9 * 10^8 on the first
        data = SeifertData(pairs)
        assert seifert_h1_order(data) == 9
        start = time.perf_counter()
        classes = reducible_characters(*_reduced_cover(data))
        assert time.perf_counter() - start < 1.0
        assert classes == want

    def test_non_flat_rejected(self):
        # (3,1),(3,1),(3,1): |H1| = 27 but lcm * |H1| = 81 != 27
        with pytest.raises(FlatCobordismError):
            reducible_characters(*_reduced_cover(SeifertData(((3, 1),) * 3)))


class TestProjective:
    def test_pretzel_link(self):
        data = SeifertData(((2, 1), (3, -1), (6, -1)))
        su2 = twisted_classes(data, (0, 0, 1))
        so3 = enumerate_projective(data)
        assert len(su2) == 2
        assert len(so3) == 1
        assert sorted(c[1] for c in su2) == [(1, 1, 2), (1, 1, 4)]

    def test_montesinos_link_2_5_10(self):
        data = SeifertData(((2, 1), (5, -2), (10, -1)))
        so3 = enumerate_projective(data)
        assert len(so3) == 3
        assert len(twisted_classes(data, (0, 0, 1))) == 6

    def test_requires_zero_euler_number(self):
        with pytest.raises(NotHomologyS1xS2Error):
            enumerate_projective(SeifertData(((2, 1), (3, 1), (7, -6))))

    def test_su2_count_is_twice_so3_count(self):
        data = SeifertData(((2, 1), (5, -2), (10, -1)))
        so3 = enumerate_projective(data)
        checked = []
        for shifts, coboundary in single_twists(data.pairs):
            if coboundary:
                continue
            checked.append(shifts)
            assert len(twisted_classes(data, shifts)) == 2 * len(so3)
        assert checked == [(1, 0, 0), (0, 0, 1)]

    def test_twist_choice_does_not_change_counts(self):
        # twists hitting the same w2 class give the same orbits; the odd
        # 3-fiber twist is a coboundary here and is rejected instead
        data = SeifertData(((2, 1), (3, -1), (6, -1)))
        counts = []
        rejected = 0
        for shifts, coboundary in single_twists(data.pairs):
            if coboundary:
                rejected += 1
                continue
            counts.append(len(min_remaining_orbits(data, shifts)))
            assert len(twisted_classes(data, shifts)) == 2 * counts[-1]
        assert counts == [1, 1]
        assert rejected == 1
        assert len(enumerate_projective(data)) == 1

    def test_unpaired_class_raises(self, monkeypatch):
        data = SeifertData(((2, 1), (5, -2), (10, -1)))
        # all six SU(2) classes have m = 1 here; drop the first of them
        intervals = seifert._rotation_intervals

        def without_first_tuple(pairs, m, shifts):
            dropped = False
            for ell1, ell2, lo, hi in intervals(pairs, m, shifts):
                if lo <= hi and not dropped:
                    lo, dropped = lo + 2, True
                yield ell1, ell2, lo, hi

        monkeypatch.setattr(seifert, "_rotation_intervals", without_first_tuple)
        with pytest.raises(ArithmeticError, match="not free"):
            enumerate_projective(data)

    def test_canonical_twist_hits_largest_fiber(self):
        for pairs, want in [
            (((2, 1), (3, -1), (6, -1)), (0, 0, 1)),
            (((10, -1), (2, 1), (5, -2)), (1, 0, 0)),
            # all odd: the largest fiber, the earlier of two equal ones
            (((3, 2), (5, -1), (15, -7)), (0, 0, 1)),
            (((3, 2), (3, -1), (3, -1)), (1, 0, 0)),
        ]:
            assert _link_twist(pairs)[0] == _w2_shifts(pairs) == want, pairs

    def test_all_odd_fibers_pair_across_central_signs(self):
        # here the sign character is nonzero on the central fiber class, so
        # the two SU(2) classes wear opposite central signs yet form one orbit
        data = SeifertData(((3, 2), (3, -1), (3, -1)))
        su2 = twisted_classes(data)
        assert sorted(su2) == [(0, (1, 2, 2)), (1, (1, 1, 1))]
        assert len(enumerate_projective(data)) == 1
        shifts, chi = _link_twist(data.pairs)
        assert chi == (0, 1, 1, 1)
        assert seifert_su2_count(data.pairs, relator_signs(shifts)) == 2

    def test_oracle_agreement_on_twisted_relations(self):
        for pairs in [((2, 1), (3, -1), (6, -1)), ((2, 1), (5, -2), (10, -1))]:
            data = SeifertData(pairs)
            reduced = _reduced_cover(data)[0].pairs
            mine = len(twisted_classes(data))
            shifts = _link_twist(reduced)[0]
            assert mine == seifert_su2_count(reduced, relator_signs(shifts))


class TestNormalizationInvariance:
    def test_counts_invariant_under_moves(self):
        rng = random.Random(9)
        for _ in range(40):
            data = random_triple(rng, amax=6)
            base = irreducible_count(data)
            pairs = list(data.pairs)
            i = rng.randrange(3)
            bumped = list(pairs)
            bumped[i] = (pairs[i][0], pairs[i][1] + 2 * pairs[i][0])
            assert irreducible_count(SeifertData(tuple(bumped))) == base
            j = (i + 1) % 3
            paired = list(pairs)
            paired[i] = (pairs[i][0], pairs[i][1] + pairs[i][0])
            paired[j] = (pairs[j][0], pairs[j][1] - pairs[j][0])
            assert irreducible_count(SeifertData(tuple(paired))) == base

    def test_poincare_sphere_two_presentations(self):
        first = SeifertData(((2, 1), (3, 1), (5, -4)))
        second = SeifertData(((2, 1), (3, 4), (5, -9)))
        assert irreducible_count(first) == irreducible_count(second) == 2


class TestOracleEquivalence:
    def test_small_product_sweep(self):
        rng = random.Random(13)
        for a1 in range(2, 8):
            for a2 in range(a1, 16):
                for a3 in range(a2, 16):
                    if a1 * a2 * a3 > 48:
                        continue
                    pairs = tuple(
                        (a, random_coprime(rng, a)) for a in (a1, a2, a3)
                    )
                    data = SeifertData(pairs)
                    assert irreducible_count(data) == seifert_su2_count(pairs), pairs


class TestRotationSweepOracle:
    """The integer interval sweep, intervals expanded, against the Fraction sweep,
    list order included."""

    SHIFTS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_all_small_triples(self):
        # the sweep sees b_i and t_i only through m*b_i + t_i (mod 2), so the
        # reference runs once per parity vector
        reference = {}
        for a1, a2, a3 in itertools.product(range(2, 14), repeat=3):
            for b, m, shift in itertools.product((0, 1), (0, 1), self.SHIFTS):
                pairs = ((a1, b), (a2, b), (a3, b))
                key = (a1, a2, a3) + tuple((m * b + t) % 2 for t in shift)
                if key not in reference:
                    reference[key] = fraction_sweep(pairs, m, shift)
                assert rotation_sweep(pairs, m, shift) == reference[key], (pairs, m, shift)

    def test_workload_sized_triples(self):
        rng = random.Random(17)
        cases = []
        while len(cases) < 20:
            p = rng.randint(2, 5)
            q = rng.randint(p + 1, 40)
            r = rng.randint(q + 1, 6000 // (p * q) + q + 1)
            if p * q * r <= 6000 and all(math.gcd(x, y) == 1 for x, y in ((p, q), (p, r), (q, r))):
                cases.append(brieskorn_seifert_data(p, q, r).pairs)
        while len(cases) < 40:
            pairs = tuple((a, random_coprime(rng, a)) for a in (rng.randint(2, 40) for _ in range(3)))
            if math.prod(a for a, _ in pairs) <= 6000:
                cases.append(pairs)
        for pairs in cases:
            for m, shift in itertools.product((0, 1), self.SHIFTS):
                assert rotation_sweep(pairs, m, shift) == fraction_sweep(pairs, m, shift), (pairs, m, shift)

    def test_pairing_matches_min_remaining_loop(self):
        rng = random.Random(23)
        for _ in range(30):
            data = random_link_triple(rng)
            assert enumerate_projective(data) == min_remaining_orbits(data), data
