"""Closed forms against their oracles on generated inputs.

Every test is derandomized, so a run checks the same examples each time.
"""

import collections
import functools
import itertools
import json
import math
import random
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from floerchains.arith import floor_sum, mod_inverse
from floerchains.cli import main
from floerchains.complexes import torus_even_seifert_data, two_bridge_generators
from floerchains.covers import SeifertData, seifert_h1_order
from floerchains.errors import (
    DomainError,
    FlatCobordismError,
    NotHomologyS1xS2Error,
    UnsupportedFiberCountError,
)
from floerchains.lens import index_plus_one, indices_plus_one, lattice_counts
from floerchains.seifert import (
    _irreducible_count,
    _link_twist,
    _reduced_cover,
    enumerate_projective,
    reducible_characters,
)
from floerchains.signatures import two_bridge_signature

from oracles import (
    _mod2_solutions,
    _w2_shifts,
    fraction_h1_order,
    fraction_reducible_characters,
    fraction_sweep,
    goeritz_signature,
    two_bridge_rank_vector,
    walk_counts,
)

derandomized = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@st.composite
def lens_pairs(draw, p_max):
    """Odd 3 <= p <= p_max and 1 <= q < p coprime to it."""
    p = 2 * draw(st.integers(1, (p_max - 1) // 2)) + 1
    q = draw(st.integers(1, p - 1).filter(lambda q: math.gcd(p, q) == 1))
    return p, q


@derandomized
@given(st.data())
def test_lattice_counts_match_walk(data):
    p, q = data.draw(lens_pairs(401))
    ell = data.draw(st.integers(1, (p - 1) // 2))
    assert lattice_counts(p, q, mod_inverse(q, p), ell) == walk_counts(p, q, ell)


@derandomized
@given(lens_pairs(401))
def test_batch_indices_match_per_class_route(pair):
    p, q = pair
    r = mod_inverse(q, p)
    per_class = [index_plus_one(p, q, r, ell) for ell in range(1, (p - 1) // 2 + 1)]
    assert indices_plus_one(p, r) == per_class


@derandomized
@given(lens_pairs(401))
def test_index_multiset_invariant_under_q_inverse(pair):
    p, q = pair
    r = mod_inverse(q, p)
    ells = range(1, (p - 1) // 2 + 1)
    left = sorted(index_plus_one(p, q, r, ell) for ell in ells)
    right = sorted(index_plus_one(p, r, q, ell) for ell in ells)
    assert left == right


@derandomized
@given(lens_pairs(151))
def test_two_bridge_signature_matches_goeritz(pair):
    p, q = pair
    assert two_bridge_signature(p, q) == goeritz_signature(p, q)


@derandomized
@given(lens_pairs(401))
def test_two_bridge_signature_flips_under_mirror(pair):
    p, q = pair
    assert two_bridge_signature(p, p - q) == -two_bridge_signature(p, q)


def large_lens_pairs(count=6, seed=16):
    """Seeded pairs with odd 1001 <= p <= 5001 and q drawn coprime to p."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        p = 2 * rng.randint(500, 2500) + 1
        pairs.append((p, rng.choice([q for q in range(1, p) if math.gcd(p, q) == 1])))
    return pairs


@derandomized
@given(st.one_of(lens_pairs(401), st.sampled_from(large_lens_pairs())))
def test_two_bridge_ranks_match_closed_form(pair):
    p, q = pair
    assert two_bridge_generators(p, q).ranks().r == two_bridge_rank_vector(p, q)


def test_torus_2_q_ranks_match_closed_form(capsys):
    # the torus knot T(2, q) is routed through the two-bridge pair (q, 1)
    for q in range(3, 121, 2):
        assert main(["torus", "2", str(q), "--json"]) == 0
        ranks = json.loads(capsys.readouterr().out)["ranks"]
        assert tuple(ranks) == two_bridge_rank_vector(q, 1), q


@derandomized
@given(
    st.integers(0, 300),
    st.integers(1, 10**6),
    st.integers(-(10**9), 10**9),
    st.integers(-(10**9), 10**9),
)
def test_floor_sum_matches_brute_force(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * t + b) // m for t in range(n))


@st.composite
def seifert_pairs(draw, a_max=40, b_max=60, trivial=True):
    """A coprime pair (a, b) with 1 <= a <= a_max, a trivial fiber a = 1 half the
    time unless ``trivial`` is false."""
    exceptional = st.integers(2, a_max)
    a = draw(st.one_of(st.just(1), exceptional) if trivial else exceptional)
    b = draw(st.integers(-b_max, b_max).filter(lambda b: math.gcd(a, b) == 1))
    return a, b


@derandomized
@given(st.lists(seifert_pairs(), min_size=1, max_size=5))
def test_seifert_h1_order_matches_fraction_oracle(pairs):
    s = SeifertData(tuple(pairs))
    assert seifert_h1_order(s) == fraction_h1_order(s)


@functools.cache
def flat_triples(product_max=6000):
    """Every ((a_i, b_i)) with 2 <= a_1 <= a_2 <= a_3, a_1*a_2*a_3 <= product_max,
    0 < b_1 < a_1, 0 < b_2 < a_2, whose |H1| = a_1*a_2*a_3 / lcm is odd and > 1.

    |H1| = |e| * a_1*a_2*a_3 equals the product over the lcm exactly when the
    triple is flat, so b_3 is the integer that makes |e| = 1 / lcm, if any.
    """
    out = []
    for a1 in range(2, round(product_max ** (1 / 3)) + 1):
        for a2 in range(a1, math.isqrt(product_max // a1) + 1):
            for a3 in range(a2, product_max // (a1 * a2) + 1):
                order = a1 * a2 * a3 // math.lcm(a1, a2, a3)
                if order % 2 == 0 or order == 1:
                    continue
                for b1 in range(1, a1):
                    for b2 in range(1, a2):
                        for sign in (1, -1):
                            num = sign * order - a3 * (b1 * a2 + a1 * b2)
                            if num % (a1 * a2):
                                continue
                            b3 = num // (a1 * a2)
                            if math.gcd(a1, b1) == math.gcd(a2, b2) == math.gcd(a3, b3) == 1:
                                out.append(((a1, b1), (a2, b2), (a3, b3)))
    return out


def shipping_characters(s):
    """The shipping route from raw data: reduce and measure, then solve."""
    return reducible_characters(*_reduced_cover(s))


@derandomized
@given(
    st.one_of(
        st.sampled_from(flat_triples()),
        st.tuples(*[seifert_pairs(a_max=9, b_max=20, trivial=False)] * 3),
    )
)
def test_smith_form_flatness_matches_product_over_lcm(pairs):
    # for odd finite |H1| the oracle's Smith-form check (the central fiber
    # class vanishes in H1) and the product rule of reducible_characters,
    # a_1*a_2*a_3 = lcm(a_1, a_2, a_3) * |H1|, accept the same triples
    s = SeifertData(pairs)
    order = seifert_h1_order(s)
    assume(order % 2)
    a = [a for a, _ in pairs]
    flat = math.prod(a) == math.lcm(*a) * order
    for route in (shipping_characters, fraction_reducible_characters):
        try:
            route(s)
        except FlatCobordismError:
            assert not flat
        else:
            assert flat


def moved(pairs, i, j, k):
    """b_i += k*a_i and b_j -= k*a_j: the same manifold with the same e."""
    pairs = list(pairs)
    pairs[i] = (pairs[i][0], pairs[i][1] + k * pairs[i][0])
    pairs[j] = (pairs[j][0], pairs[j][1] - k * pairs[j][0])
    return tuple(pairs)


@derandomized
@given(st.data())
def test_reduced_cover_checks_the_fiber_count(data):
    # n exceptional fibers among up to three trivial ones, n = 3 in 3 of 8
    n = data.draw(st.sampled_from((0, 1, 2, 3, 3, 3, 4, 5)))
    fiber = seifert_pairs(a_max=12, b_max=30, trivial=False)
    pairs = data.draw(st.lists(fiber, min_size=n, max_size=n))
    pairs += [(1, b) for b in data.draw(st.lists(st.integers(-5, 5), max_size=3))]
    assume(pairs)
    s = SeifertData(data.draw(st.permutations(pairs)))
    exceptional = [a for a, _ in s.pairs if a > 1]
    try:
        reduced, order = _reduced_cover(s)
    except UnsupportedFiberCountError:
        assert len(exceptional) != 3
    else:
        assert len(exceptional) == 3
        assert [a for a, _ in reduced.pairs] == exceptional
        assert order == fraction_h1_order(s)


@derandomized
@given(st.tuples(*[seifert_pairs(a_max=20, b_max=40, trivial=False)] * 3), st.data())
def test_reduced_cover_invariant_under_moves(pairs, data):
    base, order = _reduced_cover(SeifertData(pairs))
    assert order == fraction_h1_order(SeifertData(pairs))
    i, j = data.draw(st.permutations(range(3)))[:2]
    fibers = list(moved(pairs, i, j, data.draw(st.integers(-2, 2))))
    trivial = []
    for b in data.draw(st.lists(st.integers(-3, 3), max_size=3)):
        # a (1, b) fiber, compensated on one exceptional fiber
        k = data.draw(st.integers(0, 2))
        fibers[k] = (fibers[k][0], fibers[k][1] - b * fibers[k][0])
        trivial.append((1, b))
    for fiber in trivial:
        fibers.insert(data.draw(st.integers(0, len(fibers))), fiber)
    reduced, moved_order = _reduced_cover(SeifertData(fibers))
    assert moved_order == order
    # the same triple up to moves: each b_i mod a_i and e are unchanged
    assert [(a, b % a) for a, b in reduced.pairs] == [(a, b % a) for a, b in base.pairs]
    reduced_e, base_e = (sum(Fraction(b, a) for a, b in t.pairs) for t in (reduced, base))
    assert reduced_e == base_e


def character_outcome(route, s):
    """The route's character classes, or the name of the error it raises."""
    try:
        return route(s)
    except DomainError as err:
        return type(err).__name__


@derandomized
@given(st.data())
def test_reducible_characters_match_fraction_oracle(data):
    # flat triples moved along their fibers; arbitrary triples, most of them
    # not flat or of even order; triples with e = 0, whose H1 is infinite;
    # and the covers of torus knots with an even strand count, p <= 201
    kind = data.draw(st.sampled_from(("flat", "arbitrary", "infinite", "torus")))
    if kind == "flat":
        pairs = data.draw(st.sampled_from(flat_triples()))
        pairs = tuple(data.draw(st.permutations(pairs)))
        i, j = data.draw(st.permutations(range(3)))[:2]
        pairs = moved(pairs, i, j, data.draw(st.integers(-2, 2)))
    elif kind == "arbitrary":
        pairs = data.draw(st.tuples(*[seifert_pairs(a_max=9, b_max=20, trivial=False)] * 3))
    elif kind == "infinite":
        pairs = data.draw(link_triples())
    else:
        p = 2 * data.draw(st.integers(1, 100)) + 1
        r = data.draw(st.integers(2, 100).filter(lambda r: math.gcd(p, r) == 1))
        pairs = torus_even_seifert_data(p, 2 * r).pairs
    s = SeifertData(pairs)
    want = character_outcome(fraction_reducible_characters, s)
    assert character_outcome(shipping_characters, s) == want


@st.composite
def link_triples(draw, product_max=6000):
    """Three exceptional fibers with e = 0 and a_1*a_2*a_3 <= product_max."""
    a1, a2 = draw(st.integers(2, 12)), draw(st.integers(2, 16))
    b1 = draw(st.integers(-9, 9).filter(lambda b: math.gcd(a1, b) == 1))
    b2 = draw(st.integers(-9, 9).filter(lambda b: math.gcd(a2, b) == 1))
    third = -(Fraction(b1, a1) + Fraction(b2, a2))
    assume(third.denominator >= 2 and a1 * a2 * third.denominator <= product_max)
    return ((a1, b1), (a2, b2), (third.denominator, third.numerator))


def projective_outcome(pairs):
    """Orbit count and twisted fiber, or the error name, for the given pairs."""
    s = SeifertData(pairs)
    try:
        return len(enumerate_projective(s)), _w2_shifts(_reduced_cover(s)[0].pairs)
    except DomainError as err:
        return type(err).__name__


@derandomized
@given(link_triples(), st.data())
def test_projective_count_invariant_under_moves(pairs, data):
    base = projective_outcome(pairs)
    i, j = data.draw(st.permutations(range(3)))[:2]
    assert projective_outcome(moved(pairs, i, j, 1)) == base
    # a (1, b) fiber anywhere, compensated on fiber i
    b = data.draw(st.integers(-3, 3).filter(bool))
    shifted = list(pairs)
    shifted[i] = (shifted[i][0], shifted[i][1] - b * shifted[i][0])
    shifted.insert(data.draw(st.integers(0, 3)), (1, b))
    assert projective_outcome(tuple(shifted)) == base


def e0_triples(a_max=20):
    """Every three exceptional fibers with e = 0, 2 <= a_i <= a_max, 0 < b_1 < a_1
    and 0 < |b_2| < a_2, in every order of the fibers."""
    out = set()
    for a1, a2 in itertools.product(range(2, a_max + 1), repeat=2):
        for b1, b2 in itertools.product(range(1, a1), range(1 - a2, a2)):
            if math.gcd(a1, b1) != 1 or math.gcd(a2, b2) != 1:
                continue
            third = -(Fraction(b1, a1) + Fraction(b2, a2))
            if 2 <= third.denominator <= a_max:
                triple = ((a1, b1), (a2, b2), (third.denominator, third.numerator))
                out.update(itertools.permutations(triple))
    return sorted(out)


def large_e0_triples(count=300, a_max=10**6, seed=5):
    """Seeded e = 0 triples with multiplicities up to a_max, fibers shuffled."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(1, a_max // 10)
        a1, a2 = d * rng.randint(1, 10), d * rng.randint(1, 10)
        if min(a1, a2) < 2:
            continue
        b1, b2 = (rng.choice([b for b in range(1, min(a, 50)) if math.gcd(a, b) == 1])
                  for a in (a1, a2))
        third = -(Fraction(b1, a1) + Fraction(b2, a2))
        if 2 <= third.denominator <= a_max:
            triple = [(a1, b1), (a2, b2), (third.denominator, third.numerator)]
            rng.shuffle(triple)
            out.append(tuple(triple))
    return out


NOT_Z2 = "H1(.; Z/2) is not Z/2; not a two-component link cover"


def test_link_twist_matches_sign_vector_search():
    # the parity rule against the search over all sign vectors, error included
    even_counts = collections.Counter()
    for pairs in e0_triples() + large_e0_triples():
        assert seifert_h1_order(SeifertData(pairs)) == 0, pairs
        shifts = _w2_shifts(pairs)
        # some single twist always carries w2 at e = 0, so no twist search
        # can come up empty there
        assert shifts is not None, pairs
        characters = [chi for chi in _mod2_solutions(pairs, (0, 0, 0)) if any(chi)]
        want = (shifts, characters[0]) if len(characters) == 1 else NOT_Z2
        try:
            got = _link_twist(pairs)
        except NotHomologyS1xS2Error as err:
            got = str(err)
        assert got == want, pairs
        even_counts[sum(a % 2 == 0 for a, _ in pairs)] += 1
    # exactly one even fiber cannot sum to e = 0; three is the error
    assert sorted(even_counts) == [0, 2, 3]


@derandomized
@given(st.tuples(*[seifert_pairs(a_max=20, b_max=40, trivial=False)] * 3))
def test_irreducible_count_matches_fraction_grid(pairs):
    grid = sum(len(fraction_sweep(pairs, m, (0, 0, 0))) for m in (0, 1))
    assert _irreducible_count(pairs) == grid
