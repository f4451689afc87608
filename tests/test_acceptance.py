"""Acceptance suite: one test per numbered criterion, each at zero tolerance.

Counts and gradings are integers throughout, so every comparison is exact;
the only tolerance anywhere is the 1e-6 clustering width inside the
numeric relation-solver oracle, as stated in criterion 8.
"""

import json
import math
import random

from floerchains.arith import mod_inverse
from floerchains.cli import main
from floerchains.complexes import (
    euler_characteristic,
    montesinos_knot_complex,
    montesinos_link_complex,
    special_montesinos_complex,
    torus_complex,
)
from floerchains.covers import SeifertData, casson_from_alexander, seifert_h1_order
from floerchains.errors import EvenOrderError, InfiniteH1Error, NotHomologyS1xS2Error
from floerchains.lens import index_plus_one
from floerchains.seifert import (
    casson,
    enumerate_projective,
    reducible_characters,
)
from floerchains.signatures import torus_signature

from oracles import (
    _w2_shifts,
    enumerate_irreducibles,
    enumerate_reducibles,
    rotation_sweep,
    torus_alexander,
    two_bridge_complex,
    two_bridge_signature,
)
from su2_oracle import seifert_su2_count
from test_seifert import irreducible_count
from test_signatures import seifert_oracle_signature


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def cyclic_equal(a, b):
    return any(tuple(b[i:]) + tuple(b[:i]) == tuple(a) for i in range(4))


def test_criterion_1_figure_eight():
    ranks = two_bridge_complex(5, 3)
    assert ranks.r == (1, 1, 2, 1)
    assert ranks.anchoring == "absolute"
    q_param = mod_inverse(3, 5)
    indices = {ell: index_plus_one(5, q_param, 3, ell) for ell in (1, 2)}
    assert indices == {1: 2, 2: 4}
    report(1, "figure-eight ranks (1,1,2,1) absolute, lens indices {1: 2, 2: 4}")


def test_criterion_2_brieskorn_2_3_7():
    ranks = special_montesinos_complex(2, 3, 7)
    assert ranks.r == (3, 2, 2, 2)
    assert casson(2, 3, 7) == -1
    data = SeifertData(((2, 1), (3, 1), (7, -6)))
    assert len(enumerate_irreducibles(data)) == irreducible_count(data) == 2
    report(2, "Brieskorn(2,3,7) ranks (3,2,2,2), casson -1, count 2")


def test_criterion_3_montesinos_knot_pipeline():
    data = SeifertData(((2, -1), (3, 1), (3, 1)))
    assert seifert_h1_order(data) == 3
    classes = reducible_characters(data, 3)
    assert len(classes) == enumerate_reducibles(data) == 1
    assert classes[0] == (0, 1, 1)
    assert index_plus_one(3, 2, 2, 1) - 1 == 1
    gens = montesinos_knot_complex(data, -6, (2, 0, 0, 2))
    special = next(e for e in gens.entries if e["origin"] == "special")
    assert special["grading"] == 2
    reducible = sorted(e["grading"] for e in gens.entries if e["origin"] == "reducible")
    assert reducible == [1, 2]
    assert gens.ranks().r == (2, 1, 2, 2)
    report(3, "pipeline gives |H1|=3, lens index 1, mu=1, special 2, ranks (2,1,2,2)")


def test_criterion_4_pretzel_link():
    data = SeifertData(((2, 1), (3, -1), (6, -1)))
    shifts = _w2_shifts(data.pairs)
    assert sum(len(rotation_sweep(data.pairs, m, shifts)) for m in (0, 1)) == 2
    assert len(enumerate_projective(data)) == 1
    result = montesinos_link_complex(data, 4)
    assert cyclic_equal(result.ranks.r, (2, 0, 2, 0))
    assert result.ranks.anchoring == "cyclic"
    report(4, "P(2,-3,-6): 1 SO(3) class from 2 SU(2) classes, ranks (2,0,2,0) cyclic")


def test_criterion_5_montesinos_link_2_5_10():
    data = SeifertData(((2, 1), (5, -2), (10, -1)))
    result = montesinos_link_complex(data, 4)
    assert cyclic_equal(result.ranks.r, (2, 4, 2, 4))
    lam = casson_from_alexander(torus_alexander(2, 5))
    assert result.so3_classes == 3 == -lam
    report(5, "K((2,1),(5,-2),(10,-1)) ranks (2,4,2,4), classes 3 = -casson(T(2,5))")


def test_criterion_6_torus_family():
    for p in range(3, 26, 2):
        for q in range(p + 2, 26, 2):
            if math.gcd(p, q) == 1:
                assert torus_signature(p, q) % 8 == 0
    assert torus_complex(3, 5).total == 9
    report(6, "torus signatures = 0 mod 8 for odd coprime p < q <= 25; T(3,5) total 9")


def test_criterion_7_two_bridge_euler_and_determinant():
    for p in range(3, 100, 2):
        for q in range(1, p):
            if math.gcd(p, q) != 1:
                continue
            ranks = two_bridge_complex(p, q)
            assert euler_characteristic(ranks) == 1, (p, q)
            assert ranks.total == p, (p, q)
    report(7, "chi = +1 and total rank = p for all two-bridge pairs with p <= 99")


def test_criterion_8_oracle_equivalence():
    rng = random.Random(17)
    checked = 0
    for a1 in range(2, 60):
        for a2 in range(a1, 60):
            for a3 in range(a2, 60):
                if a1 * a2 * a3 > 60:
                    continue
                b_choices = []
                for a in (a1, a2, a3):
                    options = [b for b in (1, 2) if math.gcd(a, b) == 1]
                    b_choices.append(options)
                for b1 in b_choices[0]:
                    for b2 in b_choices[1]:
                        for b3 in b_choices[2]:
                            pairs = ((a1, b1), (a2, b2), (a3, b3))
                            mine = irreducible_count(SeifertData(pairs))
                            assert mine == seifert_su2_count(pairs), pairs
                            checked += 1
                # one random larger coefficient pattern per triple
                pairs = tuple(
                    (a, rng.choice([b for b in range(1, 2 * a + 1) if math.gcd(a, b) == 1]))
                    for a in (a1, a2, a3)
                )
                mine = irreducible_count(SeifertData(pairs))
                assert mine == seifert_su2_count(pairs), pairs
                checked += 1
    assert checked > 100
    report(8, f"rotation counts match the SU(2) solver on {checked} datasets, prod <= 60")


def test_criterion_9_normalization_invariance():
    rng = random.Random(23)

    def random_coprime(a, lo=-9, hi=9):
        return rng.choice([b for b in range(lo, hi + 1) if b and math.gcd(a, b) == 1])

    datasets = 0
    while datasets < 70:
        pairs = tuple((a, random_coprime(a)) for a in (rng.randint(2, 7) for _ in range(3)))
        data = SeifertData(pairs)
        datasets += 1
        base_irr = irreducible_count(data)
        base_order = seifert_h1_order(data)
        try:
            base_red = enumerate_reducibles(data)
        except (InfiniteH1Error, EvenOrderError):
            base_red = None

        i, j = rng.sample(range(3), 2)
        paired = list(pairs)
        paired[i] = (pairs[i][0], pairs[i][1] + pairs[i][0])
        paired[j] = (pairs[j][0], pairs[j][1] - pairs[j][0])
        moved = SeifertData(tuple(paired))
        assert irreducible_count(moved) == base_irr
        assert seifert_h1_order(moved) == base_order

        bumped = list(pairs)
        bumped[i] = (pairs[i][0], pairs[i][1] + 2 * pairs[i][0])
        assert irreducible_count(SeifertData(tuple(bumped))) == base_irr

        appended = list(pairs)
        appended[i] = (pairs[i][0], pairs[i][1] + pairs[i][0])
        appended.append((1, -1))
        with_trivial = SeifertData(tuple(appended))
        assert seifert_h1_order(with_trivial) == base_order
        assert irreducible_count(with_trivial) == base_irr
        if base_red is not None:
            assert enumerate_reducibles(with_trivial) == base_red

    projective_sets = 0
    while projective_sets < 30:
        a1, a2 = rng.randint(2, 7), rng.randint(2, 9)
        b1, b2 = random_coprime(a1), random_coprime(a2)
        from fractions import Fraction

        partial = Fraction(b1, a1) + Fraction(b2, a2)
        a3, b3 = partial.denominator, -partial.numerator
        if a3 < 2:
            continue
        data = SeifertData(((a1, b1), (a2, b2), (a3, b3)))
        try:
            base = len(enumerate_projective(data))
        except NotHomologyS1xS2Error:
            continue
        projective_sets += 1
        i, j = rng.sample(range(3), 2)
        paired = list(data.pairs)
        paired[i] = (paired[i][0], paired[i][1] + paired[i][0])
        paired[j] = (paired[j][0], paired[j][1] - paired[j][0])
        moved = SeifertData(tuple(paired))
        assert seifert_h1_order(moved) == 0
        assert len(enumerate_projective(moved)) == base

    report(9, f"counts and |H1| invariant under moves on {datasets + projective_sets} datasets")


def test_criterion_10_signature_oracles():
    for p, q in [(2, 3), (2, 5), (3, 4), (3, 5)]:
        assert torus_signature(p, q) == seifert_oracle_signature(p, q), (p, q)
    assert two_bridge_signature(5, 3) == 0
    assert abs(two_bridge_signature(3, 1)) == 2
    report(10, "counting rule matches Seifert-matrix oracle; two-bridge anchors hold")


def test_homology_rank_notes(capsys):
    # the two cases whose differential provably vanishes carry the note
    assert main(["two-bridge", "-p", "5", "-q", "3", "--json"]) == 0
    record = json.loads(capsys.readouterr()[0])
    assert any("homology ranks" in note for note in record["notes"])

    assert main(["montesinos-link", "--pairs", "2,1;3,-1;6,-1", "--lk", "4", "--json"]) == 0
    record = json.loads(capsys.readouterr()[0])
    assert any("homology ranks" in note for note in record["notes"])
    print("PASS note check: vanishing-differential records mark chain = homology ranks")
