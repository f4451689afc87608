import itertools
import math
from fractions import Fraction

import pytest

from floerchains import complexes
from floerchains.complexes import (
    ABSOLUTE,
    CYCLIC,
    ChainRanks,
    GradedGenerators,
    LinkComplex,
    _row,
    euler_characteristic,
    montesinos_knot_complex,
    montesinos_link_complex,
    special_montesinos_complex,
    torus_complex,
    torus_even_seifert_data,
    two_bridge_generators,
)
from floerchains.covers import SeifertData, casson_from_alexander
from floerchains.errors import (
    EvenOrderError,
    FlatCobordismError,
    InconsistentLkError,
    InfiniteH1Error,
    NotCoprimeError,
    NotHomologyS1xS2Error,
)
from floerchains.lens import LatticeCounts
from floerchains.seifert import brieskorn_seifert_data
from floerchains.signatures import torus_signature

import oracles
from oracles import torus_alexander, two_bridge_complex


class TestTwoBridgeComplex:
    def test_figure_eight(self):
        ranks = two_bridge_complex(5, 3)
        assert ranks.r == (1, 1, 2, 1)
        assert ranks.anchoring == ABSOLUTE

    def test_trefoil(self):
        ranks = two_bridge_complex(3, 1)
        assert ranks.total == 3
        assert euler_characteristic(ranks) == 1
        special = next(
            e for e in two_bridge_generators(3, 1).entries if e["origin"] == "special"
        )
        assert special["grading"] == 2

    def test_unknot(self):
        assert two_bridge_complex(1, 1).r == (1, 0, 0, 0)

    def test_generator_structure(self):
        gens = two_bridge_generators(5, 3)
        assert sum(1 for e in gens.entries if e["origin"] == "special") == 1
        circle_ids = {e["id"] for e in gens.entries if e["origin"] == "reducible"}
        assert circle_ids == {1, 2}

    def test_blocks_are_record_rows(self):
        gens = two_bridge_generators(5, 3)
        assert gens.entries[0] == {
            "grading": 0,
            "id": None,
            "multiplicity": 1,
            "origin": "special",
        }
        assert all(set(e) == {"grading", "id", "multiplicity", "origin"} for e in gens.entries)

    def test_unknown_grading_raises(self, monkeypatch):
        gens = GradedGenerators((_row(None, 1, "special"),))
        monkeypatch.setattr(oracles, "two_bridge_generators", lambda p, q: gens)
        with pytest.raises(ArithmeticError):
            two_bridge_complex(5, 3)


class TestSpecialMontesinos:
    def test_examples(self):
        assert special_montesinos_complex(2, 3, 7).r == (3, 2, 2, 2)
        assert special_montesinos_complex(2, 3, 5).r == (3, 2, 2, 2)
        assert special_montesinos_complex(1, 1, 1).r == (1, 0, 0, 0)

    def test_euler_characteristic_is_one(self):
        for pqr in [(2, 3, 7), (2, 3, 11), (3, 4, 5)]:
            assert euler_characteristic(special_montesinos_complex(*pqr)) == 1


class TestMontesinosKnotComplex:
    def test_worked_example_with_pin(self):
        data = SeifertData(((2, -1), (3, 1), (3, 1)))
        gens = montesinos_knot_complex(data, -6, (2, 0, 0, 2))
        assert gens.ranks().r == (2, 1, 2, 2)
        assert euler_characteristic(gens.ranks()) == 1
        special = [e for e in gens.entries if e["origin"] == "special"]
        assert len(special) == 1 and special[0]["grading"] == 2
        reducible = sorted(e["grading"] for e in gens.entries if e["origin"] == "reducible")
        assert reducible == [1, 2]

    def test_without_pin_is_partial(self):
        data = SeifertData(((2, -1), (3, 1), (3, 1)))
        gens = montesinos_knot_complex(data, -6)
        assert gens.ranks() is None
        assert sum(e["multiplicity"] for e in gens.entries if e["grading"] is None) == 4
        assert any("unknown gradings" in w for w in gens.warnings)

    def test_homology_sphere_matches_brieskorn_route(self):
        data = SeifertData(((2, 1), (3, 1), (7, -6)))
        gens = montesinos_knot_complex(data, -8)
        assert gens.ranks().r == special_montesinos_complex(2, 3, 7).r

    def test_homology_sphere_branch_over_brieskorn_triples(self):
        # every pairwise coprime 2 <= p < q < r < 26: the Brieskorn pairs in
        # each order, their mirror and a split-off trivial fiber all grade
        # the irreducibles as the Brieskorn route does
        for p, q, r in itertools.combinations(range(2, 26), 3):
            if math.gcd(p, q) != 1 or math.gcd(p, r) != 1 or math.gcd(q, r) != 1:
                continue
            expected = special_montesinos_complex(p, q, r).r
            pairs = brieskorn_seifert_data(p, q, r).pairs
            (a1, b1), rest = pairs[0], pairs[1:]
            variants = list(itertools.permutations(pairs))
            variants.append(tuple((a, -b) for a, b in pairs))
            variants.append(((a1, b1 - a1),) + rest + ((1, 1),))
            for v in variants:
                assert montesinos_knot_complex(SeifertData(v), 0).ranks().r == expected, v

    def test_flat_cobordism_violation(self):
        with pytest.raises(FlatCobordismError):
            montesinos_knot_complex(SeifertData(((3, 1), (3, 1), (3, 1))), 0)

    def test_infinite_h1_is_named_before_flatness(self):
        # e = 1/3 + 1/5 - 8/15 = 0: a homology S^1 x S^2, not a knot cover
        with pytest.raises(InfiniteH1Error):
            montesinos_knot_complex(SeifertData(((3, 1), (5, 1), (15, -8))), 0)

    def test_even_h1_is_named_before_flatness(self):
        # |H1| = 38 and 40 != lcm 20 * 38: the order is the first thing wrong
        with pytest.raises(EvenOrderError):
            montesinos_knot_complex(SeifertData(((2, 1), (4, 1), (5, 1))), 0)

    def test_even_fiber_grading_flag(self):
        # |H1| = 3, flat, and the character is nontrivial on the 6-fiber
        data = SeifertData(((6, -1), (3, 1), (5, -1)))
        gens = montesinos_knot_complex(data, 0)
        reducible = [e for e in gens.entries if e["origin"] == "reducible"]
        assert all(e["grading"] is None for e in reducible)
        assert any("even-multiplicity fiber" in w for w in gens.warnings)

    def test_block_validation(self):
        data = SeifertData(((2, -1), (3, 1), (3, 1)))
        # a non-integral count is refused, not truncated to (2, 0, 0, 2)
        with pytest.raises(ValueError, match="expected an integer, got 2.9"):
            montesinos_knot_complex(data, -6, (2.9, 0, 0, 2.2))
        with pytest.raises(ValueError, match=r"expected an integer, got Fraction\(5, 2\)"):
            montesinos_knot_complex(data, -6, (2, 0, Fraction(5, 2), 2))
        with pytest.raises(ValueError, match="irreducible block sums to 3, expected 4"):
            montesinos_knot_complex(data, -6, (1, 0, 0, 2))
        with pytest.raises(ValueError, match="irreducible block must be four counts"):
            montesinos_knot_complex(data, -6, (2, 0, 2))
        # right total but not decomposable into mu, mu+1 class pairs
        consecutive = "is not a sum of consecutive-grading pairs"
        with pytest.raises(ValueError, match=consecutive):
            montesinos_knot_complex(data, -6, (4, 0, 0, 0))
        with pytest.raises(ValueError, match=consecutive):
            montesinos_knot_complex(data, -6, (1, 1, 1, 1))
        for good in ((2, 0, 0, 2), (2, 2, 0, 0), (0, 2, 2, 0), (0, 0, 2, 2)):
            assert montesinos_knot_complex(data, -6, good).ranks() is not None
        assert montesinos_knot_complex(data, -6, (2.0, "0", 0, True + True)).ranks() is not None
        # so is a non-integral signature; an integral float grades as an int
        with pytest.raises(ValueError, match="expected an integer, got -6.5"):
            montesinos_knot_complex(data, -6.5, (2, 0, 0, 2))
        gens = montesinos_knot_complex(data, -6.0, (2, 0, 0, 2))
        assert gens.ranks().r == (2, 1, 2, 2)
        assert [type(e["grading"]) for e in gens.entries] == [int] * len(gens.entries)


class TestTorusComplex:
    def test_3_5(self):
        ranks = torus_complex(3, 5)
        assert ranks.total == 9
        assert ranks.r == (3, 2, 2, 2)
        assert ranks.conjectural
        assert -4 * ranks.r[1] == torus_signature(3, 5)

    def test_3_7(self):
        ranks = torus_complex(3, 7)
        assert ranks.total == 1 + 4 * (-torus_signature(3, 7) // 4) == 9

    def test_even_q_routed_through_seifert_data(self):
        data = torus_even_seifert_data(3, 4)
        from floerchains.seifert import _reduced_cover

        assert _reduced_cover(data)[0].pairs in (
            ((2, -1), (3, 1), (3, 1)),
            ((3, -2), (3, 1), (2, 1)),
        )
        gens = montesinos_knot_complex(data, torus_signature(3, 4), (2, 0, 0, 2))
        assert gens.ranks().r == (2, 1, 2, 2)

    def test_rejects_even_input(self):
        with pytest.raises(ValueError):
            torus_complex(3, 4)

    def test_even_seifert_data_validation(self):
        with pytest.raises(ValueError, match=r"need odd p and even q coprime, got \(3, 5\)"):
            torus_even_seifert_data(3, 5)
        with pytest.raises(ValueError, match="q = 2 covers are lens spaces"):
            torus_even_seifert_data(3, 2)

    def test_wrong_inverse_raises(self, monkeypatch):
        monkeypatch.setattr(complexes, "mod_inverse", lambda a, m: 0)
        with pytest.raises(ArithmeticError):
            torus_even_seifert_data(3, 4)


class TestMontesinosLinkComplex:
    def test_pretzel_2_m3_m6(self):
        data = SeifertData(((2, 1), (3, -1), (6, -1)))
        result = montesinos_link_complex(data, 4)
        assert result.ranks.anchoring == CYCLIC
        assert result.ranks.r == (0, 2, 0, 2)
        assert result.so3_classes == 1
        assert result.su2_classes == 2
        assert result.split in ((1, 0), (0, 1))

    def test_montesinos_link_2_5_10(self):
        data = SeifertData(((2, 1), (5, -2), (10, -1)))
        result = montesinos_link_complex(data, 4)
        assert result.ranks.r == (2, 4, 2, 4)
        assert result.so3_classes == 3

    def test_ambiguous_without_lk(self):
        data = SeifertData(((2, 1), (5, -2), (10, -1)))
        result = montesinos_link_complex(data)
        assert result.split is None
        assert result.ranks is None
        assert all(c.total == 12 for c in result.candidates)
        assert any("ambiguous split" in w for w in result.warnings)

    def test_inconsistent_lk(self):
        data = SeifertData(((2, 1), (3, -1), (6, -1)))
        with pytest.raises(InconsistentLkError):
            montesinos_link_complex(data, 2)
        with pytest.raises(InconsistentLkError):
            montesinos_link_complex(data, 12)
        # a non-integral linking number is refused, an integral float taken as an int
        with pytest.raises(ValueError, match="expected an integer, got 4.5"):
            montesinos_link_complex(data, 4.5)
        result = montesinos_link_complex(SeifertData(((2, 1), (5, -2), (10, -1))), 4.0)
        assert result.split == (2, 1) and result.ranks.r == (2, 4, 2, 4)
        assert {type(x) for x in result.split + result.ranks.r} == {int}

    def test_split_sweep(self, monkeypatch):
        # every class count n and every lk around the admissible range: an lk
        # either fixes one of the lk-free candidates with 4*(n1 - n3) = |lk|,
        # n1 >= n3, or is refused; together the lk reach every candidate.  The
        # lk-free result fixes the split exactly when one candidate is left,
        # and is then the result of each lk that fixes it
        for n in range(41):
            monkeypatch.setattr(complexes, "enumerate_projective", lambda s, n=n: [None] * n)
            unfixed = montesinos_link_complex(None)
            free = unfixed.candidates
            assert (unfixed.split is not None) == (len(free) == 1) == (n <= 1), n
            ambiguous = any("ambiguous split" in w for w in unfixed.warnings)
            assert ambiguous == (unfixed.split is None), n
            reached = set()
            for lk in range(-4 * n - 8, 4 * n + 9):
                try:
                    result = montesinos_link_complex(None, lk)
                except InconsistentLkError:
                    continue
                (ranks,) = result.candidates
                n1, n3 = result.split
                assert ranks in free and ranks == result.ranks, (n, lk)
                assert ranks.r == (2 * n3, 2 * n1, 2 * n3, 2 * n1), (n, lk)
                assert n1 + n3 == n and n1 >= n3 and 4 * (n1 - n3) == abs(lk), (n, lk)
                if unfixed.split is not None:
                    assert result == unfixed, (n, lk)
                reached.add(ranks)
            assert reached == set(free), n

    def test_requires_zero_euler_number(self):
        with pytest.raises(NotHomologyS1xS2Error):
            montesinos_link_complex(SeifertData(((2, 1), (3, 1), (7, -6))), 4)

    def test_total_matches_alexander_route(self):
        data = SeifertData(((2, 1), (5, -2), (10, -1)))
        result = montesinos_link_complex(data, 4)
        lam = casson_from_alexander(torus_alexander(2, 5))
        assert result.so3_classes == -lam

    def test_trefoil_surgery_route(self):
        data = SeifertData(((2, 1), (3, -1), (6, -1)))
        result = montesinos_link_complex(data, 4)
        lam = casson_from_alexander(torus_alexander(2, 3))
        assert result.so3_classes == -lam == 1


class TestEulerCharacteristic:
    def test_examples(self):
        assert euler_characteristic(ChainRanks((1, 1, 2, 1))) == 1
        assert euler_characteristic(ChainRanks((3, 2, 2, 2))) == 1
        assert abs(euler_characteristic(ChainRanks((2, 0, 2, 0), CYCLIC))) == 4


class TestAlexanderRoutes:
    def test_torus_alexander(self):
        assert torus_alexander(2, 3) == {1: 1, 0: -1, -1: 1}
        assert torus_alexander(2, 5) == {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
        assert torus_alexander(1, 5) == {0: 1}
        # (3, 4) has zero coefficients between its terms; none is kept
        assert torus_alexander(3, 4) == {3: 1, 2: -1, 0: 1, -2: -1, -3: 1}

    def test_casson_from_alexander(self):
        assert casson_from_alexander(torus_alexander(2, 3)) == -1
        assert casson_from_alexander(torus_alexander(2, 5)) == -3
        assert casson_from_alexander({0: 1}) == 0

    def test_rejects_common_factor(self):
        with pytest.raises(NotCoprimeError):
            torus_alexander(4, 6)

    def test_unnormalized_quotient_raises(self, monkeypatch):
        divide = oracles._poly_div
        monkeypatch.setattr(oracles, "_poly_div", lambda num, den: [2 * c for c in divide(num, den)])
        with pytest.raises(ArithmeticError):
            torus_alexander(2, 3)

    def test_symmetric_normalized_family(self):
        for p, q in [(2, 7), (3, 4), (3, 5), (4, 5), (5, 6)]:
            delta = torus_alexander(p, q)
            assert sum(delta.values()) == 1
            assert all(delta.get(-e, 0) == c for e, c in delta.items())


class TestChainRanksType:
    def test_validation(self):
        with pytest.raises(ValueError, match="four non-negative integers"):
            ChainRanks((1, 2, 3))
        with pytest.raises(ValueError, match="four non-negative integers"):
            ChainRanks((1, -1, 0, 0))
        with pytest.raises(ValueError, match="unknown anchoring 'diagonal'"):
            ChainRanks((1, 0, 0, 0), "diagonal")
        with pytest.raises(ValueError, match="unknown anchoring"):
            ChainRanks(r=(1, 0, 0, 0), anchoring="diagonal")
        with pytest.raises(ValueError, match="four non-negative integers"):
            ChainRanks((1, 0, 0, 0))._replace(r=(1,))
        with pytest.raises(ValueError, match="unknown anchoring"):
            ChainRanks._make([(1, 0, 0, 0), "diagonal", False])
        with pytest.raises(ValueError, match="expected an integer, got 1.5"):
            ChainRanks((1.5, 0, 0, 0))
        ranks = ChainRanks([2.0, 0, 0, True])
        assert ranks.r == (2, 0, 0, 1) and {type(x) for x in ranks.r} == {int}

    def test_equality_and_hash(self):
        plain = ChainRanks((1, 0, 0, 0))
        same = ChainRanks(r=(1, 0, 0, 0), anchoring=ABSOLUTE, conjectural=False)
        assert plain == same and hash(plain) == hash(same)
        assert plain != ChainRanks((1, 0, 0, 0), CYCLIC)
        assert plain != ChainRanks((1, 0, 0, 0), conjectural=True)
        assert len({plain, same, ChainRanks((0, 1, 0, 0))}) == 2


def _record_types():
    """One instance of each record type, built the way the package builds it,
    with one of its fields."""
    link = SeifertData(((2, 1), (5, -2), (10, -1)))
    cases = [
        (ChainRanks((2, 0, 2, 0), CYCLIC), "r"),
        (torus_complex(3, 5), "conjectural"),
        (two_bridge_generators(5, 3), "entries"),
        (montesinos_link_complex(link, 4), "so3_classes"),
        (montesinos_link_complex(link), "split"),
        (LatticeCounts(k2=2, n1=1, n2=0), "k2"),
        (SeifertData(((2, -1), (3, 1), (3, 1))), "pairs"),
    ]
    return [pytest.param(value, field, id=f"{type(value).__name__}.{field}") for value, field in cases]


class TestRecordTypes:
    @pytest.mark.parametrize("value, field", _record_types())
    def test_immutable(self, value, field):
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = None
        assert getattr(value, field) == before and not hasattr(value, "extra")

    @pytest.mark.parametrize("value, field", _record_types())
    def test_repr_names_the_class(self, value, field):
        assert repr(value).startswith(f"{type(value).__name__}(")
        assert f"{field}={getattr(value, field)!r}" in repr(value)

    def test_keyword_construction_and_defaults(self):
        ranks = ChainRanks((2, 0, 2, 0), CYCLIC)
        link = LinkComplex(so3_classes=1, candidates=(ranks,), split=(1, 0))
        assert (link.warnings, link.notes) == ((), ())
        assert (link.ranks, link.su2_classes, link.total) == (ranks, 2, 4)
        assert LinkComplex(1, (ranks,), None).ranks is None
        counts = LatticeCounts(k2=4, n1=5, n2=2)
        assert (counts.k2, counts.n1, counts.n2) == (4, 5, 2)
        gens = GradedGenerators(entries=(_row(1, 2, "irreducible"),))
        assert gens.warnings == ()
        assert torus_complex(3, 5).conjectural is True
        assert ChainRanks((1, 0, 0, 0)).anchoring == ABSOLUTE

    def test_ranks_stop_at_the_first_unknown_grading(self):
        # the walk returns before it reaches a row it could not place
        gens = GradedGenerators((_row(None, 0, "special"), _row("?", 1, "reducible", 1)))
        assert gens.ranks() is None
        # even a block of no generators at an unknown grading stops it
        assert gens.entries[0]["grading"] is None and gens.entries[0]["multiplicity"] == 0
        gens = GradedGenerators((_row(0, 1, "special"), _row(None, 2, "reducible", 1)))
        assert gens.ranks() is None
        assert sum(e["multiplicity"] for e in gens.entries if e["grading"] is None) == 2
