"""Closed forms against their oracles on generated inputs.

Every test is derandomized, so a run checks the same examples each time.
"""

import math

from hypothesis import given, settings, strategies as st

from floerchains.arith import floor_sum, mod_inverse
from floerchains.lens import index_plus_one, lattice_counts
from floerchains.signatures import two_bridge_signature

from oracles import goeritz_signature, walk_counts

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


@derandomized
@given(
    st.integers(0, 300),
    st.integers(1, 10**6),
    st.integers(-(10**9), 10**9),
    st.integers(-(10**9), 10**9),
)
def test_floor_sum_matches_brute_force(n, m, a, b):
    assert floor_sum(n, m, a, b) == sum((a * t + b) // m for t in range(n))
