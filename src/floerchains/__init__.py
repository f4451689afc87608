"""Exact-arithmetic chain data of singular instanton complexes.

Computes generators, absolute and relative mod-4 gradings, and rank
vectors of the instanton chain complexes of knots and two-component links
whose double branched covers are lens spaces or Seifert-fibered manifolds.
"""

from .arith import mod_inverse
from .complexes import (
    ChainRanks,
    GradedGenerators,
    LinkComplex,
    euler_characteristic,
    montesinos_knot_complex,
    montesinos_link_complex,
    special_montesinos_complex,
    torus_complex,
    two_bridge_generators,
)
from .covers import (
    SeifertData,
    branched_cover_h1,
    casson_from_alexander,
    seifert_h1_order,
)
from .lens import index_plus_one, lattice_counts
from .seifert import casson, enumerate_projective
from .signatures import torus_signature, two_bridge_signature

__version__ = "0.1.0"

__all__ = [
    "ChainRanks",
    "GradedGenerators",
    "LinkComplex",
    "SeifertData",
    "branched_cover_h1",
    "casson",
    "casson_from_alexander",
    "enumerate_projective",
    "euler_characteristic",
    "index_plus_one",
    "lattice_counts",
    "mod_inverse",
    "montesinos_knot_complex",
    "montesinos_link_complex",
    "seifert_h1_order",
    "special_montesinos_complex",
    "torus_complex",
    "torus_signature",
    "two_bridge_generators",
    "two_bridge_signature",
]
