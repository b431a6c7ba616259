"""Exact fixed-point analysis for IA-endomorphisms of free metabelian groups."""

from .braid import (
    BraidWord,
    alexander_vanishes,
    braid_automorphism,
    gassner,
    gassner_reduced,
    parse_braid,
)
from .endo import Endomorphism, inner_automorphism, parse_endomorphism
from .fixpoint import (
    FixReport,
    fixed_point_in_commutator,
    is_fixed,
    search_fixed,
)
from .fox import j_minus_i, jacobian
from .laurent import LaurentPoly, parse_poly, poly_to_text
from .magnus import MagnusElement, is_trivial, realize_coords
from .matrices import LaurentMatrix, cramer_solve
from .words import Word, WordError, parse_word, word_to_text

__all__ = [
    "BraidWord",
    "Endomorphism",
    "FixReport",
    "LaurentMatrix",
    "LaurentPoly",
    "MagnusElement",
    "Word",
    "WordError",
    "alexander_vanishes",
    "braid_automorphism",
    "cramer_solve",
    "fixed_point_in_commutator",
    "gassner",
    "gassner_reduced",
    "inner_automorphism",
    "is_fixed",
    "is_trivial",
    "j_minus_i",
    "jacobian",
    "parse_braid",
    "parse_endomorphism",
    "parse_poly",
    "parse_word",
    "poly_to_text",
    "realize_coords",
    "search_fixed",
    "word_to_text",
]

__version__ = "0.1.0"
