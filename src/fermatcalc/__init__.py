"""Exact computer algebra for Hodge classes on Fermat hypersurfaces."""

from fermatcalc.exactnum import (
    CyclotomicNumber,
    root_of_unity,
    unit_circle_check,
    zeta,
)
from fermatcalc.idealcalc import (
    ColonIdeal,
    DegreeSlice,
    FermatContext,
    HilbertProfile,
    buchberger,
    reduce_mod_jacobian,
)
from fermatcalc.multipoly import (
    MonomialOrder,
    Polynomial,
    divide,
    geometric_factor,
    leading_term,
    lex_order,
    pair_leader_order,
)

__version__ = "0.1.0"

__all__ = [
    "CyclotomicNumber",
    "root_of_unity",
    "unit_circle_check",
    "zeta",
    "ColonIdeal",
    "DegreeSlice",
    "FermatContext",
    "HilbertProfile",
    "buchberger",
    "reduce_mod_jacobian",
    "MonomialOrder",
    "Polynomial",
    "divide",
    "geometric_factor",
    "leading_term",
    "lex_order",
    "pair_leader_order",
    "__version__",
]
