"""flowrel: an exact finite-semigroup laboratory for the proximal, distal,
almost-periodic, strongly-proximal and weakly-distal relation families,
together with symbolic reconstructions of classical example systems."""

from .finflow import (
    FactorMap,
    FiniteFlow,
    FlowParseError,
    LeftIdeal,
    MonoidTooLarge,
    NotAFactorMap,
    TransMonoid,
    close,
    equivalent_idempotents,
    format_flow,
    ideal_structure,
    induced_theta,
    minimal_left_ideals,
    parse_flow,
)
from .relations import (
    FlowAnalysis,
    NotAnIcer,
    analyze_flow,
    is_equivalence,
    is_minimal_flow,
    product_flow,
    quotient_by_icer,
)
from .proxsets import i_proximal_partition, max_strongly_proximal_sets

from .fuzz import (
    check_factor_theorems,
    check_product_theorems,
    check_unique_ideal_equiv,
)

__version__ = "0.1.0"
