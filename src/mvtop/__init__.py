"""Exact workbench for finite MV-topological spaces over finite Lukasiewicz chains."""

from .core import (
    Carrier,
    Chain,
    FuzzyFamily,
    FuzzySet,
    PointMap,
    forward_image,
    is_filter,
    is_ideal,
    mv_preimage,
)
from .covers import (
    CoverCertificate,
    ProductSubcover,
    Term,
    eval_term,
    find_additive_subcover,
    has_additive_subcover,
    is_additive_cover,
    is_compact,
    is_cover,
    is_strongly_compact,
    minimal_additive_cover,
    minimal_subcover,
    product_subbasic_subcover,
    term_witness,
)
from .errors import InputError, MVTopologyError, PreconditionError, ResourceLimitError
from .maps import (
    continuity_counterexample,
    is_closed_map,
    is_continuous,
    is_continuous_via_base,
    is_homeomorphism,
    is_open_map,
)
from .product import ProductSpace, product, tupling, verify_universal_property
from .topology import (
    FuzzyPoint,
    MetricInstance,
    Topology,
    base_from_subbase,
    base_witness,
    check_hausdorff,
    clopens,
    closed_sets,
    crisp_discrete,
    generate_from_subbase,
    indiscrete,
    is_base,
    is_hausdorff,
    is_large_subbase,
    is_stone,
    is_subbase,
    is_topology,
    is_zero_dimensional,
    large_subbase_witness,
    metric_ball_family,
    metric_induced,
    open_ball,
)

__version__ = "0.1.0"
