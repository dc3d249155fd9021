"""Exact workbench for finite MV-topological spaces over finite Lukasiewicz chains.

The package exports its names lazily (PEP 562): a name's module is imported on
first access, so a command loads only the modules it runs, and nothing is bound
at import.  `mvtop.product` is the submodule; its `product` function is the one
builder of a `ProductSpace`.
"""

import importlib

# each exported name's module
_EXPORTS = {
    name: module
    for module, names in (
        ("core", "Carrier Chain FuzzyFamily FuzzySet PointMap mv_preimage"),
        (
            "covers",
            "CoverCertificate ProductSubcover find_additive_subcover is_additive_cover"
            " product_subbasic_subcover",
        ),
        ("errors", "InputError MVTopologyError PreconditionError ResourceLimitError"),
        (
            "maps",
            "continuity_counterexample forward_image is_closed_map is_continuous is_continuous_via_base"
            " is_filter is_homeomorphism is_ideal is_open_map",
        ),
        ("metric", "FuzzyPoint MetricInstance metric_ball_family metric_induced open_ball"),
        ("product", "ProductSpace tupling verify_universal_property"),
        ("terms", "Term eval_term term_witness"),
        (
            "topology",
            "Topology base_from_subbase base_witness check_hausdorff clopens closed_sets crisp_discrete"
            " generate_from_subbase has_additive_subcover indiscrete is_base is_compact is_cover is_hausdorff"
            " is_large_subbase is_stone is_strongly_compact is_subbase is_topology is_zero_dimensional"
            " large_subbase_witness",
        ),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
