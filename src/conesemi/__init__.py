"""Exact order-theoretic invariants of cofinite subsemigroups of integer cones.

The names in ``__all__`` are resolved on first access (PEP 562), so a bare
``import conesemi`` loads no submodule and each use loads only the module
that defines the name.
"""

from importlib import import_module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_HOMES = {
    "ConesemiError": "errors",
    "ExpandDecision": "genexp",
    "GeneratorInput": "genexp",
    "expand": "genexp",
    "is_csemigroup": "genexp",
    "Cone": "geom",
    "RayCoords": "geom",
    "enumerate_cone_points": "geom",
    "lower_set": "geom",
    "weight": "geom",
    "CofiniteNat": "semigroup",
    "CSemigroup": "semigroup",
    "NumericalSemigroup": "semigroup",
    "make_csemigroup": "semigroup",
    "msg_weight_bound": "semigroup",
    "IdemaxialSpec": "construct",
    "frobenius_band": "construct",
    "high_elasticity": "construct",
    "idemaxial": "construct",
    "lower_set_semigroup": "construct",
    "pf_lines_check": "construct",
    "GenusLevel": "wilf",
    "WilfReport": "wilf",
    "WilfSummary": "wilf",
    "enumerate_genus": "wilf",
    "wilf_report": "wilf",
    "wilf_sweep": "wilf",
    "oracle_all_gapsets": "oracle",
    "oracle_member": "oracle",
    "oracle_minimals": "oracle",
    "RenderSpec": "render",
    "plot": "render",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
