"""Spectra and characteristic functions of Sturm-Liouville operators with
distributional (delta-type) potentials on a lasso graph, and recovery of the
characteristic functions from spectra alone.

The public names below are loaded from their submodules on first use, so
importing the package (or one submodule, such as the CLI) compiles and runs
only the modules that are used.
"""

import importlib

_EXPORTS = {
    "charfn": ("charfn_for", "weyl"),
    "graph": (
        "EdgeSpec",
        "GraphSpec",
        "PotentialSpec",
        "Problem",
        "ValidatedGraph",
        "delta_potential",
        "graph_from_json",
        "graph_to_json",
        "lasso_graph",
        "parse_rational",
        "validate",
        "zero_potential",
    ),
    "oracle": ("DiscreteOperator", "discretize", "richardson_eigs"),
    "propagate": ("FundamentalSolution", "fundamental_solutions"),
    "reconstruct": ("ReconstructionResult", "compare", "hadamard_reconstruct"),
    "spectrum": (
        "CatalogEntry",
        "SpectrumCatalog",
        "catalog_spectrum",
        "catalog_to_csv",
        "compute_catalog",
        "entries_from_csv",
        "epsilon_diagnostics",
        "find_eigenvalues",
    ),
    "trigpoly": (
        "AsymptoticFrame",
        "TrigPoly",
        "base_zeros",
        "build_frame",
        "expand_free_charfn",
        "frame_to_json",
        "smallest_period",
    ),
}
_SUBMODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _SUBMODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_SUBMODULE_OF})
