"""Spectra and characteristic functions of Sturm-Liouville operators with
distributional (delta-type) potentials on a lasso graph, and recovery of the
characteristic functions from spectra alone."""

from .charfn import charfn_for, weyl
from .graph import (
    EdgeSpec,
    GraphSpec,
    PotentialSpec,
    Problem,
    ValidatedGraph,
    delta_potential,
    graph_from_json,
    graph_to_json,
    lasso_graph,
    parse_rational,
    validate,
    zero_potential,
)
from .oracle import DiscreteOperator, discretize, richardson_eigs
from .propagate import FundamentalSolution, fundamental_solutions
from .reconstruct import (
    ReconstructionResult,
    compare,
    hadamard_reconstruct,
)
from .spectrum import (
    CatalogEntry,
    SpectrumCatalog,
    catalog_spectrum,
    catalog_to_csv,
    compute_catalog,
    entries_from_csv,
    epsilon_diagnostics,
    find_eigenvalues,
    negative_eigenvalues,
)
from .trigpoly import (
    AsymptoticFrame,
    TrigPoly,
    base_zeros,
    build_frame,
    expand_free_charfn,
    frame_to_json,
    smallest_period,
)

__version__ = "0.1.0"
