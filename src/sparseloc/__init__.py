"""Sparse/surface random Schrodinger operators: simulation, certification, probes.

The package splits into five functional layers:

- :mod:`sparseloc.geometry`   compact sets, shell measures, surface area,
  total decompositions;
- :mod:`sparseloc.models`     scatterer configurations, coupling laws,
  random potentials, assumption validation;
- :mod:`sparseloc.certify`    eps-free annulus search, shell constructions,
  summability certificates;
- :mod:`sparseloc.stochastic` Monte Carlo estimates against exact
  enumeration oracles, failure-probability bounds;
- :mod:`sparseloc.spectral`   finite-difference operators, localization
  diagnostics, resolvent decay;

plus :mod:`sparseloc.cli`, the config-driven experiment runner.
"""

__version__ = "0.1.0"

from .certify import (
    DecompositionCertificate,
    FreeAnnulusRecord,
    build_decomposition_quasi1d,
    build_decomposition_sparse,
    build_shell_sequence_pp,
    certify_ac,
    certify_pp,
    certify_series,
    difference_support,
    find_free_subannulus,
    is_epsilon_free,
    truncate_couplings,
)
from .geometry import (
    RegionSet,
    TotalDecomposition,
    distance_between,
    generalized_surface_area,
    make_annulus,
    shell_measure,
    sphere_shell_decomposition,
    spherical_cap,
)
from .models import (
    AssumptionReport,
    BackgroundPotential,
    CouplingLaw,
    CouplingMap,
    LawAssignment,
    RandomPotentialModel,
    SingleSitePotential,
    SiteSet,
    evaluate_potential,
    model_from_dict,
    p_epsilon,
    quasi_dimension_bound,
    sample_couplings,
    second_moment_profile,
    validate_assumptions,
)
from .spectral import (
    GridOperator,
    LocalizationReport,
    decay_rate_fit,
    discretize,
    eigenpairs,
    ipr,
    localization_report,
    resolvent_decay,
    spectrum_gaps,
)
from .stochastic import (
    ANSeriesReport,
    EstimateRecord,
    a_n_bound,
    borel_cantelli_report,
    brute_force_a_n,
    estimate_a_n,
    estimate_free_probability,
    quasi1d_threshold,
)

__all__ = [
    "__version__",
    "RegionSet",
    "TotalDecomposition",
    "make_annulus",
    "spherical_cap",
    "sphere_shell_decomposition",
    "distance_between",
    "shell_measure",
    "generalized_surface_area",
    "SiteSet",
    "CouplingLaw",
    "LawAssignment",
    "SingleSitePotential",
    "BackgroundPotential",
    "RandomPotentialModel",
    "CouplingMap",
    "AssumptionReport",
    "p_epsilon",
    "sample_couplings",
    "evaluate_potential",
    "second_moment_profile",
    "quasi_dimension_bound",
    "validate_assumptions",
    "model_from_dict",
    "FreeAnnulusRecord",
    "DecompositionCertificate",
    "is_epsilon_free",
    "find_free_subannulus",
    "truncate_couplings",
    "difference_support",
    "build_decomposition_sparse",
    "build_shell_sequence_pp",
    "build_decomposition_quasi1d",
    "certify_ac",
    "certify_pp",
    "certify_series",
    "EstimateRecord",
    "ANSeriesReport",
    "estimate_free_probability",
    "estimate_a_n",
    "brute_force_a_n",
    "a_n_bound",
    "quasi1d_threshold",
    "borel_cantelli_report",
    "GridOperator",
    "LocalizationReport",
    "discretize",
    "eigenpairs",
    "spectrum_gaps",
    "ipr",
    "decay_rate_fit",
    "resolvent_decay",
    "localization_report",
]
