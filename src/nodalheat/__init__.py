"""nodalheat: a desk-scale heat-flow and Brownian-motion laboratory for the
nodal geometry of planar Laplacian eigenfunctions.

The package measures, with explicit constants and error bars, the behavior of
boundary-hitting probabilities p_t(x), heat content, killed heat semigroups
and Brownian exit laws on nodal domains of analytic eigenfunction models.
"""

from .errors import (
    EmptyDomainError,
    InvalidParameterError,
    ResolutionWarning,
    SolverError,
    UnknownLabelError,
)
from .fields import (
    EigenfunctionModel,
    NormBundle,
    domain_norms,
    make_cone_model,
    make_disk_eigenfunction,
    make_rectangle_eigenfunction,
    make_torus_eigenfunction,
)
from .nodal import (
    DomainMask,
    GridSpec,
    NodalSet,
    ScalarField,
    boundary_length,
    domain_inradius,
    extract_nodal_set,
    grid_for_model,
    indicator_field,
    label_nodal_domains,
    sample_field,
)
from .heat import (
    HeatContentCurve,
    SurvivalField,
    dirichlet_semigroup_field,
    heat_content,
    heat_content_curve,
    solve_hitting_field,
)
from .stochastic import (
    ConeSpec,
    McEstimate,
    PathEnsembleConfig,
    cone_exit_exact,
    cone_exit_mc,
    escape_interval_mc,
    estimate_hitting_probability,
    feynman_kac_dirichlet,
    halfplane_hitting_exact,
    interval_escape_exact,
    sup_hitting_check,
    xi_evolution,
)

__version__ = "0.1.0"
