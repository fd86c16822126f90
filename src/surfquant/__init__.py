"""Quantum mechanics of a particle confined to a 2D parametric surface.

Surface differential geometry (curvatures, geometric potential), the
geometric momentum operator and its thin-shell derivation, commutator
identity verification, and momentum distributions of spherical harmonics.
"""

from .charts import ParametricChart, from_map, interior_points, make_chart
from .errors import (
    ChartSingularityError,
    PoleProximityError,
    QuadratureTruncationError,
    ShellFoldError,
    SurfquantError,
)
from .fields import (
    ScalarField,
    constant,
    coordinate_field,
    field_library,
    map_field,
    product,
    pullback_field,
    rotation_matrix,
    spherical_harmonic,
    trig_library,
)
from .geometry import (
    GeometryFrame,
    ShellFrame,
    evaluate_frame,
    geometric_potential,
    laplace_beltrami,
    shell_frame,
)
from .operators import (
    ConfinedGradient,
    apply_geometric_momentum,
    commutator_position_kinetic,
    confinement_slope,
    flat_profile,
    gaussian_profile,
    hermiticity_defects,
    rotation_relation_check,
    thin_shell,
)
from .spectra import (
    UncertaintyReport,
    amplitude_closed,
    amplitude_quadrature,
    amplitude_recurrence,
    amplitude_surface_overlap,
    distribution_amplitudes,
    eigenfunction_field,
    legendre_p,
    moments,
    overlap_kernel,
    parseval_check,
    psi,
    sho_comparison,
    uncertainty_report,
)
from .verification import VerificationReport, VerifyOptions, run_verification

__version__ = "0.1.0"
