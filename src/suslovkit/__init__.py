"""Numerical toolkit for a rigid body carrying an axisymmetric rotor whose
relative spin is suppressed along a fixed body direction.

The reduced dynamics live on angular-velocity space.  This package builds the
reduced vector field from physical parameters, classifies its straight-line
equilibria, decides when a smooth positive stationary density exists, verifies
the explicit piecewise-smooth density when it does, and backs every closed-form
claim with an independent numerical route (finite differences, quadrature of
the divergence along flows, Monte Carlo transport of measure).
"""
from .core import (
    SuslovParams,
    SystemMatrices,
    energy,
    load_params,
    matrices,
    multiplier_zeta,
    validate,
    vector_field,
)
from .equilibria import (
    Classification,
    EquilibriumReport,
    classify,
    equilibrium_directions,
    scale_to_ellipsoid,
    stability_coefficients,
    stability_coefficients_closed_form,
)
from .fields import (
    DensitySpec,
    VectorFieldSpec,
    divergence,
    example1d,
    example2d,
    example2d_density,
    fd_gradient,
    fd_jacobian,
)
from .flow import (
    AttitudeTrajectory,
    CaptureReport,
    IntegrationError,
    Trajectory,
    TransportReport,
    detect_attractor,
    flow_map_with_jacobian,
    integrate,
    integrate_batch,
    liouville_residual,
    measure_transport_check,
    reconstruct,
    sample_ellipsoid,
    simulate,
    suslov_attractor_probe,
)
from .measures import (
    ClassADensityParams,
    classA_measure_exists,
    density_params,
    density_spec,
    divergence_witness,
    exclusion_radius,
    first_integral_F,
    pde_residual,
    plane_defect_sweep,
    positive_c1_measure_exists,
    residual_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "AttitudeTrajectory",
    "CaptureReport",
    "ClassADensityParams",
    "Classification",
    "DensitySpec",
    "EquilibriumReport",
    "IntegrationError",
    "SuslovParams",
    "SystemMatrices",
    "Trajectory",
    "TransportReport",
    "VectorFieldSpec",
    "classA_measure_exists",
    "classify",
    "density_params",
    "density_spec",
    "detect_attractor",
    "divergence",
    "divergence_witness",
    "energy",
    "equilibrium_directions",
    "example1d",
    "example2d",
    "example2d_density",
    "exclusion_radius",
    "fd_gradient",
    "fd_jacobian",
    "first_integral_F",
    "flow_map_with_jacobian",
    "integrate",
    "integrate_batch",
    "liouville_residual",
    "load_params",
    "matrices",
    "measure_transport_check",
    "multiplier_zeta",
    "pde_residual",
    "plane_defect_sweep",
    "positive_c1_measure_exists",
    "reconstruct",
    "residual_sweep",
    "sample_ellipsoid",
    "scale_to_ellipsoid",
    "simulate",
    "stability_coefficients",
    "stability_coefficients_closed_form",
    "suslov_attractor_probe",
    "validate",
    "vector_field",
]
