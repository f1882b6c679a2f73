"""CMC sphere and Hopf torus stability theory of the Berger spheres.

Closed-form fundamental data and spectra, Koiso stability classification,
flat-torus spectra, region constants, and isoperimetric profiles.
"""

from .ambient import ContractViolation, metric_eval, total_volume
from .cmc_spheres import (EmbeddingVerdict, MeridianProfile, SphereFundamentalData,
                          area_sphere, classify_embedding, fundamental_data, gauss_curvature,
                          integrability_residual, is_embedded, reconstruct_meridian,
                          turning_angle)
from .isoperimetry import (IsoperimetricProfile, clifford_vs_minimal_sphere,
                           crossing_alpha, isoperimetric_candidate, sphere_profile,
                           torus_profile)
from .regions import (F_nonnegative, alpha_root, critical_constants, poly_eval,
                      stability_integrand)
from .stability import (SpectrumResult, StabilityVerdict, alpha0, classify_sphere,
                        jacobi_potential_flat, jacobi_spectrum, koiso_integral,
                        koiso_solution, sphere_stability_boundary)
from .tori import (TorusData, classify_torus, lambda1_closed_form, torus_area_volume,
                   torus_data, torus_spectrum)

__version__ = "0.1.0"

__all__ = [
    "ContractViolation", "metric_eval", "total_volume",
    "EmbeddingVerdict", "MeridianProfile", "SphereFundamentalData", "area_sphere",
    "classify_embedding", "fundamental_data", "gauss_curvature", "integrability_residual",
    "is_embedded", "reconstruct_meridian", "turning_angle",
    "IsoperimetricProfile", "clifford_vs_minimal_sphere", "crossing_alpha",
    "isoperimetric_candidate", "sphere_profile", "torus_profile",
    "F_nonnegative", "alpha_root", "critical_constants", "poly_eval",
    "stability_integrand",
    "SpectrumResult", "StabilityVerdict", "alpha0", "classify_sphere",
    "jacobi_potential_flat", "jacobi_spectrum", "koiso_integral", "koiso_solution",
    "sphere_stability_boundary",
    "TorusData", "classify_torus", "lambda1_closed_form", "torus_area_volume",
    "torus_data", "torus_spectrum",
    "__version__",
]
