"""Vacuum stress and bulk Casimir energy of a massless scalar field in an
isotropic harmonic trap, from local zeta regularization.

Everything is a function of the dimensionless radius r = k|x| and the
dimension d in {1, 2, 3}; energies come out per unit of the trap scale k.
"""

__version__ = "0.1.0"

from .asymptotics import (SeriesExpansion, VChartFamily,
                          asymptotic_match_report, large_r_expansion,
                          small_r_expansion)
from .continuation import (build_P_polynomials, minimal_derivative_count,
                           renorm_scale_constant, weight_exponent)
from .energy import (EnergyResult, In_quadrature, In_zeta,
                     boundary_energy_scan, bulk_energy_quadrature,
                     bulk_energy_zeta, spectral_trace_oracle)
from .kernels import (COMPONENTS, XI_SLOPE, HarmonicConfig, heat_trace,
                      mehler_kernel_1d, xi_conformal)
from .quadrature import QuadratureError, integrate_semiaxis
from .specfun import (EULER_GAMMA, digamma, g_log_gamma, gamma, hurwitz_zeta,
                      lower_gamma, riemann_zeta, upper_gamma)
from .stress import (StressValue, conformal_split, stress_component,
                     stress_profiles)
