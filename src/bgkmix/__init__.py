"""Two-species BGK / ES-BGK gas-mixture toolkit.

Discrete-velocity relaxation solver plus closed-form calculators for the
mixture's interpolation parameters, hydrodynamic-expansion constants and
relaxation rates.
"""

from .errors import (CflError, ConfigError, DegenerateDensityError,
                     InadmissibleTargetError, InsufficientWindowError,
                     MissingKeyError, NoConvergenceError, NotSpdError,
                     SingularPrefactorError, UnknownVariantError,
                     ValidationFailureError)
from .grid import (MomentSet, SpdTensor, VelocityGrid, gaussian_on_grid,
                   h_functional, match_gaussian, match_moments,
                   maxwellian_on_grid, moments, spd_factor)
from .params import (DimensionlessScales, EsParams, InteractionSpec,
                     MixingParams, ModelParams, SpeciesSpec, Variant,
                     delta_interval, derive_frequencies,
                     dimensionless_scales, gamma_upper_bound, validate)
from .solver import (Diagnostics, KineticState, Scenario, SpeciesInit,
                     relax_step, run_scenario, transport_step)
from .targets import (MixtureState, build_targets, es_tensor_cross,
                      es_tensor_self, mixture_temperatures,
                      mixture_velocities, target_moments, weighted_targets)

__version__ = "0.1.0"
