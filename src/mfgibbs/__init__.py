"""Multifractal analysis of Gibbs measures on self-conformal sets.

Thermodynamic scaling functions, Legendre spectra, distribution
function estimators, and runnable secant-slope experiments for
interval IFS attractors.
"""

from .errors import (BlockSearchError, CapacityError, ConfigError,
                     DomainError, NonConvergenceError, NormalizationError,
                     PrecisionError, ScaleError, SeparatorError, ToolkitError)
from .estimators import (CdfValue, CoarseBin, CoarseSpectrum, DepthPolicy,
                         DistributionFunction, HolderEstimate, Scales,
                         coarse_spectrum, deep_policy, default_scale_base,
                         exact_exponent_at_coded_point,
                         holder_exponent_estimate, measure_ball)
from .holder_lab import (DetrendResult, PerturbationExperiment, SecantSlope,
                         Separator, SlopeProbe, TauBlock,
                         derivative_limit_probe, detrend_exponent_test,
                         find_separator, find_tau_block,
                         ratio_scaling_experiment, secant_slope)
from .ifs_geometry import (AffineMap, IfsSystem, MoebiusMap,
                           cylinder_interval, max_safe_depth, periodic_point,
                           stream_point)
from .spectrum import (LegendreValue, SpectrumCurve, beta_grid, beta_of_q,
                       endpoints, legendre, spectrum_curve,
                       spectrum_predictions)
from .symbolic import PeriodicWord, SymbolStream, Word, enumerate_words
from .thermodynamics import (CohomologyReport, Potential,
                             cohomology_diagnostic, effective_range,
                             normalize, periodic_sums, pressure,
                             pressure_at_level, require_normalized)

__version__ = "0.1.0"
