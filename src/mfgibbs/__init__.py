"""Multifractal analysis of Gibbs measures on self-conformal sets.

Thermodynamic scaling functions, Legendre spectra, distribution
function estimators, and runnable secant-slope experiments for
interval IFS attractors.
"""

from .errors import (BlockSearchError, BracketError, CapacityError,
                     ConfigError, DomainError, GridEdgeError,
                     NonConvergenceError, NormalizationError, PrecisionError,
                     ScaleError, SeparatorError, ToolkitError)
from .estimators import (CdfValue, CoarseBin, CoarseSpectrum, DepthPolicy,
                         DistributionFunction, HolderEstimate, Scales,
                         coarse_spectrum, deep_policy, default_scale_base,
                         exact_exponent_at_coded_point,
                         holder_exponent_estimate, measure_ball)
from .holder_lab import (DetrendResult, PerturbationExperiment, SecantSlope,
                         Separator, SlopeProbe, TauBlock, admissible_depths,
                         derivative_limit_probe, detrend_exponent_test,
                         find_separator, find_tau_block, perturbed_cylinder,
                         ratio_scaling_experiment, secant_slope)
from .ifs_geometry import (AffineMap, IfsSystem, MoebiusMap, check_osc,
                           coding_point, cylinder_interval, max_safe_depth,
                           periodic_point, stream_point)
from .spectrum import (LegendreValue, PredictedPoint, SpectrumCurve,
                       SpectrumSample, alpha_of_q, beta_of_q, endpoints,
                       hausdorff_spectrum_prediction, legendre,
                       packing_spectrum_prediction, spectrum_curve)
from .symbolic import PeriodicWord, SymbolStream, Word, enumerate_words
from .thermodynamics import (CohomologyReport, GibbsWeights, Potential,
                             cohomology_diagnostic, effective_range,
                             gibbs_cylinder_weights, normalize, periodic_sums,
                             pressure, pressure_at_level)

__version__ = "0.1.0"
