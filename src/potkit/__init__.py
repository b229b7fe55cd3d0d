"""Desk-scale toolkit for Riesz and Wolff potentials, capacities,
thin-set diagnostics, measure-data p-Laplace solves, and the eigenvalue
cones attached to fully nonlinear curvature operators."""

from .capacity import (BallDomain, BoxDomain, CapacityEstimate, ShellDomain,
                       SmallBallModel, annulus_term,
                       calibrate_small_ball_ratio, condenser_capacity,
                       p_capacity, riesz_capacity)
from .cones import (BridgeReport, Cone, InclusionReport,
                    fully_nonlinear_bridge, inclusion_check, p_gamma,
                    sigma_values)
from .density import (DensityProfile, box_counting_dimension,
                      covering_counts, geometric_ladder, upper_density)
from .errors import (DegenerateConeError, HypothesisViolation, PotkitError,
                     RepresentationError, ResolutionError, SceneError)
from .fitting import (ApproachPath, DecayReport, LimitFit, LimitReport,
                      TailFit, blowup_exponent, fit_limit, fit_log_limit,
                      fit_tail, loglog_slope)
from .geometry import ball_volume, kappa_exponent, sphere_area
from .grid import EvaluationGrid
from .measures import (AtomicMeasure, AtomPlusPowerProfile, GridMeasure,
                       Measure, PowerLawProfile, RadialProfileMeasure,
                       SumMeasure, lebesgue_ball_measure,
                       normalized_sphere_shell, uniform_ball_measure)
from .plaplace import (EnvelopeReport, FundamentalSolution, PSolution,
                       envelope_band, envelope_check, flux_normalization,
                       fundamental_coefficient, solve_p_dirichlet,
                       super_asymptotic_report)
from .riesz import (RieszParams, riesz_asymptotic_report, riesz_decay_check,
                    riesz_potential)
from .scene import Scene, load_scene, parse_scene
from .sets import (BallUnion, BoxUnion, Cusp, ParametricSet, PointList,
                   RestrictedSet, Sphere, cantor_dust, segment_set,
                   sphere_directions)
from .thinness import (ThinnessReport, ball_sequence_terms,
                       classify_thinness, escaping_ray, wiener_terms)
from .verify import (CHECK_NAMES, CheckResult, Metric, VerifyReport,
                     render_artifacts, run_all, run_check)
from .wolff import (WitnessReport, WolffParams, thin_witness_blowup,
                    wolff_asymptotic_report, wolff_decay_check,
                    wolff_potential)

__version__ = "0.1.0"
