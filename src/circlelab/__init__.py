"""circlelab: a numerical laboratory for circle-diffeomorphism linearization.

Library layout:

* ``contfrac``   -- exact continued fractions (finite / periodic / generated)
* ``arithmetic`` -- Diophantine, Brjuno, and linearization-condition verdicts
* ``circlemap``  -- analytic circle-map lifts and their calculus
* ``rotation``   -- rotation-number estimators and family tuning
* ``kam``        -- homological solves, the Newton iteration on the
                    conjugacy equation, averaged conjugacies
* ``geometry``   -- dynamical partitions, distortion inequalities, bootstrap
* ``cli``        -- batch experiment runner

Everything operates on immutable values with pure functions; all typed
failure modes live in ``errors``.
"""

from . import errors
from .arithmetic import (ArithmeticVerdict, ClassifyConfig, brjuno_function,
                         brjuno_interval, brjuno_sum, classify,
                         condition_h_check, diophantine_estimate, r_alpha)
from .circlemap import (AnalyticCircleMap, ArnoldFamily, AffineShiftFamily,
                        derivative, evaluate, inverse, iterate,
                        log_derivative_variation, map_from_json, orbit_lift,
                        orbit_log_derivative)
from .contfrac import ContinuedFraction, Convergent, cf_expand, convergents
from .geometry import (GeometryReport, PartitionLevel, beta_recursion_check,
                       bootstrap_schedule, build_partition, c1_criterion,
                       denjoy_checks, derivative_growth_check,
                       geometry_report, koksma_check, pq_chain)
from .kam import (HermanResult, KamConfig, KamResult, KamTrace,
                  herman_average, kam_iterate, kam_step,
                  linearization_defect, solve_homological)
from .rotation import (ClosestReturn, RotationEstimate, closest_return_batch,
                       closest_returns, eq_rot_check, rho_interval,
                       rotation_number_birkhoff,
                       rotation_number_closest_return, tune_parameter)

__all__ = [
    "errors",
    # continued fractions
    "ContinuedFraction", "Convergent", "cf_expand", "convergents",
    # arithmetic verdicts
    "ArithmeticVerdict", "ClassifyConfig", "brjuno_function",
    "brjuno_interval", "brjuno_sum", "classify", "condition_h_check",
    "diophantine_estimate", "r_alpha",
    # maps and calculus
    "AnalyticCircleMap", "ArnoldFamily", "AffineShiftFamily", "derivative",
    "evaluate", "inverse", "iterate", "log_derivative_variation",
    "map_from_json", "orbit_lift", "orbit_log_derivative",
    # rotation numbers
    "ClosestReturn", "RotationEstimate", "closest_return_batch",
    "closest_returns", "eq_rot_check",
    "rho_interval", "rotation_number_birkhoff",
    "rotation_number_closest_return", "tune_parameter",
    # linearization scheme
    "HermanResult", "KamConfig", "KamResult", "KamTrace", "herman_average",
    "kam_iterate", "kam_step", "linearization_defect", "solve_homological",
    # partition geometry
    "GeometryReport", "PartitionLevel", "beta_recursion_check",
    "bootstrap_schedule", "build_partition", "c1_criterion", "denjoy_checks",
    "derivative_growth_check", "geometry_report", "koksma_check", "pq_chain",
]

__version__ = "0.1.0"
