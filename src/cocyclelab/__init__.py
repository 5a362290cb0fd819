"""Vector cocycles over ergodic systems: trajectories, induced maps,
limit directions, the running-minimum scheme, and cone-sojourn statistics,
with a Brownian oracle for the diffusive comparisons."""

from .errors import (CapExceeded, CocycleLabError, ConfigInvalid,
                     MismatchError, NotInvertible)
from .systems import (SystemSpec, SystemState, cat_map, doubling, iid_shift,
                      orbit_span, parse_system, rotation, sample_initial,
                      state_at, step, step_back)
from .observables import (ObservableSpec, centered_indicator, coboundary_of,
                          iid_increment, parse_observable)
from .engine import (CocycleTrace, cocycle_identity_check, ergodic_sums,
                     evaluate_at, reverse_sums)
from .induce import (InducedTrace, SetSpec, cylinder_positive, first_entry,
                     induced_trace, interval, kac_statistic, parse_set, rect,
                     return_time)
from .cones import (AngularCone, BallWindow, Complement, Cone, HalfSpace,
                    Orthant, parse_cone)
from .directions import (DirectionEstimate, DirectionHistogram, SphereMesh,
                         antipodal_closure, default_m_ladder, direction_scan,
                         direction_set_estimate, hist_from_trace,
                         hist_from_values, make_mesh, recurrence_diagnostic)
from .filling import (MinProcess, classify_oscillation, classify_series,
                      kesten_rate, min_process)
from .sojourn import (SojournSeries, ball_visit_frequency, dyadic_grid,
                      sojourn_series, tau, tau_discrete)
from .brownian import (arcsine_cdf, arcsine_ks, positivity_check,
                       scale_invariance_check, tau_samples, wilson_interval)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded", "CocycleLabError", "ConfigInvalid", "MismatchError",
    "NotInvertible",
    "SystemSpec", "SystemState", "cat_map", "doubling", "iid_shift",
    "orbit_span", "parse_system", "rotation", "sample_initial", "state_at",
    "step", "step_back",
    "ObservableSpec", "centered_indicator", "coboundary_of",
    "iid_increment", "parse_observable",
    "CocycleTrace", "cocycle_identity_check", "ergodic_sums", "evaluate_at",
    "reverse_sums",
    "InducedTrace", "SetSpec", "cylinder_positive", "first_entry",
    "induced_trace", "interval", "kac_statistic", "parse_set", "rect",
    "return_time",
    "AngularCone", "BallWindow", "Complement", "Cone", "HalfSpace", "Orthant",
    "parse_cone",
    "DirectionEstimate", "DirectionHistogram", "SphereMesh",
    "antipodal_closure", "default_m_ladder", "direction_scan",
    "direction_set_estimate", "hist_from_trace", "hist_from_values",
    "make_mesh", "recurrence_diagnostic",
    "MinProcess", "classify_oscillation", "classify_series", "kesten_rate",
    "min_process",
    "SojournSeries", "ball_visit_frequency", "dyadic_grid", "sojourn_series",
    "tau", "tau_discrete",
    "arcsine_cdf", "arcsine_ks", "positivity_check", "scale_invariance_check",
    "tau_samples", "wilson_interval",
    "__version__",
]
