"""Surrogate-based toll optimization toolkit.

A regressing-kriging / expected-improvement optimizer and a DIRECT baseline
wired to a synthetic reservoir traffic simulator that plays the role of the
expensive black-box objective.
"""

from .toll import Bounds, TollVector
from .doe import build_initial_plan, lhs, maximin_lhs
from .ga import GAParams, ga_maximize
from .surrogate import (CVRecord, NumericalError, Prediction, RKModel,
                        correlation, fit, fit_fixed, log_likelihood, loo_cv,
                        predict)
from .infill import (AcquisitionContext, acquisition_value, constrained_ei,
                     expected_improvement, prob_feasible, propose_infill,
                     repair_smoothing)
from .direct import HyperRect, direct_minimize, penalized_objective, potentially_optimal
from .simnet import (BatchResult, ConfigError, NetworkConfig, RouteState,
                     SimulationResult, demand_split, desk_preset,
                     deviation_from_spread, envelope_gamma, fit_lower_envelope,
                     generalized_cost, paper_preset, simulate, simulate_batch,
                     spatial_spread)
from .tlp import (OptimizationRun, ProblemSpec, SampleRecord, check_smoothing,
                  constraint_value, convergence_history, objective_value,
                  optimize)

__version__ = "0.1.0"
