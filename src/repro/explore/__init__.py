"""Design-space exploration (DSE) over the RSN-XNN reproduction.

The paper's evaluation reports fixed points in a huge hardware/mapping
design space -- tiling choices, attention mappings, off-chip bandwidth,
scratchpad depth, MME count.  This package *searches* that space:

* :mod:`repro.explore.space` -- declarative spaces (axes + constraints +
  fidelities) whose points materialise into cacheable scenarios;
* :mod:`repro.explore.spaces` -- the named space catalogue;
* :mod:`repro.explore.strategies` -- exhaustive grid, random sampling, and
  multi-fidelity successive halving;
* :mod:`repro.explore.explore` -- the two-phase driver: search on the
  analytic fast-model proxy (whole generations as cached chunk jobs across
  the executor), then certify the Pareto frontier on the cycle-level engine
  and report proxy-vs-verified rank agreement.

CLI: ``python -m repro.runner explore --strategy halving --budget 200``.
"""

from .explore import (
    COST_OBJECTIVES,
    DEFAULT_OBJECTIVES,
    PIPELINE_THROUGHPUT_OBJECTIVE,
    ExplorationReport,
    FrontierPoint,
    Objective,
    VerifiedPoint,
    objectives_for,
    run_exploration,
    validate_weights,
)
from .space import Axis, Constraint, DesignPoint, DesignSpace
from .spaces import SPACES, get_space, space_names
from .strategies import (
    STRATEGIES,
    Candidate,
    GridSearch,
    RandomSearch,
    SearchStrategy,
    SuccessiveHalving,
    get_strategy,
    strategy_names,
)

__all__ = [
    "Axis",
    "COST_OBJECTIVES",
    "Candidate",
    "Constraint",
    "DEFAULT_OBJECTIVES",
    "DesignPoint",
    "DesignSpace",
    "ExplorationReport",
    "FrontierPoint",
    "GridSearch",
    "Objective",
    "PIPELINE_THROUGHPUT_OBJECTIVE",
    "RandomSearch",
    "SPACES",
    "STRATEGIES",
    "SearchStrategy",
    "SuccessiveHalving",
    "VerifiedPoint",
    "get_space",
    "get_strategy",
    "objectives_for",
    "run_exploration",
    "space_names",
    "strategy_names",
    "validate_weights",
]
