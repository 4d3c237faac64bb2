"""Constituent-based energy accounting toolkit for wireless sensor networks.

Simulate a sensor network slice by slice, account every charge to one of
five task constituents, fit a linear joules-per-packet model from the
trace, predict slice energies, and schedule tasks under a battery budget.
"""

from . import traceio
from .config import ConfigError, ScenarioConfig, SweepConfig, load_config, sample_config
from .energy_core import (
    CONSTITUENT_ORDER,
    CoefficientVector,
    Constituent,
    ConstituentFlowVector,
    ConstituentResourceMix,
    ResourcePowerProfile,
    ResourceUsageVector,
    constituent_alpha,
    overall_energy,
    task_energy,
)
from .estimation import (
    ErrorReport,
    FitResult,
    ObservationSet,
    RankDeficientError,
    error_report,
    fit_ls,
    rolling_fit,
)
from .flow_models import (
    BoundaryError,
    FlowSingularityError,
    GlobalParams,
    IndividualParams,
    LocalParams,
    ProbabilityModelConfig,
    environment_flow,
    global_flow,
    individual_flow,
    local_flow,
    sink_flow,
)
from .policy import BudgetProblem, ScheduleResult, TaskDescriptor, check_constraints, select_tasks, task_cost
from .radio import RadioModelParams, relay_threshold, rx_energy_per_bit, tx_energy_per_bit
from .simulator import (
    PacketKind,
    Phase,
    RunResult,
    SliceRecord,
    build_topology,
    run,
)

__version__ = "0.1.0"
