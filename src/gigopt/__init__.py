"""Profit-optimal reward distributions for markets of departing workers.

The package is layered: market holds the model primitives, fluid the
relaxation solvers, sim the stochastic validator, policies the time-varying
policy engine, noisy the noisy-entry analytics, and experiments/cli the
reproduction harness.
"""

from .market import (
    DegenerateSupply,
    EpsNoisy,
    ExpFloor,
    FluidOutcome,
    Linear,
    LinearRev,
    Log,
    MarketInstance,
    Newsvendor,
    Power,
    Quadratic,
    RewardDistribution,
    RewardSet,
    Tabulated,
    WorkerType,
    expected_departure,
    expected_reward,
    fluid_profit,
    fluid_supply,
    instance_from_dict,
    instance_to_dict,
    load_instance,
)
from .fluid import (
    BudgetedInstance,
    Dispersion,
    InfeasibleInput,
    InvalidMoments,
    TooLarge,
    UnsupportedSupport,
    brute_force_oracle,
    classify_dispersion,
    lottery_distribution,
    lottery_for_instance,
    objective_lipschitz,
    optimal_fixed_wage,
    solve_fluid,
    solve_fluid_many,
    solve_supply_opt,
    support_reduce,
)
from .policies import (
    BeliefBased,
    BeliefOutcome,
    Cyclic,
    FairnessReport,
    NonMixing,
    PreconditionViolated,
    Static,
    belief_based_policy,
    cyclic_profit,
    cyclic_steady_state,
    cyclic_to_static_report,
    experienced_distribution,
    fairness_audit,
    fluid_trajectory,
    turnover_profit,
)
from .sim import (
    ConfigError,
    LossRow,
    SimConfig,
    SimResult,
    SimTrace,
    additive_loss_sweep,
    default_burn_in,
    occupancy_samples,
    simulate,
)
from .noisy import (
    AssumptionViolated,
    CrossoverReport,
    GridMismatch,
    InvalidRegime,
    MetricCurve,
    NoisyInstance,
    NoisySolution,
    detect_double_threshold,
    market_instance,
    marginal_surplus,
    newsvendor_optimal,
    noisy_metrics,
    optimal_noisy,
    surplus_curve,
)
from .experiments import (
    EXPERIMENT_IDS,
    ExperimentSpec,
    UnknownExperiment,
    normal_policy,
    run_experiment,
    canonical_instance,
)

__version__ = "0.1.0"
