"""Goal-oriented wireless resource-block allocation for cyber-physical systems.

Allocates uplink RBs to end devices by the information-utility gain their
data brings to a CPS goal, and evaluates the resulting goal values against
throughput-maximizing baselines across four workloads: robust decision
making, edge learning, federated learning, and consensus ADMM.
"""

from .allocator import (
    Allocation,
    Reports,
    channel_policy,
    exact_knapsack,
    greedy_allocate,
    make_reports,
    suboptimality_ratio,
    utility_policy,
)
from .channel import rb_bits, rb_demand, sample_gains
from .harness import (
    ChannelConfig,
    RoundError,
    RoundMetrics,
    ScenarioConfig,
    emit_metrics,
    load_config,
    run_compare,
    run_scenario,
)
from .workload import Workload, collect_reports, submodular_bound_check

__version__ = "0.1.0"
