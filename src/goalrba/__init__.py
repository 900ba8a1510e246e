"""Goal-oriented wireless resource-block allocation for cyber-physical systems.

Allocates uplink RBs to end devices by the information-utility gain their
data brings to a CPS goal, and evaluates the resulting goal values against
throughput-maximizing baselines across four workloads: robust decision
making, edge learning, federated learning, and consensus ADMM.
"""

__version__ = "0.1.0"
