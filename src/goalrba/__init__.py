"""Goal-oriented wireless resource-block allocation for cyber-physical systems.

Allocates uplink RBs to end devices by the information-utility gain their
data brings to a CPS goal, and evaluates the resulting goal values against
throughput-maximizing baselines across four workloads: robust decision
making, edge learning, federated learning, and consensus ADMM.

Importing goalrba pins BLAS to one thread: it sets OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS to "1", overwriting any value, before
any goalrba module loads numpy. The last digits of some results depend on
the thread count, so this keeps a (config, seed) at the same bytes on any
core count. BLAS reads the variables once, when numpy loads: a process that
loaded numpy before goalrba keeps its own thread count.
"""

import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

__version__ = "0.1.0"
