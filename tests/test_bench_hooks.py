"""The names the benchmark in perfbench/ hooks into must exist in goalrba.

The tracer and the allocation probe patch module attributes by name and read
workload attributes with a default, so a renamed or removed name does not
fail there: a span goes missing, a probe makes every timed run incorrect, or
a counter silently reads 0. These checks load the benchmark's modules by
file path and fail on such a name instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from goalrba import harness
from goalrba.allocator import make_reports
from goalrba.decision import DemandResponseWorkload, DrParams
from goalrba.learning import EdgeLearningParams, EdgeLearningWorkload
from goalrba.workload import collect_reports

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_bench_module(name):
    """The perfbench module ``name``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


tracing = load_bench_module("tracing")
workloads = load_bench_module("workloads")


@pytest.mark.parametrize("module_name, owner_path, attr, layer", tracing.SPANS)
def test_every_traced_span_resolves(module_name, owner_path, attr, layer):
    owner = importlib.import_module(module_name)
    for part in filter(None, owner_path.split(".")):
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr)), layer


@pytest.mark.parametrize("name", workloads.AllocationProbe.NAMES)
def test_every_probed_policy_is_a_harness_attribute(name):
    assert callable(getattr(harness, name))


def test_the_traced_counters_read_workload_attributes():
    dr = DemandResponseWorkload(DrParams(num_eds=6, pi_min=3.0), seed=0)
    assert len(dr.history) > 0
    edge = EdgeLearningWorkload(
        EdgeLearningParams(num_eds=4, num_classes=4, dim=8, hidden_dim=4,
                           train_per_class=10, test_per_class=2, batch_per_round=3,
                           epochs_per_round=1, concentrated_classes=(2, 3)),
        seed=0,
    )
    assert edge.collected == []
    edge.ingest([0, 1])
    assert len(edge.collected) == 6


@pytest.mark.parametrize("ed_id, delta, w", [
    (np.array([4, 0, 9]), np.array([0.5, 0.0, 2.25]), np.array([3, 0, 1])),
    ([4, 0, 9], [0.5, 0, 2.25], [3, 0, 1]),
    (range(3), np.ones(3, dtype=np.float32), (1, 1, 2)),
    (np.arange(12)[::4], np.linspace(0.0, 2.0, 9)[::3], np.arange(6, dtype=np.int32)[::-2]),
    ([], [], []),
], ids=["arrays", "lists", "range", "strided", "empty"])
def test_reports_are_contiguous_columns_equal_to_the_inputs(ed_id, delta, w):
    reports = make_reports(ed_id, delta, w)
    for column, given, dtype in ((reports.ed_id, ed_id, np.int64),
                                 (reports.delta, delta, np.float64),
                                 (reports.w, w, np.int64)):
        assert column.dtype == dtype and column.ndim == 1 and column.flags.c_contiguous
        np.testing.assert_array_equal(column, np.asarray(given))
        # a contiguous input of the column's dtype is the column itself
        shared = (isinstance(given, np.ndarray) and given.flags.c_contiguous
                  and given.dtype == dtype)
        assert (column is given) == shared


def test_the_report_counter_reads_the_delta_of_each_record():
    # Tracer._count_reports iterates the reports and reads `r.delta`, so
    # collect_reports must hand back records with attribute access.
    wl = DemandResponseWorkload(DrParams(num_eds=40, pi_min=20.0), seed=5)
    gains = np.linspace(0.0, 3.0, 40)
    gains[7] = 0.0
    reports = collect_reports(wl, wl.marginal_utilities(), gains, harness.ChannelConfig())
    assert all(isinstance(r.delta, float) and r.w >= 0 for r in reports)
    tracer = tracing.Tracer()
    counted = tracer._count_reports(collect_reports)(wl, wl.marginal_utilities(), gains,
                                                     harness.ChannelConfig())
    assert tracer.counts["workload.reports"] == len(counted) == 38
    assert tracer.counts["workload.unreachable"] == 2
    assert tracer.counts["allocator.candidates"] == np.count_nonzero(reports.delta > 0) > 0
