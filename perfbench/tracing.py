"""Per-layer tracing of the goalrba round loop, from outside the package.

Installing the tracer replaces the module attributes through which one layer
calls another (``goalrba.harness.collect_reports``, ``goalrba.workload.rb_bits``,
``EdLocalProblem.smooth_grad`` and so on) with wrappers that time each call.
A layer's self time is its span's duration minus the spans it caused. Spans
are summed per layer and per round in memory and written out when the run
ends, one record per round.

Only the traced processes call ``Tracer.install``; timed runs run the
program unwrapped. ``Tracer.disable`` and ``Tracer.enable`` take the wrappers
out and put them back, so that a traced process can time the same policy run
with and without them.
"""

from __future__ import annotations

import logging
import statistics
import sys
import time
from typing import Dict, List, Tuple

# (module, attribute owner, attribute, layer). The owner is a dotted path
# inside the module ("" for the module itself).
SPANS: Tuple[Tuple[str, str, str, str], ...] = (
    ("goalrba.harness", "", "sample_gains", "channel.sample_gains"),
    ("goalrba.harness", "", "collect_reports", "workload.collect_reports"),
    ("goalrba.workload", "", "rb_bits", "channel.rb"),
    ("goalrba.workload", "", "rb_demand", "channel.rb"),
    ("goalrba.harness", "", "greedy_allocate", "allocator.hybrid"),
    ("goalrba.harness", "", "channel_policy", "allocator.channel"),
    ("goalrba.harness", "", "utility_policy", "allocator.utility"),
    ("goalrba.decision", "", "dr_marginal_utilities", "decision.marginal"),
    ("goalrba.decision", "", "solve_dr", "decision.solve_dr"),
    ("goalrba.decision", "DemandResponseWorkload", "ingest", "decision.ingest"),
    ("goalrba.data", "", "make_gaussian_mixture", "data.mixture"),
    ("goalrba.learning", "", "sgd_train", "learning.sgd_train"),
    ("goalrba.learning", "", "gradient", "learning.gradient"),
    ("goalrba.learning", "", "loss", "learning.loss"),
    ("goalrba.learning", "Mlp", "get_params", "learning.params"),
    ("goalrba.learning", "Mlp", "set_params", "learning.params"),
    ("goalrba.learning", "EdgeLearningWorkload", "marginal_utilities", "learning.marginal"),
    ("goalrba.admm", "", "update_consensus", "admm.consensus"),
    ("goalrba.admm", "", "update_local", "admm.update_local"),
    ("goalrba.admm", "EdLocalProblem", "smooth_grad", "admm.smooth_grad"),
    ("goalrba.admm", "", "augmented_lagrangian", "admm.lagrangian"),
)

# Per-layer metrics: (name, unit, better, source). A source ("self", layer)
# is the layer's self time in ms per round, ("calls", layer) its calls per
# round, and ("count", counter) a counter's mean per round.
PER_LAYER = (
    ("harness.round_self_ms", "ms", "lower", ("harness", "round_self")),
    ("harness.emit_ms", "ms", "lower", ("harness", "emit")),
    ("harness.setup_ms", "ms", "lower", ("harness", "setup")),
    ("data.mixture_ms", "ms", "lower", ("setup", "data.mixture")),
    ("channel.sample_gains_ms", "ms", "lower", ("self", "channel.sample_gains")),
    ("channel.rb_ms", "ms", "lower", ("self", "channel.rb")),
    ("channel.rb_calls", "count", "lower", ("calls", "channel.rb")),
    ("workload.collect_reports_ms", "ms", "lower", ("self", "workload.collect_reports")),
    ("workload.reports", "count", "higher", ("count", "workload.reports")),
    ("workload.unreachable", "count", "lower", ("count", "workload.unreachable")),
    ("allocator.hybrid_ms", "ms", "lower", ("self", "allocator.hybrid")),
    ("allocator.channel_ms", "ms", "lower", ("self", "allocator.channel")),
    ("allocator.utility_ms", "ms", "lower", ("self", "allocator.utility")),
    ("allocator.candidates", "count", "higher", ("count", "allocator.candidates")),
    ("allocator.selected", "count", "higher", ("count", "allocator.selected")),
    ("allocator.capacity_used_ratio", "ratio", "higher", ("harness", "capacity_used_ratio")),
    ("decision.marginal_ms", "ms", "lower", ("self", "decision.marginal")),
    ("decision.marginal_calls", "count", "lower", ("calls", "decision.marginal")),
    ("decision.solve_dr_ms", "ms", "lower", ("self", "decision.solve_dr")),
    ("decision.solve_dr_calls", "count", "lower", ("calls", "decision.solve_dr")),
    ("decision.ingest_ms", "ms", "lower", ("self", "decision.ingest")),
    ("decision.history_rows", "count", "lower", ("count", "decision.history_rows")),
    ("learning.sgd_train_ms", "ms", "lower", ("self", "learning.sgd_train")),
    ("learning.gradient_ms", "ms", "lower", ("self", "learning.gradient")),
    ("learning.gradient_calls", "count", "lower", ("calls", "learning.gradient")),
    ("learning.params_ms", "ms", "lower", ("self", "learning.params")),
    ("learning.param_copies", "count", "lower", ("calls", "learning.params")),
    ("learning.loss_ms", "ms", "lower", ("self", "learning.loss")),
    ("learning.marginal_ms", "ms", "lower", ("self", "learning.marginal")),
    ("learning.collected", "count", "higher", ("count", "learning.collected")),
    ("admm.update_local_ms", "ms", "lower", ("self", "admm.update_local")),
    ("admm.update_local_calls", "count", "lower", ("calls", "admm.update_local")),
    ("admm.smooth_grad_ms", "ms", "lower", ("self", "admm.smooth_grad")),
    ("admm.smooth_grad_calls", "count", "lower", ("calls", "admm.smooth_grad")),
    ("admm.cap_hits", "count", "lower", ("count", "admm.cap_hits")),
    ("admm.lagrangian_ms", "ms", "lower", ("self", "admm.lagrangian")),
    ("admm.consensus_ms", "ms", "lower", ("self", "admm.consensus")),
)

# Counters that must repeat exactly across two traced runs of one seed.
COUNTERS = (
    "workload.reports",
    "workload.unreachable",
    "allocator.candidates",
    "allocator.selected",
    "allocator.capacity_used",
    "decision.history_rows",
    "learning.collected",
    "admm.cap_hits",
)


class _CapHits(logging.Handler):
    """Counts the warnings ``update_local`` logs when ISTA hits its cap."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "iteration cap" in record.getMessage():
            self.count += 1


class Tracer:
    """Sums span time and calls per layer; hands out one record per round."""

    def __init__(self):
        self.layers: List[str] = []
        self._index: Dict[str, int] = {}
        self.self_s: List[float] = []
        self.total_s: List[float] = []
        self.calls: List[int] = []
        # Child-span time of each open span; the bottom entry is the caller
        # outside every span (the round loop itself).
        self.stack: List[float] = [0.0]
        self.counts: Dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.cap_hits = _CapHits()
        self.missing: List[str] = []
        # (owner, attribute, original, wrapper) of every installed span.
        self._patches: List[Tuple] = []

    def _layer(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.layers)
            self.layers.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return self._index[name]

    def span(self, layer: str, fn):
        """Wrap fn so each call adds one span to the layer."""
        i = self._layer(layer)
        stack, self_s, total_s, calls = self.stack, self.self_s, self.total_s, self.calls
        perf = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            started = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf() - started
                self_s[i] += duration - stack.pop()
                total_s[i] += duration
                calls[i] += 1
                stack[-1] += duration

        traced.__wrapped__ = fn
        return traced

    def _count_reports(self, fn):
        """Count reports and positive-delta candidates from collect_reports.

        The counting time is charged to no layer: it is added to the
        caller's child time so it does not inflate the harness self time.
        """
        counts, stack = self.counts, self.stack
        perf = time.perf_counter

        def counted(workload, *args, **kwargs):
            reports = fn(workload, *args, **kwargs)
            started = perf()
            counts["workload.reports"] += len(reports)
            counts["workload.unreachable"] += workload.num_eds - len(reports)
            counts["allocator.candidates"] += sum(1 for r in reports if r.delta > 0)
            stack[-1] += perf() - started
            return reports

        return counted

    def install(self) -> None:
        """Wrap every attribute in SPANS; the wrappers start enabled."""
        for module_name, owner_path, attr, layer in SPANS:
            owner = sys.modules[module_name]
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part)
            if not hasattr(owner, attr):
                self.missing.append(f"{module_name}.{owner_path}.{attr}".replace("..", "."))
                continue
            original = getattr(owner, attr)
            wrapped = self.span(layer, original)
            if attr == "collect_reports":
                wrapped = self._count_reports(wrapped)
            self._patches.append((owner, attr, original, wrapped))
        self.enable()

    def enable(self) -> None:
        """Put the wrappers in place (after ``install``)."""
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)
        logging.getLogger("goalrba.admm").addHandler(self.cap_hits)

    def disable(self) -> None:
        """Put the original attributes back; the program runs unwrapped."""
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        logging.getLogger("goalrba.admm").removeHandler(self.cap_hits)

    def take(self) -> Tuple[Dict[str, Dict[str, float]], float]:
        """Per-layer spans since the last take, as {layer: calls/self/total}.

        Also returns the ms that top-level spans took, which the caller
        subtracts from its own wall time to get its self time.
        """
        out = {}
        for i, name in enumerate(self.layers):
            if self.calls[i]:
                out[name] = {
                    "calls": self.calls[i],
                    "self_ms": self.self_s[i] * 1e3,
                    "total_ms": self.total_s[i] * 1e3,
                }
                self.calls[i] = 0
                self.self_s[i] = 0.0
                self.total_s[i] = 0.0
        outside_ms, self.stack[0] = self.stack[0] * 1e3, 0.0
        return out, outside_ms

    def take_counts(self, workload, allocation) -> Dict[str, int]:
        """Counters of the round that just ended; resets the running ones."""
        counts = dict(self.counts)
        counts["allocator.selected"] = len(allocation.selected) if allocation else 0
        counts["allocator.capacity_used"] = allocation.capacity_used if allocation else 0
        counts["decision.history_rows"] = len(getattr(workload, "history", ()))
        counts["learning.collected"] = len(getattr(workload, "collected", ()))
        counts["admm.cap_hits"] = self.cap_hits.count
        self.counts.update(dict.fromkeys(COUNTERS, 0))
        self.cap_hits.count = 0
        return counts


class Recorder:
    """Turns the tracer's sums into one record per set-up and per round.

    ``context`` (episode, policy, seed) is set by the caller before each
    policy run and copied into that run's records.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.context: Dict = {}
        self.records: List[Dict] = []

    def setup_done(self, setup_s: float, speed: float) -> None:
        spans, _ = self.tracer.take()
        self.records.append({**self.context, "setup_ms": setup_s * 1e3, "speed": speed,
                             "layers": spans})

    def rounds_start(self) -> None:
        self.tracer.take()
        self.tracer.take_counts(None, None)

    def round_done(self, k, workload, allocation, capacity, elapsed_s, speed) -> None:
        spans, outside_ms = self.tracer.take()
        wall_ms = elapsed_s * 1e3
        self.records.append({
            **self.context,
            "round": k,
            "wall_ms": wall_ms,
            "speed": speed,
            "harness_self_ms": wall_ms - outside_ms,
            "capacity": capacity,
            "counts": self.tracer.take_counts(workload, allocation),
            "layers": spans,
        })


def determinism_key(record: Dict) -> Tuple:
    """What must repeat exactly in a round record across runs of one seed."""
    calls = tuple(sorted((name, span["calls"]) for name, span in record["layers"].items()))
    return (record["episode"], record["policy"], record["round"],
            tuple(sorted(record["counts"].items())), calls)


def per_layer_metrics(records: List[Dict], emit_ms: float) -> Dict[str, Dict]:
    """The PER_LAYER metrics of one traced run, from its records.

    Times are self times at the reference speed: each record's host times
    divided by its SpeedProbe factor. The ``_ms`` metrics of the rounds
    therefore add up to the traced round time at that speed. ``emit_ms`` is
    already at the reference speed. A layer the workload never calls
    reads 0.
    """
    setups = [r for r in records if "round" not in r]
    rounds = [r for r in records if "round" in r]
    n = len(rounds)

    def self_ms(r, layer):
        return r["layers"].get(layer, {}).get("self_ms", 0.0) / r["speed"]

    harness = {
        "round_self": sum(r["harness_self_ms"] / r["speed"] for r in rounds) / n,
        "emit": emit_ms / n,
        "setup": statistics.median(r["setup_ms"] / r["speed"] for r in setups),
        "capacity_used_ratio": sum(r["counts"]["allocator.capacity_used"] for r in rounds)
        / sum(r["capacity"] for r in rounds),
    }
    out = {}
    for name, unit, _, (kind, key) in PER_LAYER:
        if kind == "harness":
            value = harness[key]
        elif kind == "setup":
            value = statistics.fmean(self_ms(r, key) for r in setups)
        elif kind == "count":
            value = sum(r["counts"][key] for r in rounds) / n
        elif kind == "self":
            value = sum(self_ms(r, key) for r in rounds) / n
        else:
            value = sum(r["layers"].get(key, {}).get("calls", 0) for r in rounds) / n
        out[name] = {"value": value, "unit": unit}
    return out
