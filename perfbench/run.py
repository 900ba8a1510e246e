#!/usr/bin/env python3
"""goalrba benchmark: simulated scheduling rounds per second, by workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dr_paper --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` runs whole episodes of the workload, each policy for the
preset's own number of rounds, with no tracing installed, until
``--seconds`` have passed, and reports the end-to-end metrics. ``--trace 1``
runs the episodes in a child process that times every policy run twice on
the same config, once without and once with the span wrappers, and then
repeats the first traced policy run in a second child. It reports the
per-layer metrics, the tracing overhead and whether the counters repeated
exactly. Every run first checks the default-seed CSVs against
``perfbench/reference.json`` and checks every round it runs (see
``workloads.run_policy``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A copy of the result
with the environment it ran in goes to ``.bench_out/results/``; traced runs
write their per-round span records to ``.bench_out/trace/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

# Set before numpy loads, in the runner and in every process it starts.
# One BLAS thread (nproc is 2 on the reference box): the matrices here are
# small, and a single thread keeps runs steady on a shared machine. The
# thread count moves float rounding, so reference.json is recorded with it.
# numpy asks for transparent huge pages for large arrays; whether the kernel
# grants them depends on the host's free memory, and it moved peak RSS by up
# to 15 MB between runs of one seed, so the runner turns that request off.
BLAS_THREADS = 1
RUN_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "NUMPY_MADVISE_HUGEPAGE": "0",
}
# At least ten rounds lie beyond p90 when a run has 100 rounds.
MIN_ROUNDS = 100
# Timed set-ups per policy run; setup_s is their median over the run.
SETUP_REPEATS = 9
# A run stops starting episodes after this long, whatever --seconds says.
MAX_LOOP_S = 120.0
# The traced child stops starting episodes after this long, so that a
# traced run ends well within three minutes.
MAX_TRACED_LOOP_S = 70.0
CHILD_TIMEOUT_S = 150


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the two children of a traced run.
    ap.add_argument("--traced-child", choices=("pairs", "repeat"), help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _environment(args) -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "run_env": RUN_ENV,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Loop:
    """Runs policy runs of one workload and keeps what the metrics need.

    Each time is kept as measured (host seconds) and at the reference speed
    (host seconds over the SpeedProbe factor around it).
    """

    def __init__(self, workload, probe):
        from workloads import SpeedProbe

        self.workload = workload
        self.probe = probe
        self.speed = SpeedProbe()
        self.round_s = []
        self.round_ref_s = []
        self.setup_s = []
        self.setup_ref_s = []
        self.emit_s = 0.0
        self.emit_ref_s = 0.0
        self.speeds = []
        self.attempted = 0
        self.failed = 0
        self.negative_gains = []
        self.errors = []
        self.episodes = 0

    def policy_run(self, seed: int, episode: int, policy: str, *, setup_repeats=1,
                   recorder=None):
        from workloads import episode_seed, run_policy, write_config

        wl = self.workload
        config_seed = episode_seed(seed, episode)
        path = write_config(ROOT, wl, OUT, seed=config_seed, policy=policy)
        if recorder is not None:
            recorder.context = {"episode": episode, "policy": policy, "seed": config_seed}
        run = run_policy(path, OUT / f"{wl.name}-{policy}.csv", self.probe, self.speed,
                         setup_repeats=setup_repeats, recorder=recorder)
        self.setup_s.extend(run.setup_s)
        self.setup_ref_s.extend(t / f for t, f in zip(run.setup_s, run.setup_speed))
        self.round_s.extend(run.round_s)
        self.round_ref_s.extend(t / f for t, f in zip(run.round_s, run.round_speed))
        self.speeds.extend(run.round_speed)
        self.emit_s += run.emit_s
        self.emit_ref_s += run.emit_s / run.emit_speed
        self.attempted += run.attempted
        self.failed += run.failed
        self.negative_gains.extend(run.negative_gains)
        self.errors.extend(run.errors)
        return run

    def rounds_per_s(self, reference: bool = True) -> float:
        if reference:
            return len(self.round_ref_s) / (sum(self.round_ref_s) + self.emit_ref_s)
        return len(self.round_s) / (sum(self.round_s) + self.emit_s)

    def finish(self) -> None:
        """Apply the utility_gain check to the run as a whole."""
        from workloads import gain_failures

        failed = gain_failures(self.workload, len(self.negative_gains), self.attempted)
        if failed:
            self.failed += failed
            self.errors.append(
                f"{failed} of {self.attempted} rounds have a negative utility_gain, "
                f"above the ceiling {self.workload.negative_gain_ceiling}")
            self.errors.extend(self.negative_gains[:20])


def check_reference(workload, probe):
    """Default-seed CSVs of every policy against the recorded digests."""
    from workloads import SpeedProbe, gain_failures, run_policy, sha256, write_config

    speed = SpeedProbe()
    ref = json.loads((HERE / "reference.json").read_text())["workloads"][workload.name]
    problems = []
    for policy, digest in ref["sha256"].items():
        path = write_config(ROOT, workload, OUT, seed=ref["seed"], policy=policy,
                            rounds=ref["rounds"])
        run = run_policy(path, OUT / f"check-{workload.name}-{policy}.csv", probe, speed)
        problems.extend(run.errors)
        if gain_failures(workload, len(run.negative_gains), run.attempted):
            problems.extend(run.negative_gains)
        if run.csv is None or sha256(run.csv) != digest:
            problems.append(f"{policy}: default-seed CSV does not match reference.json")
    return problems


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed(args, workload, probe) -> dict:
    import numpy as np

    problems = check_reference(workload, probe)
    loop = Loop(workload, probe)
    peak_rss_mb = None
    started = time.perf_counter()
    while True:
        for policy in workload.policies:
            loop.policy_run(args.seed, loop.episodes, policy, setup_repeats=SETUP_REPEATS)
            # Peak RSS counts the default-seed check and the first policy run,
            # which grows its history over all of the preset's rounds. Each
            # later policy run builds its workload anew; on dr_paper, what the
            # earlier ones left in glibc's heap moved the peak of a whole run
            # between 100 and 117 MB from run to run of one seed.
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        loop.episodes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= MAX_LOOP_S or (elapsed >= args.seconds
                                     and len(loop.round_s) >= MIN_ROUNDS
                                     and loop.episodes >= workload.min_episodes):
            break
    loop.finish()
    round_ms = np.array(loop.round_ref_s) * 1e3
    host_round_ms = np.array(loop.round_s) * 1e3
    p50, p90 = np.percentile(round_ms, [50, 90])
    metrics = {
        "rounds_per_s": _metric(loop.rounds_per_s(), "1/s"),
        "round_ms_p50": _metric(float(p50), "ms"),
        "round_ms_p90": _metric(float(p90), "ms"),
        "setup_s": _metric(statistics.median(loop.setup_ref_s), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    info = {
        "rounds": len(loop.round_s),
        "rounds_beyond_p90": int((round_ms > p90).sum()),
        "episodes": loop.episodes,
        "setups": len(loop.setup_s),
        "failed_ratio": loop.failed / loop.attempted,
        "negative_gain_rounds": len(loop.negative_gains),
        "host_speed_factor": statistics.median(loop.speeds),
        "host_rounds_per_s": loop.rounds_per_s(reference=False),
        "host_round_ms_p50": float(np.percentile(host_round_ms, 50)),
        "host_round_ms_p90": float(np.percentile(host_round_ms, 90)),
        "host_setup_s": statistics.median(loop.setup_s),
    }
    return _result(loop, problems, metrics, info)


def _result(loop, problems, metrics, info) -> dict:
    problems = problems + loop.errors
    return {
        "correct": not problems and loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
        "info": info,
        "problems": problems,
    }


def _write_records(workload, args, tag, records) -> str:
    path = OUT / "trace" / f"{workload.name}-seed{args.seed}-{tag}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    return str(path.relative_to(ROOT))


def traced_child(args, workload, probe) -> int:
    """One child of a traced run; prints its records and totals as JSON.

    ``pairs`` runs whole episodes. It runs every policy run twice on the
    same config, untraced and traced, in alternating order, until the
    untraced runs have taken ``--seconds``. ``repeat`` runs the first
    policy run of the first episode traced once more, for the determinism
    check.
    """
    from tracing import Recorder, Tracer

    tracer = Tracer()
    tracer.install()
    recorder = Recorder(tracer)
    loop = Loop(workload, probe)
    pairs = []
    if args.traced_child == "repeat":
        loop.policy_run(args.seed, 0, workload.policies[0], recorder=recorder)
    else:
        untraced_s = 0.0
        started = time.perf_counter()
        while untraced_s < args.seconds and time.perf_counter() - started < MAX_TRACED_LOOP_S:
            for policy in workload.policies:
                pair = {}
                order = ("untraced", "traced") if len(pairs) % 2 == 0 else ("traced", "untraced")
                for kind in order:
                    (tracer.enable if kind == "traced" else tracer.disable)()
                    run = loop.policy_run(args.seed, loop.episodes, policy,
                                          recorder=recorder if kind == "traced" else None)
                    ref_s = [t / f for t, f in zip(run.round_s, run.round_speed)]
                    pair[kind] = {"rounds": len(run.round_s),
                                  "emit_s": run.emit_s / run.emit_speed,
                                  "seconds": sum(ref_s) + run.emit_s / run.emit_speed,
                                  "host_seconds": sum(run.round_s) + run.emit_s}
                pairs.append(pair)
                untraced_s += pair["untraced"]["host_seconds"]
            loop.episodes += 1
        tracer.enable()
    loop.finish()
    print(json.dumps({
        "records": _write_records(workload, args, args.traced_child, recorder.records),
        "pairs": pairs,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "negative_gain_rounds": len(loop.negative_gains),
        "errors": loop.errors,
        "missing": tracer.missing,
    }))
    return 0


def _run_child(args, kind: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--traced-child", kind]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"traced child {kind} exited {proc.returncode}: "
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _rate(pairs, kind: str) -> float:
    """Rounds per second over the ``kind`` halves of the pairs."""
    runs = [pair[kind] for pair in pairs]
    return sum(r["rounds"] for r in runs) / sum(r["seconds"] for r in runs)


def traced(args, workload, probe) -> dict:
    from tracing import determinism_key, per_layer_metrics

    problems = check_reference(workload, probe)
    loop = Loop(workload, probe)
    pairs, repeat = _run_child(args, "pairs"), _run_child(args, "repeat")
    records = {
        kind: [json.loads(line) for line in (ROOT / run["records"]).read_text().splitlines()]
        for kind, run in (("pairs", pairs), ("repeat", repeat))
    }
    first = (0, workload.policies[0])
    keys = [
        [determinism_key(r) for r in recs
         if "round" in r and (r["episode"], r["policy"]) == first]
        for recs in records.values()
    ]
    mismatches = sum(a != b for a, b in zip(*keys)) + abs(len(keys[0]) - len(keys[1]))
    if mismatches:
        at = next((i for i, (a, b) in enumerate(zip(*keys)) if a != b), None)
        problems.append(f"counters differ between the two traced runs in {mismatches} "
                        f"rounds; first differing round record: {at}")
    negative = 0
    for run in (pairs, repeat):
        loop.attempted += run["attempted"]
        loop.failed += run["failed"]
        loop.errors.extend(run["errors"])
        negative += run["negative_gain_rounds"]
        problems.extend(f"no traced layer for {name}" for name in run["missing"])
    traced_rounds = [r for r in records["pairs"] if "round" in r]
    emit_ms = sum(p["traced"]["emit_s"] for p in pairs["pairs"]) * 1e3
    metrics = per_layer_metrics(records["pairs"], emit_ms)
    metrics["check.negative_gain_share"] = _metric(negative / loop.attempted, "ratio")
    metrics["trace.rounds_per_s"] = _metric(_rate(pairs["pairs"], "traced"), "1/s")
    metrics["trace.untraced_rounds_per_s"] = _metric(
        _rate(pairs["pairs"], "untraced"), "1/s")
    metrics["trace.overhead_ratio"] = _metric(statistics.median(
        p["traced"]["seconds"] / p["untraced"]["seconds"] for p in pairs["pairs"]), "ratio")
    metrics["trace.counter_mismatches"] = _metric(mismatches, "count")
    info = {"pairs": len(pairs["pairs"]), "traced_rounds": len(traced_rounds),
            "repeated_rounds": len(keys[1]),
            "records": [pairs["records"], repeat["records"]],
            "failed_ratio": loop.failed / loop.attempted,
            "negative_gain_rounds": negative}
    return _result(loop, problems, metrics, info)


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def _print_report(workload, result, env) -> None:
    print(f"# {workload.name}: {workload.why}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in result["metrics"].items():
        print(f"{name:32s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in result["info"].items():
        if name == "failed_ratio":
            print(f"{name:32s} {value:>14.6g} ratio ({result['failed']} of "
                  f"{result['attempted']} rounds)")
        else:
            print(f"# {name}: {value}")
    for problem in result["problems"]:
        print(f"FAILED CHECK: {problem}")


def main(argv=None) -> int:
    args = _parse(argv)
    src = ROOT / "src"
    if not (src / "goalrba" / "__init__.py").is_file():
        print(f"perfbench: {src}/goalrba not found; run from a goalrba checkout",
              file=sys.stderr)
        return 2
    os.environ.update(RUN_ENV)
    sys.path[:0] = [str(src), str(HERE)]
    import goalrba

    if Path(goalrba.__file__).resolve().parent != (src / "goalrba").resolve():
        print(f"perfbench: imported goalrba from {goalrba.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, AllocationProbe

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{sorted(WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    probe = AllocationProbe()
    probe.install()
    if args.traced_child:
        return traced_child(args, workload, probe)
    env = _environment(args)
    result = (traced if args.trace else timed)(args, workload, probe)
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, **result}, indent=1))
    _print_report(workload, result, env)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
