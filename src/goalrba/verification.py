"""Property and oracle suites runnable from the CLI `verify` command.

Each check returns (ok, detail). They are the same routines the acceptance
tests assert on, and neither caller passes them a setting, so the CLI and
the test suite cannot drift apart; the acceptance lines quote the constants
below.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from .admm import (
    AdmmParams,
    augmented_lagrangian,
    descent_certificate,
    make_admm_state,
    run_round,
)
from .allocator import (
    allocation_value,
    exact_knapsack,
    greedy_allocate,
    make_reports,
    suboptimality_ratio,
)
from .decision import DemandResponseWorkload, DrParams
from .learning import Mlp, descent_bound_check, gradient, loss
from .workload import submodular_bound_check


# Each check's one setting; its acceptance line quotes it.
GREEDY_INSTANCES = 200
GREEDY_ETA = 0.25
SUBMODULAR_INSTANCES = 20
SUBMODULAR_EDS = 10
SUBMODULAR_TOLERANCE = 1e-9
DESCENT_DRAWS = 100
DESCENT_TOLERANCE = 1e-10
GRADIENT_REL_TOL = 1e-4
ADMM_RUNS = 50
ADMM_TOLERANCE = 1e-9


def verify_greedy_guarantee() -> Tuple[bool, str]:
    """Greedy-vs-DP ratio stays at or above 1 - eta when all w_j <= eta*J."""
    num_instances, capacity, eta = GREEDY_INSTANCES, 60, GREEDY_ETA
    max_w = max(int(eta * capacity), 1)
    rng = np.random.default_rng(2024)
    worst = 1.0
    for _ in range(num_instances):
        num_items = int(rng.integers(5, 26))
        items = [
            (float(rng.uniform(0.1, 10.0)), int(rng.integers(1, max_w + 1)))
            for _ in range(num_items)
        ]
        delta, w = zip(*items)
        reports = make_reports(range(num_items), delta, w)
        greedy = greedy_allocate(reports, capacity)
        opt = exact_knapsack(reports, capacity)
        ratio = suboptimality_ratio(
            allocation_value(greedy, reports), allocation_value(opt, reports)
        )
        worst = min(worst, ratio)
        if ratio < 1 - eta:
            return False, f"ratio {ratio:.4f} below {1 - eta} on a seeded instance"
    return True, f"worst ratio {worst:.4f} over {num_instances} instances (floor {1 - eta})"


def verify_submodularity() -> Tuple[bool, str]:
    """Joint gain never beats summed singleton gains, all subsets enumerated."""
    num_instances, num_eds, seed = SUBMODULAR_INSTANCES, SUBMODULAR_EDS, 7
    worst_slack = np.inf
    for i in range(num_instances):
        params = DrParams(num_eds=num_eds, pi_min=num_eds * 0.66, history_len=8)
        workload = DemandResponseWorkload(params, seed=seed + i)
        workload.begin_round(0)
        for mask in range(1, 2**num_eds):
            subset = [j for j in range(num_eds) if mask >> j & 1]
            lhs, rhs, holds = submodular_bound_check(
                workload, subset, tolerance=SUBMODULAR_TOLERANCE)
            worst_slack = min(worst_slack, rhs - lhs)
            if not holds:
                return False, (
                    f"violation on instance {i}, subset {subset}: "
                    f"lhs {lhs:.6g} > rhs {rhs:.6g}"
                )
    return True, f"all subsets hold; tightest slack {worst_slack:.3e}"


def verify_lemma_descent() -> Tuple[bool, str]:
    """Smooth-descent bound on the quadratic surrogate, full participation."""
    rng = np.random.default_rng(11)
    for _ in range(DESCENT_DRAWS):
        kappa = float(rng.uniform(0.1, 5.0))
        eta = float(rng.uniform(1e-4, 2.0 / kappa))
        theta = rng.normal(size=8)
        g = kappa * theta
        theta_next = theta - eta * g
        l_before = 0.5 * kappa * float(theta @ theta)
        l_after = 0.5 * kappa * float(theta_next @ theta_next)
        bound, holds = descent_bound_check(
            l_before, l_after, g, g, eta, kappa, tolerance=DESCENT_TOLERANCE
        )
        if not holds:
            return False, f"bound violated at kappa={kappa:.3f}, eta={eta:.4f}"
        if abs((l_after - l_before) - bound) > 1e-8 * max(1.0, abs(bound)):
            return False, f"quadratic case should bind exactly, gap {l_after - l_before - bound}"
    return True, f"bound holds with equality on {DESCENT_DRAWS} quadratic draws"


def verify_gradient_finite_differences() -> Tuple[bool, str]:
    """Backprop gradient against central finite differences on random coordinates."""
    seed, num_coords = 3, 10
    rng = np.random.default_rng(seed)
    model = Mlp(input_dim=12, hidden_dim=7, output_dim=4, seed=seed)
    X = rng.normal(size=(9, 12))
    y = rng.integers(0, 4, size=9)
    analytic = gradient(model, X, y)
    theta = model.params.copy()
    eps = 1e-6
    worst = 0.0
    coords = rng.choice(theta.size, size=num_coords, replace=False)
    probe = Mlp(input_dim=12, hidden_dim=7, output_dim=4)
    for c in coords:
        bumped = theta.copy()
        bumped[c] += eps
        probe.params[...] = bumped
        up = loss(probe, X, y)
        bumped[c] -= 2 * eps
        probe.params[...] = bumped
        down = loss(probe, X, y)
        numeric = (up - down) / (2 * eps)
        scale = max(abs(analytic[c]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[c] - numeric) / scale)
    if worst > GRADIENT_REL_TOL:
        return False, f"finite-difference mismatch {worst:.2e} above {GRADIENT_REL_TOL}"
    return True, f"worst relative mismatch {worst:.2e} over {num_coords} coordinates"


def verify_admm_certificate() -> Tuple[bool, str]:
    """Smooth-mode descent certificate and dual bound across seeded runs.

    Each ED's data is rescaled to unit smoothness (kappa_j = 1), where the
    certificate constant rho/2 - kappa_j/rho dominates the provable
    kappa_j^2/rho term, and the penalty sits above the regime floor
    rho > sqrt(2 * max_j kappa_j). The certificate compares consecutive
    rounds through the stationarity of each dual variable at the ED's last
    local solve, so the first round runs with full participation to put
    every ED on that footing before partial participation is asserted.
    """
    num_eds, seed, tolerance = 4, 17, ADMM_TOLERANCE
    params = AdmmParams(num_eds=num_eds, dim=6, samples_per_ed=8,
                        noise_variance_slope=0.01, varrho=0.0, rho=1.0)
    rng = np.random.default_rng(seed)
    for run in range(ADMM_RUNS):
        state, _ = make_admm_state(params, seed + run)
        scale = np.sqrt(state.kappa)[:, None, None]
        state = dataclasses.replace(state, X=state.X / scale, Y=state.Y / scale)
        state.rho = float(np.sqrt(2 * state.kappa.max()) * 1.5)
        state = run_round(state, range(num_eds), tol=1e-12, max_iter=50000)
        prev_lag = augmented_lagrangian(state)
        for k in range(6):
            count = int(rng.integers(1, num_eds + 1))
            selected = sorted(rng.choice(num_eds, size=count, replace=False).tolist())
            new_state = run_round(state, selected, tol=1e-12, max_iter=50000)
            bound, holds = descent_certificate(state, new_state, selected, tolerance=tolerance)
            if not holds:
                return False, f"certificate failed on run {run}, round {k}"
            for j in selected:
                dual_step = np.linalg.norm(new_state.lambdas[j] - state.lambdas[j], "fro")
                primal_step = np.linalg.norm(new_state.thetas[j] - state.thetas[j], "fro")
                if dual_step > state.kappa[j] * primal_step + tolerance:
                    return False, f"dual bound failed on run {run}, round {k}, ED {j}"
            lag = augmented_lagrangian(new_state)
            if lag > prev_lag + tolerance:
                return False, f"Lagrangian increased on run {run}, round {k}"
            prev_lag = lag
            state = new_state
    return True, (f"certificate, dual bound, and monotone descent over {ADMM_RUNS} runs "
                  f"at tolerance {tolerance:g}")


ALL_CHECKS = [
    ("greedy_guarantee", verify_greedy_guarantee),
    ("submodularity", verify_submodularity),
    ("lemma_descent", verify_lemma_descent),
    ("gradient_fd", verify_gradient_finite_differences),
    ("admm_certificate", verify_admm_certificate),
]


def run_all_checks() -> bool:
    """Run every check, print one PASS or FAIL line each; True if all pass."""
    ok_all = True
    for name, check in ALL_CHECKS:
        ok, detail = check()
        ok_all &= ok
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok_all
