"""Property and oracle suites runnable from the CLI `verify` command.

Each check returns (ok, detail). They are the same routines the acceptance
tests assert on, so the CLI and the test suite cannot drift apart.
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np

from .admm import (
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


def random_knapsack_instance(rng, capacity: int, eta: float = 0.25):
    num_items = int(rng.integers(5, 26))
    max_w = max(int(eta * capacity), 1)
    items = [
        (float(rng.uniform(0.1, 10.0)), int(rng.integers(1, max_w + 1)))
        for _ in range(num_items)
    ]
    delta, w = zip(*items)
    return make_reports(range(num_items), delta, w)


def verify_greedy_guarantee(
    num_instances: int = 200, capacity: int = 60, eta: float = 0.25, seed: int = 2024
) -> Tuple[bool, str]:
    """Greedy-vs-DP ratio stays at or above 1 - eta when all w_j <= eta*J."""
    rng = np.random.default_rng(seed)
    worst = 1.0
    for _ in range(num_instances):
        reports = random_knapsack_instance(rng, capacity, eta)
        greedy = greedy_allocate(reports, capacity)
        opt = exact_knapsack(reports, capacity)
        ratio = suboptimality_ratio(
            allocation_value(greedy, reports), allocation_value(opt, reports)
        )
        worst = min(worst, ratio)
        if ratio < 1 - eta:
            return False, f"ratio {ratio:.4f} below {1 - eta} on a seeded instance"
    return True, f"worst ratio {worst:.4f} over {num_instances} instances (floor {1 - eta})"


def verify_submodularity(
    num_instances: int = 20, num_eds: int = 10, seed: int = 7, tolerance: float = 1e-9
) -> Tuple[bool, str]:
    """Joint gain never beats summed singleton gains, all subsets enumerated."""
    worst_slack = np.inf
    for i in range(num_instances):
        params = DrParams(num_eds=num_eds, pi_min=num_eds * 0.66, history_len=8)
        workload = DemandResponseWorkload(params, seed=seed + i)
        workload.begin_round(0)
        for mask in range(1, 2**num_eds):
            subset = [j for j in range(num_eds) if mask >> j & 1]
            lhs, rhs, holds = submodular_bound_check(workload, subset, tolerance=tolerance)
            worst_slack = min(worst_slack, rhs - lhs)
            if not holds:
                return False, (
                    f"violation on instance {i}, subset {subset}: "
                    f"lhs {lhs:.6g} > rhs {rhs:.6g}"
                )
    return True, f"all subsets hold; tightest slack {worst_slack:.3e}"


def verify_lemma_descent(
    num_draws: int = 100, dim: int = 8, seed: int = 11, tolerance: float = 1e-10
) -> Tuple[bool, str]:
    """Smooth-descent bound on the quadratic surrogate, full participation."""
    rng = np.random.default_rng(seed)
    for _ in range(num_draws):
        kappa = float(rng.uniform(0.1, 5.0))
        eta = float(rng.uniform(1e-4, 2.0 / kappa))
        theta = rng.normal(size=dim)
        g = kappa * theta
        theta_next = theta - eta * g
        l_before = 0.5 * kappa * float(theta @ theta)
        l_after = 0.5 * kappa * float(theta_next @ theta_next)
        bound, holds = descent_bound_check(
            l_before, l_after, g, g, eta, kappa, tolerance=tolerance
        )
        if not holds:
            return False, f"bound violated at kappa={kappa:.3f}, eta={eta:.4f}"
        if abs((l_after - l_before) - bound) > 1e-8 * max(1.0, abs(bound)):
            return False, f"quadratic case should bind exactly, gap {l_after - l_before - bound}"
    return True, f"bound holds with equality on {num_draws} quadratic draws"


def verify_gradient_finite_differences(
    seed: int = 3, num_coords: int = 10, rel_tol: float = 1e-4
) -> Tuple[bool, str]:
    """Backprop gradient against central finite differences on random coordinates."""
    rng = np.random.default_rng(seed)
    model = Mlp(input_dim=12, hidden_dim=7, output_dim=4, seed=seed)
    X = rng.normal(size=(9, 12))
    y = rng.integers(0, 4, size=9)
    analytic = gradient(model, X, y)
    theta = model.get_params()
    eps = 1e-6
    worst = 0.0
    coords = rng.choice(theta.size, size=num_coords, replace=False)
    probe = Mlp(input_dim=12, hidden_dim=7, output_dim=4)
    for c in coords:
        bumped = theta.copy()
        bumped[c] += eps
        probe.set_params(bumped)
        up = loss(probe, X, y)
        bumped[c] -= 2 * eps
        probe.set_params(bumped)
        down = loss(probe, X, y)
        numeric = (up - down) / (2 * eps)
        scale = max(abs(analytic[c]), abs(numeric), 1e-8)
        worst = max(worst, abs(analytic[c] - numeric) / scale)
    if worst > rel_tol:
        return False, f"finite-difference mismatch {worst:.2e} above {rel_tol}"
    return True, f"worst relative mismatch {worst:.2e} over {num_coords} coordinates"


def verify_admm_certificate(
    num_runs: int = 50,
    rounds: int = 6,
    num_eds: int = 4,
    dim: int = 6,
    seed: int = 17,
    tolerance: float = 1e-8,
) -> Tuple[bool, str]:
    """Smooth-mode descent certificate and dual bound across seeded runs.

    Each ED's data is rescaled to unit smoothness (kappa_j = 1), where the
    certificate constant rho/2 - kappa_j/rho dominates the provable
    kappa_j^2/rho term, and the penalty sits above the regime floor
    rho > sqrt(2 * max_j kappa_j). The certificate compares consecutive
    rounds through the stationarity of each dual variable at the ED's last
    local solve, so the first round runs with full participation to put
    every ED on that footing before partial participation is asserted.
    """
    rng = np.random.default_rng(seed)
    for run in range(num_runs):
        state, _ = make_admm_state(
            num_eds=num_eds,
            dim=dim,
            samples_per_ed=8,
            noise_variance_slope=0.01,
            varrho=0.0,
            rho=1.0,
            seed=seed + run,
        )
        scale = np.sqrt(state.kappa)[:, None, None]
        state = dataclasses.replace(state, X=state.X / scale, Y=state.Y / scale)
        state.rho = float(np.sqrt(2 * state.kappa.max()) * 1.5)
        state = run_round(state, range(num_eds), tol=1e-12, max_iter=50000)
        prev_lag = augmented_lagrangian(state)
        for k in range(rounds):
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
    return True, f"certificate, dual bound, and monotone descent over {num_runs} runs"


ALL_CHECKS = [
    ("greedy_guarantee", verify_greedy_guarantee),
    ("submodularity", verify_submodularity),
    ("lemma_descent", verify_lemma_descent),
    ("gradient_fd", verify_gradient_finite_differences),
    ("admm_certificate", verify_admm_certificate),
]


def run_all_checks(verbose: bool = True) -> bool:
    ok_all = True
    for name, check in ALL_CHECKS:
        ok, detail = check()
        ok_all &= ok
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok_all
