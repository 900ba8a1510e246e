"""Consensus updates for distributed sparse identification."""

import dataclasses
import logging
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from goalrba import admm
from goalrba.admm import (
    AdmmParams,
    AdmmState,
    AdmmWorkload,
    EdLocalProblem,
    PenaltyRegimeError,
    admm_marginal_utility,
    augmented_lagrangian,
    descent_certificate,
    make_admm_state,
    relative_gap,
    run_round,
    update_consensus,
    update_local,
)
from goalrba.harness import build_workload, load_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def soft_threshold(v: np.ndarray, tau) -> np.ndarray:
    """Elementwise sign(v) * max(|v| - tau, 0); tau broadcasts against v.

    The ISTA step of the reference local solve, which update_local does on
    its own buffers.
    """
    if np.any(tau < 0):
        raise ValueError(f"threshold must be non-negative, got {tau}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def smooth_loss(problem: EdLocalProblem, theta: np.ndarray) -> float:
    """0.5 * ||Y - theta X||_F^2: the smooth part of one ED's local objective.

    The reference for smooth_grad and for the Lagrangian's data term.
    """
    return 0.5 * float(np.linalg.norm(problem.Y - theta @ problem.X, "fro") ** 2)


def test_soft_threshold_cases():
    v = np.array([-3.0, -0.5, 0.0, 0.5, 3.0])
    np.testing.assert_allclose(soft_threshold(v, 1.0), [-2.0, 0.0, 0.0, 0.0, 2.0])
    np.testing.assert_allclose(soft_threshold(v, 0.0), v)
    with pytest.raises(ValueError):
        soft_threshold(v, -0.1)


def test_soft_threshold_takes_a_threshold_per_row():
    v = np.array([[-3.0, 0.5], [3.0, -0.5]])
    np.testing.assert_allclose(
        soft_threshold(v, np.array([[1.0], [0.0]])), [[-2.0, 0.0], [3.0, -0.5]]
    )
    with pytest.raises(ValueError):
        soft_threshold(v, np.array([[1.0], [-0.1]]))


def test_kappa_is_the_gram_spectral_norm():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(6, 9))
    p = EdLocalProblem(Y=rng.normal(size=(6, 9)), X=X)
    assert p.kappa == pytest.approx(np.linalg.svd(X @ X.T, compute_uv=False)[0])
    # the stacked state holds each row's EdLocalProblem kappa, shared by clones
    state, _ = make_admm_state(AdmmParams(num_eds=3, dim=6, samples_per_ed=9), 0)
    assert state.kappa.tolist() == [EdLocalProblem(y, x).kappa for y, x in zip(state.Y, state.X)]
    assert state.clone().kappa is state.kappa


def test_smooth_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    p = EdLocalProblem(Y=rng.normal(size=(3, 7)), X=rng.normal(size=(3, 7)))
    theta = rng.normal(size=(3, 3))
    g = p.smooth_grad(theta)
    eps = 1e-6
    for idx in [(0, 0), (1, 2), (2, 1)]:
        bump = theta.copy()
        bump[idx] += eps
        up = smooth_loss(p, bump)
        bump[idx] -= 2 * eps
        down = smooth_loss(p, bump)
        assert g[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-5)


def test_consensus_update_is_the_dual_adjusted_mean():
    state, _ = make_admm_state(AdmmParams(num_eds=3, dim=4, samples_per_ed=6), 0)
    state.thetas = np.stack([np.full((4, 4), float(j)) for j in range(3)])
    state.lambdas = np.stack([np.full((4, 4), 0.1 * j) for j in range(3)])
    expected = np.mean(
        [state.thetas[j] + state.lambdas[j] / state.rho for j in range(3)], axis=0
    )
    np.testing.assert_allclose(update_consensus(state), expected)


def test_consensus_is_stationary_for_the_lagrangian():
    state, _ = make_admm_state(AdmmParams(num_eds=4, dim=5, samples_per_ed=7), 3)
    theta0 = update_consensus(state)
    # d/d theta0 of sum_j (-lambda_j - rho (theta_j - theta0)) vanishes
    grad = sum(-state.lambdas[j] - state.rho * (state.thetas[j] - theta0)
               for j in range(4))
    assert np.linalg.norm(grad) <= 1e-10


def test_local_update_matches_the_ridge_solution_in_smooth_mode():
    # with no l1 term the subproblem is a ridge solve:
    # theta (X X^T + rho I) = Y X^T - lambda + rho theta0
    state, _ = make_admm_state(
        AdmmParams(num_eds=2, dim=6, samples_per_ed=9, varrho=0.0, rho=2.0), 5
    )
    rng = np.random.default_rng(7)
    state.theta0 = rng.normal(size=(6, 6))
    state.lambdas = np.stack([rng.normal(size=(6, 6)) * 0.1 for _ in range(2)])
    for j in range(2):
        X, Y = state.X[j], state.Y[j]
        A = X @ X.T + state.rho * np.eye(6)
        rhs = Y @ X.T - state.lambdas[j] + state.rho * state.theta0
        closed_form = np.linalg.solve(A.T, rhs.T).T
        ista = update_local(state, [j], tol=1e-12, max_iter=200_000)[0]
        np.testing.assert_allclose(ista, closed_form, atol=1e-8)


def test_local_update_produces_sparse_copies_under_l1():
    state, _ = make_admm_state(
        AdmmParams(num_eds=2, dim=8, samples_per_ed=10, varrho=5.0, rho=0.5), 2
    )
    theta = update_local(state, [0], tol=1e-10, max_iter=50_000)[0]
    assert np.mean(theta == 0.0) > 0.2


# --- batched local solves against the per-ED reference ---------------------


def as_lists(state):
    """The per-ED list form of a stacked state: one EdLocalProblem per row."""
    return SimpleNamespace(
        problems=[EdLocalProblem(Y, X) for Y, X in zip(state.Y, state.X)],
        theta0=state.theta0.copy(),
        thetas=[t.copy() for t in state.thetas],
        lambdas=[l.copy() for l in state.lambdas],
        rho=state.rho,
        varrho=state.varrho,
    )


def reference_update_local(state, ed_id, theta0=None, tol=1e-8, max_iter=500):
    """The per-ED ISTA loop the batched kernel replaced, two gradients per step.

    state is in the per-ED list form of as_lists.

    Returns (theta, the residual of each iteration run, whether the cap was hit).
    """
    problem = state.problems[ed_id]
    theta0 = state.theta0 if theta0 is None else theta0
    lam = state.lambdas[ed_id]
    rho, varrho = state.rho, state.varrho
    step = 1.0 / (problem.kappa + rho)
    theta = state.thetas[ed_id].copy()
    residuals = []
    for _ in range(max_iter):
        grad = problem.smooth_grad(theta) + lam + rho * (theta - theta0)
        theta = soft_threshold(theta - step * grad, step * varrho)
        grad = problem.smooth_grad(theta) + lam + rho * (theta - theta0)
        residuals.append(reference_residual(theta, grad, varrho))
        if residuals[-1] <= tol:
            return theta, residuals, False
    return theta, residuals, True


def reference_residual(theta, grad, varrho):
    """Norm of the minimum-norm subgradient at theta, whose smooth gradient is grad."""
    if varrho > 0:
        sub = np.where(
            theta != 0,
            grad + varrho * np.sign(theta),
            np.sign(grad) * np.maximum(np.abs(grad) - varrho, 0.0),
        )
    else:
        sub = grad
    return float(np.linalg.norm(sub, "fro"))


def reference_run_round(state, selected, tol=1e-8, max_iter=500):
    """One round of the per-ED list algorithm the stacked state replaced."""
    theta0_new = np.stack(
        [theta + lam / state.rho for theta, lam in zip(state.thetas, state.lambdas)]
    ).mean(axis=0)
    out = SimpleNamespace(**vars(state))
    out.theta0, out.thetas, out.lambdas = theta0_new, list(state.thetas), list(state.lambdas)
    for j in set(selected):
        theta_new, _, _ = reference_update_local(
            state, j, theta0=theta0_new, tol=tol, max_iter=max_iter
        )
        out.thetas[j] = theta_new
        out.lambdas[j] = state.lambdas[j] + state.rho * (theta_new - theta0_new)
    return out


def reference_lagrangian(state):
    total = 0.0
    for problem, theta, lam in zip(state.problems, state.thetas, state.lambdas):
        diff = theta - state.theta0
        total += smooth_loss(problem, theta)
        total += state.varrho * float(np.abs(theta).sum())
        total += float(np.sum(lam * diff))
        total += 0.5 * state.rho * float(np.linalg.norm(diff, "fro") ** 2)
    return total


def solve_instance(varrho):
    state, _ = make_admm_state(
        AdmmParams(num_eds=4, dim=6, samples_per_ed=9, varrho=varrho, rho=0.5), 8
    )
    rng = np.random.default_rng(9)
    state.theta0 = rng.normal(size=(6, 6))
    state.thetas = np.stack([rng.normal(size=(6, 6)) for _ in range(4)])
    state.lambdas = np.stack([rng.normal(size=(6, 6)) * 0.1 for _ in range(4)])
    return state


@pytest.mark.parametrize("varrho", [0.2, 0.0])
def test_batched_solve_of_one_ed_matches_the_reference(varrho):
    state = solve_instance(varrho)
    for j in range(4):
        expected, _, capped = reference_update_local(as_lists(state), j, tol=1e-9,
                                                     max_iter=20_000)
        assert not capped
        got = update_local(state, [j], tol=1e-9, max_iter=20_000)
        assert got.shape == (1, 6, 6)
        np.testing.assert_array_equal(got[0], expected)


@pytest.mark.parametrize("varrho", [0.2, 0.0])
def test_batched_solve_stops_each_ed_at_its_own_iteration(varrho, caplog):
    state = solve_instance(varrho)
    ref = as_lists(state)
    ids = [3, 0, 2, 1]
    iters = {j: len(reference_update_local(ref, j, tol=1e-9, max_iter=20_000)[1])
             for j in ids}
    assert len(set(iters.values())) == len(ids)
    # the slowest ED hits the cap, every other one converges below it
    cap = max(iters.values()) - 1
    slowest = max(iters, key=iters.get)
    expected = [reference_update_local(ref, j, tol=1e-9, max_iter=cap) for j in ids]
    assert [capped for _, _, capped in expected] == [j == slowest for j in ids]
    with caplog.at_level(logging.WARNING, logger="goalrba.admm"):
        got = update_local(state, ids, tol=1e-9, max_iter=cap)
    for row, (theta, _, _) in zip(got, expected):
        np.testing.assert_array_equal(row, theta)
    # the capped ED's exact residual at its last iteration, not the screen's bound
    last = expected[ids.index(slowest)][1][-1]
    assert [r.getMessage() for r in caplog.records] == [
        f"ED {slowest} local solve hit the {cap}-iteration cap (residual {last:.3e})"
    ]


@pytest.mark.parametrize("varrho", [0.2, 0.0])
def test_batched_residuals_are_the_reference_residuals(varrho):
    # tol equal to a reference residual stops that ED exactly there, so a
    # residual off by one ulp changes the iterate returned
    state, _ = make_admm_state(
        AdmmParams(num_eds=4, dim=20, samples_per_ed=30, varrho=varrho, rho=1.0), 4
    )
    rng = np.random.default_rng(5)
    state.theta0 = rng.normal(size=(20, 20))
    ref = as_lists(state)
    ids = list(range(4))
    _, residuals, _ = reference_update_local(ref, 0, max_iter=40)
    for tol in residuals:
        expected = [reference_update_local(ref, j, tol=tol, max_iter=40)[0] for j in ids]
        np.testing.assert_array_equal(update_local(state, ids, tol=tol, max_iter=40),
                                      np.stack(expected))


@pytest.mark.parametrize("varrho", [0.2, 1e-4, 0.0])
def test_capped_solves_log_their_exact_residuals(varrho, caplog):
    # five iterations from a random start: no ED is near its stop, so the
    # screen settles the last iteration and the cap must recompute exactly
    state = solve_instance(varrho)
    ref = as_lists(state)
    ids = [3, 0, 2, 1]
    expected = {j: reference_update_local(ref, j, tol=1e-9, max_iter=5) for j in ids}
    with caplog.at_level(logging.WARNING, logger="goalrba.admm"):
        got = update_local(state, ids, tol=1e-9, max_iter=5)
    np.testing.assert_array_equal(got, np.stack([expected[j][0] for j in ids]))
    assert [r.getMessage() for r in caplog.records] == [
        f"ED {j} local solve hit the 5-iteration cap (residual {expected[j][1][-1]:.3e})"
        for j in sorted(ids)
    ]


def stacks(k, d, varrho):
    """(k, d, d) float stacks with exact zeros, -0.0, and entries at and near +-varrho."""
    near = st.floats(0.5, 2.0).map(lambda s: s * varrho)
    entry = st.one_of(
        st.sampled_from([0.0, -0.0, varrho, -varrho]),
        near, near.map(lambda v: -v),
        st.floats(-1e200, 1e200),
    )
    return arrays(np.float64, (k, d, d), elements=entry)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), varrho=st.floats(1e-12, 1.0), k=st.integers(1, 4),
       d=st.integers(1, 5))
def test_screened_bound_never_exceeds_the_exact_residual(data, varrho, k, d):
    grad = data.draw(stacks(k, d, varrho))
    theta = data.draw(stacks(k, d, varrho))
    sub, tmp = np.empty_like(grad), np.empty_like(grad)
    nonzero = np.empty(grad.shape, dtype=bool)
    with np.errstate(over="ignore"):  # squares of 1e200 entries overflow to inf
        # the loop's screen: sums of squares of max(|grad| - varrho, 0), no sqrt
        bound_sq = np.matmul(*admm._row_views(np.maximum(np.abs(grad) - varrho, 0.0))).ravel()
        exact = admm._stop_residuals(theta, grad, varrho, sub, tmp, nonzero)
        reference = admm._row_norms(np.where(
            theta != 0,
            grad + varrho * np.sign(theta),
            np.sign(grad) * np.maximum(np.abs(grad) - varrho, 0.0),
        ))
        assert exact.tolist() == reference.tolist()
        assert (np.sqrt(bound_sq) <= exact).all()
        # screened at any exact residual as tol, the stop test still sees it
        for tol in exact:
            assert np.fmin.reduce(bound_sq) <= admm._squared_tol(tol)


def clip_soft_threshold(v, tau):
    """update_local's soft-threshold: v - clip(v, -tau, tau), in its three calls."""
    tau = np.full_like(v, tau)
    out = np.empty_like(v)
    np.minimum(v, tau, out=out)
    np.maximum(out, -tau, out=out)
    np.subtract(v, out, out=out)
    return out


def around(x):
    """x and its two float neighbours."""
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), tau=st.one_of(st.just(0.0), st.floats(min_value=0.0)))
def test_clip_form_soft_threshold_is_the_reference(data, tau):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, *around(tau), *around(-tau)]
    v = data.draw(arrays(np.float64, st.integers(1, 30), elements=st.one_of(
        st.sampled_from(special), st.floats(allow_nan=True, allow_infinity=True),
    )))
    with np.errstate(invalid="ignore"):  # inf - inf
        np.testing.assert_array_equal(clip_soft_threshold(v, tau), soft_threshold(v, tau))


@settings(max_examples=300, deadline=None)
@given(tol=st.one_of(st.floats(1e-300, 1e300), st.floats(-300, 300).map(lambda e: 10.0 ** e)))
def test_squared_tol_screens_exactly_like_the_sqrt(tol):
    tol_sq = admm._squared_tol(tol)
    near = [*around(math.nextafter(tol_sq, -math.inf)), *around(math.nextafter(tol_sq, math.inf))]
    for s in near:
        if s >= 0:  # sums of squares are never negative
            assert (s <= tol_sq) == (np.sqrt(s) <= tol)
    assert math.sqrt(tol_sq) <= tol < math.sqrt(math.nextafter(tol_sq, math.inf))


def test_squared_tol_edges():
    assert admm._squared_tol(0.0) == 0.0
    assert admm._squared_tol(np.inf) == np.inf
    assert admm._squared_tol(1e200) == np.finfo(float).max


def test_an_empty_selection_is_rejected():
    state = solve_instance(0.2)
    with pytest.raises(ValueError, match="ed_ids must not be empty"):
        update_local(state, [])


def test_a_diverged_ed_does_not_hide_another_eds_stop(caplog):
    # ED 1's NaN step makes all its iterates NaN; ED 0 still stops where it
    # would on its own, and only ED 1 reaches the cap
    state = solve_instance(0.2)
    state.kappa[1] = np.nan
    alone = update_local(state, [0], tol=1e-9, max_iter=20_000)
    with caplog.at_level(logging.WARNING, logger="goalrba.admm"), np.errstate(invalid="ignore"):
        got = update_local(state, [0, 1], tol=1e-9, max_iter=20_000)
    np.testing.assert_array_equal(got[0], alone[0])
    assert np.isnan(got[1]).all()
    assert [r.getMessage().split(" local")[0] for r in caplog.records] == ["ED 1"]


@pytest.mark.parametrize("varrho", [0.2, 0.0])
def test_batched_solve_with_no_iterations_returns_the_warm_start(varrho, caplog):
    state = solve_instance(varrho)
    with caplog.at_level(logging.WARNING, logger="goalrba.admm"):
        got = update_local(state, [2, 0], max_iter=0)
    expected = [reference_update_local(as_lists(state), j, max_iter=0)[0] for j in (2, 0)]
    np.testing.assert_array_equal(got, np.stack(expected))
    np.testing.assert_array_equal(got, np.stack([state.thetas[2], state.thetas[0]]))
    # one warning per capped ED, in ascending id order, with the warm start's residual
    ref = as_lists(state)
    residuals = {}
    for j in (0, 2):
        theta = ref.thetas[j]
        grad = (ref.problems[j].smooth_grad(theta) + ref.lambdas[j]
                + ref.rho * (theta - ref.theta0))
        residuals[j] = reference_residual(theta, grad, varrho)
    assert all(np.isfinite(r) and r > 0 for r in residuals.values())
    assert [r.getMessage() for r in caplog.records] == [
        f"ED {j} local solve hit the 0-iteration cap (residual {residuals[j]:.3e})"
        for j in (0, 2)
    ]


def preset_state(varrho):
    """The admm preset's five EDs (rho=1, d=20, n=30), warm-started off the origin."""
    state = build_workload(load_config(CONFIGS / "admm.yaml")).state
    assert (state.rho, state.varrho, state.X.shape) == (1.0, 1e-4, (5, 20, 30))
    state.varrho = varrho
    rng = np.random.default_rng(6)
    state.theta0 = rng.normal(size=state.theta0.shape)
    state.thetas = rng.normal(size=state.thetas.shape)
    state.lambdas = 0.1 * rng.normal(size=state.lambdas.shape)
    return state


@pytest.mark.parametrize("rho", [1.0, 0.5, 0.3])
@pytest.mark.parametrize("varrho", [1e-4, 0.0])
def test_one_stacked_solve_of_the_preset_eds_matches_the_reference(varrho, rho):
    # rho = 1 is the preset's; a product with 1 or 0.5 is exact, so a skipped
    # rho * (theta - theta0) shows only at 0.5 and a reordered one only at 0.3
    state = preset_state(varrho)
    state.rho = rho
    ids = [3, 0, 4, 1, 2]
    ref = as_lists(state)
    expected = [reference_update_local(ref, j, max_iter=3000) for j in ids]
    # the EDs stop at different iterations, so the buffers shrink mid-solve
    assert len({len(residuals) for _, residuals, _ in expected}) > 1
    got = update_local(state, ids, max_iter=3000)
    np.testing.assert_array_equal(got, np.stack([theta for theta, _, _ in expected]))


def test_local_solves_leave_the_state_untouched():
    state = preset_state(1e-4)
    names = ("X", "Y", "theta0", "thetas", "lambdas")
    before = {name: getattr(state, name).copy() for name in names}
    solved = update_local(state, [3, 0, 4], max_iter=3000)
    new = run_round(state, [1, 2, 4], max_iter=3000)
    for name in names:
        np.testing.assert_array_equal(getattr(state, name), before[name])
    assert not np.shares_memory(solved, state.thetas)
    for name in ("theta0", "thetas", "lambdas"):
        assert not np.shares_memory(getattr(new, name), getattr(state, name))


def test_batched_rounds_match_the_reference_on_the_admm_preset():
    config = load_config(CONFIGS / "admm.yaml")
    workload = build_workload(config)
    params = workload.params
    reference = as_lists(workload.state)
    deltas = np.ones(params.num_eds)
    rng = np.random.default_rng(0)
    for k in range(20):
        selected = [] if k == 5 else sorted(
            rng.choice(params.num_eds, size=int(rng.integers(1, params.num_eds + 1)),
                       replace=False).tolist())
        workload.ingest(selected)
        batched = workload.state
        previous, reference = reference, reference_run_round(
            reference, selected, tol=params.solver_tol, max_iter=params.solver_cap)
        np.testing.assert_array_equal(batched.theta0, reference.theta0)
        for j in range(params.num_eds):
            np.testing.assert_array_equal(batched.thetas[j], reference.thetas[j])
            np.testing.assert_array_equal(batched.lambdas[j], reference.lambdas[j])
        assert augmented_lagrangian(batched) == reference_lagrangian(reference)
        for j in selected:
            deltas[j] = float(np.linalg.norm(reference.thetas[j] - previous.thetas[j], "fro") ** 2)
        assert workload.marginal_utilities().tolist() == deltas.tolist()


def test_dual_update_law():
    state = solve_instance(0.2)
    new = run_round(state, [0, 2])
    for j in (0, 2):
        np.testing.assert_array_equal(
            new.lambdas[j], state.lambdas[j] + state.rho * (new.thetas[j] - new.theta0)
        )
    for j in (1, 3):
        np.testing.assert_array_equal(new.lambdas[j], state.lambdas[j])


def test_augmented_lagrangian_hand_value():
    state = AdmmState(
        X=np.ones((1, 1, 1)),
        Y=np.zeros((1, 1, 1)),
        theta0=np.zeros((1, 1)),
        thetas=np.array([[[2.0]]]),
        lambdas=np.array([[[1.0]]]),
        rho=4.0,
        varrho=3.0,
    )
    # 0.5*(0 - 2)^2 + 3*|2| + 1*(2-0) + 2*(2-0)^2 = 2 + 6 + 2 + 8
    assert augmented_lagrangian(state) == pytest.approx(18.0)


def test_marginal_utility_is_the_squared_move():
    a = np.stack([np.ones((2, 2)), np.full((2, 2), 3.0)])
    b = np.zeros((2, 2, 2))
    np.testing.assert_allclose(admm_marginal_utility(a, b), [4.0, 36.0])


def test_run_round_freezes_unselected_eds():
    state, _ = make_admm_state(AdmmParams(num_eds=3, dim=4, samples_per_ed=6), 1)
    new = run_round(state, [1], tol=1e-10, max_iter=10_000)
    for j in (0, 2):
        np.testing.assert_array_equal(new.thetas[j], state.thetas[j])
        np.testing.assert_array_equal(new.lambdas[j], state.lambdas[j])
    assert not np.array_equal(new.thetas[1], state.thetas[1])


def certificate_ready_state(seed, num_eds=3, dim=5):
    state, _ = make_admm_state(
        AdmmParams(num_eds=num_eds, dim=dim, samples_per_ed=8,
                   noise_variance_slope=0.01, varrho=0.0, rho=1.0), seed
    )
    scale = np.sqrt(state.kappa)[:, None, None]
    state = dataclasses.replace(state, X=state.X / scale, Y=state.Y / scale)
    state.rho = float(1.5 * np.sqrt(2 * state.kappa.max()))
    # one full round puts every dual variable at its stationarity point
    return run_round(state, range(num_eds), tol=1e-12, max_iter=50_000)


def test_descent_certificate_and_dual_bound_after_warmup():
    rng = np.random.default_rng(0)
    state = certificate_ready_state(11)
    for k in range(5):
        selected = sorted(
            rng.choice(3, size=int(rng.integers(1, 4)), replace=False).tolist()
        )
        new = run_round(state, selected, tol=1e-12, max_iter=50_000)
        bound, holds = descent_certificate(state, new, selected)
        assert holds
        assert augmented_lagrangian(state) - augmented_lagrangian(new) >= bound - 1e-8
        for j in selected:
            dual_step = np.linalg.norm(new.lambdas[j] - state.lambdas[j], "fro")
            primal_step = np.linalg.norm(new.thetas[j] - state.thetas[j], "fro")
            assert dual_step <= state.kappa[j] * primal_step + 1e-8
        state = new


def test_descent_certificate_rejects_small_penalties():
    state, _ = make_admm_state(
        AdmmParams(num_eds=2, dim=4, samples_per_ed=6, varrho=0.0, rho=0.1), 0
    )
    new = run_round(state, [0, 1], tol=1e-10, max_iter=10_000)
    with pytest.raises(PenaltyRegimeError):
        descent_certificate(state, new, [0, 1])


def test_relative_gap_definition():
    state, theta_true = make_admm_state(AdmmParams(num_eds=2, dim=4, samples_per_ed=6), 0)
    state.theta0 = theta_true.copy()
    assert relative_gap(state, theta_true) == 0.0
    state.theta0 = theta_true * 1.01
    assert relative_gap(state, theta_true) == pytest.approx(0.01)


def test_workload_retains_deltas_for_frozen_eds():
    wl = AdmmWorkload(AdmmParams(num_eds=4, dim=6, samples_per_ed=8), seed=0)
    first = wl.marginal_utilities()
    assert all(v == 1.0 for v in first)  # uniform bootstrap
    wl.ingest([0, 2])
    second = wl.marginal_utilities()
    assert second[1] == 1.0 and second[3] == 1.0
    assert second[0] != 1.0 and second[2] != 1.0
    # below the certificate regime descent is not guaranteed; the goal just
    # has to stay finite
    assert np.isfinite(wl.goal_value())


def test_state_validation():
    def args(**changes):
        valid = dict(
            X=np.ones((2, 2, 3)), Y=np.ones((2, 2, 3)), theta0=np.zeros((2, 2)),
            thetas=np.zeros((2, 2, 2)), lambdas=np.zeros((2, 2, 2)), rho=1.0, varrho=0.0,
        )
        return {**valid, **changes}

    AdmmState(**args())
    for changes in [
        dict(rho=-1.0),
        dict(varrho=-0.1),
        dict(thetas=np.zeros((2, 3, 3))),  # not d x d
        dict(lambdas=np.zeros((2, 3, 3))),
        dict(Y=np.ones((2, 3, 3))),  # X and Y of different shapes
        dict(X=np.ones((3, 2, 3)), Y=np.ones((3, 2, 3))),  # three EDs' data, two EDs' copies
        dict(theta0=np.zeros((2, 3))),
        dict(X=np.ones((2, 3)), Y=np.ones((2, 3))),  # not a stack
        dict(X=[np.ones((2, 3)), np.ones((2, 4))]),  # EDs with different sample counts
    ]:
        with pytest.raises(ValueError):
            AdmmState(**args(**changes))
