"""Consensus ADMM for distributed sparse system identification.

Each ED holds observations Y_j = theta X_j + noise and a local lasso-style
objective; the server keeps the consensus copy. Rounds run the three-step
update with partial participation, and a descent certificate with explicit
constants is available in the smooth (no-l1) regime.

The state is stacked over the J EDs: data (J, d, n), local copies and duals
(J, d, d). The selected EDs' local ISTA solves run batched on their rows with
one gradient per iteration. Each ED stops at its own iteration, and its
iterates are the same floats as those of a solve on its own.
"""

from __future__ import annotations

import copy
import logging
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from .workload import Workload, check_fields, ranged

logger = logging.getLogger(__name__)


class PenaltyRegimeError(ValueError):
    """Penalty below certificate regime: rho/2 - kappa_j/rho not positive."""


@dataclass
class EdLocalProblem:
    """One ED's data: observations Y, states X, and the smooth-part constant.

    One row of AdmmState on its own: the state takes each row's kappa from
    it, and the stacked gradient kernel matches its smooth_grad.
    """

    Y: np.ndarray
    X: np.ndarray
    kappa: float = field(init=False)

    def __post_init__(self):
        self.Y = np.asarray(self.Y, dtype=float)
        self.X = np.asarray(self.X, dtype=float)
        if self.Y.shape[1] != self.X.shape[1]:
            raise ValueError("Y and X must have matching sample counts")
        # Largest singular value of X X^T: Lipschitz constant of the smooth part.
        self.kappa = float(np.linalg.norm(self.X @ self.X.T, 2))

    def smooth_grad(self, theta: np.ndarray) -> np.ndarray:
        return (theta @ self.X - self.Y) @ self.X.T


@dataclass
class AdmmState:
    """Full consensus-ADMM state at one round, stacked over the J EDs.

    X and Y are (J, d, n): every ED shares one sample count n. thetas and
    lambdas are (J, d, d), theta0 is d x d. kappa (J,) holds each ED's
    EdLocalProblem.kappa, computed once here. EDs with different sample
    counts, or any mismatched shape, raise ValueError at construction.
    """

    X: np.ndarray
    Y: np.ndarray
    theta0: np.ndarray
    thetas: np.ndarray
    lambdas: np.ndarray
    rho: float
    varrho: float
    kappa: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.rho <= 0:
            raise ValueError(f"penalty rho must be positive, got {self.rho}")
        if self.varrho < 0:
            raise ValueError(f"sparsity weight must be non-negative, got {self.varrho}")
        # A ragged list (EDs with different sample counts) fails in asarray.
        X = self.X = np.asarray(self.X, dtype=float)
        Y = self.Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 3 or X.shape != Y.shape:
            raise ValueError(f"X and Y must share one (J, d, n) shape, got {X.shape}, {Y.shape}")
        J, d, _ = X.shape
        shapes = (self.theta0.shape, self.thetas.shape, self.lambdas.shape)
        if shapes != ((d, d), (J, d, d), (J, d, d)):
            raise ValueError(
                f"theta0, thetas and lambdas must be {d}x{d}, {J}x{d}x{d}, {J}x{d}x{d}, "
                f"got {shapes}"
            )
        self.kappa = np.array([EdLocalProblem(y, x).kappa for y, x in zip(Y, X)])

    def clone(self) -> "AdmmState":
        """Copy of the iterates; the data and kappa are shared, never written."""
        out = copy.copy(self)
        out.theta0, out.thetas, out.lambdas = (
            self.theta0.copy(), self.thetas.copy(), self.lambdas.copy()
        )
        return out


def make_admm_state(params: AdmmParams, seed) -> Tuple[AdmmState, np.ndarray]:
    """Seeded system-identification instance; returns (state, true matrix).

    ED j's observation noise has variance noise_variance_slope * (j+1), so
    devices see different data quality.
    """
    num_eds, dim, samples_per_ed = params.num_eds, params.dim, params.samples_per_ed
    rng = np.random.default_rng(seed)
    theta_true = rng.normal(size=(dim, dim))
    theta_true[rng.random(size=(dim, dim)) < params.sparsity] = 0.0
    X = np.empty((num_eds, dim, samples_per_ed))
    Y = np.empty_like(X)
    for j in range(num_eds):
        X[j] = rng.normal(size=(dim, samples_per_ed))
        noise = rng.normal(
            scale=np.sqrt(params.noise_variance_slope * (j + 1)), size=(dim, samples_per_ed)
        )
        Y[j] = theta_true @ X[j] + noise
    state = AdmmState(
        X=X,
        Y=Y,
        theta0=np.zeros((dim, dim)),
        thetas=np.zeros((num_eds, dim, dim)),
        lambdas=np.zeros((num_eds, dim, dim)),
        rho=params.rho,
        varrho=params.varrho,
    )
    return state, theta_true


def update_consensus(state: AdmmState) -> np.ndarray:
    """Closed-form minimizer of the augmented Lagrangian in theta0."""
    return (state.thetas + state.lambdas / state.rho).mean(axis=0)


def _row_views(stack):
    """(rows, cols) views of a (K, d, d) stack: its rows as (K, 1, d²), and their transposes.

    np.matmul(rows, cols) is each row's sum of squares, (K, 1, 1), through
    the same BLAS dot as np.linalg.norm(row, "fro"), so the same float; a
    sum over axes (1, 2) adds in another order and can flip a stop.
    """
    rows = stack.reshape(len(stack), 1, -1)
    return rows, rows.transpose(0, 2, 1)


def _row_norms(stack):
    """Frobenius norm of each (d, d) row of a (K, d, d) stack, as a (K,) array."""
    return np.sqrt(np.matmul(*_row_views(stack)).ravel())


def _squared_tol(tol):
    """The largest double s with sqrt(s) <= tol, for tol >= 0.

    sqrt rounds correctly, so it is monotone, and s <= _squared_tol(tol)
    holds exactly when np.sqrt(s) <= tol. tol * tol lies a few doubles from
    it at most, so a few nextafter steps reach it.
    """
    tol = float(tol)
    s = tol * tol
    while s > 0 and math.sqrt(s) > tol:
        s = math.nextafter(s, -math.inf)
    while s < math.inf and math.sqrt(math.nextafter(s, math.inf)) <= tol:
        s = math.nextafter(s, math.inf)
    return s


def _stop_residuals(theta, grad, varrho, sub, tmp, nonzero):
    """Each row's minimum-norm subgradient residual; sub, tmp, nonzero are scratch.

    The subgradient is grad where varrho is 0; otherwise, where theta != 0,
    grad + varrho * sign(theta), and elsewhere grad soft-thresholded at
    varrho, sign(grad) * max(|grad| - varrho, 0).
    """
    if varrho == 0:
        return _row_norms(grad)
    np.abs(grad, out=sub)
    sub -= varrho
    np.maximum(sub, 0.0, out=sub)
    np.sign(grad, out=tmp)
    sub *= tmp
    np.sign(theta, out=tmp)
    tmp *= varrho
    tmp += grad
    np.not_equal(theta, 0.0, out=nonzero)
    np.putmask(sub, nonzero, tmp)
    return _row_norms(sub)


def update_local(
    state: AdmmState,
    ed_ids: Sequence[int],
    theta0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> np.ndarray:
    """Proximal-gradient (ISTA) solves of the given EDs' subproblems, batched.

    ED j minimizes 0.5*||Y_j - theta X_j||^2 + varrho*||.||_1 + <lambda_j, theta - theta0>
    + (rho/2)*||theta - theta0||^2 with step 1/(kappa_j + rho), warm-started
    at theta_j. All EDs iterate together on stacked (K, d, d) arrays, with
    one gradient per iteration; each ED stops at its own iteration, when its
    minimum-norm subgradient residual reaches tol, and then leaves the stack.
    An ED that reaches the iteration cap instead is logged with its exact
    residual, not fatal. Each ED's iterates are those of a solve on its own.
    ed_ids must not be empty; the K solutions come back stacked in its order.

    At (K, 20, 20) an iteration costs about one numpy call's overhead per
    op, so the loop makes as few calls as it can: 17 per iteration. It runs
    on buffers allocated once per call: the threshold step * varrho is checked once,
    before the loop, and every elementwise op and matmul writes into a
    buffer. The active EDs sit in the leading rows of every buffer, and the
    views of them the loop reads (Xᵀ and the screen's rows) are made again
    only when EDs leave. step, tau, -tau, theta0, rho, varrho and 0 are
    expanded to full (K, d, d) buffers once, because a broadcast or scalar
    operand makes every op slower and the values are the same. Xᵀ stays a
    transposed view: a contiguous copy of it gives other products.

    The soft-threshold v -> sign(v) * max(|v| - tau, 0) is v - clip(v, -tau,
    tau), in three calls: np.minimum with tau, np.maximum with -tau, and a
    subtraction from v. Where |v| > tau, clip gives +-tau and v -+ tau is
    the same rounded float as sign(v) * (|v| - tau), since rounding to
    nearest is symmetric; inf, NaN and tau = 0 give the same values too.
    Where |v| <= tau both give a zero, but not always of the same sign:
    sign(v) * 0.0 is -0.0 for negative v, and v - v is +0.0. Zeros of either
    sign compare equal and give equal values in every later op of the solve
    (a product with them is a zero, a sum with a nonzero is that nonzero,
    and the stop test squares them), so no iterate or stop moves.

    The stop test is screened. sub = max(|grad| - varrho, 0), in three ops,
    is the subgradient where theta == 0 up to sign, and the sums of squares
    of its rows bound the exact squared residuals from below in floats:
    rounding to nearest is monotone, so |fl(g +- varrho)| >= fl(|g| -
    varrho) entry by entry, and a sum of squares of non-negative entries
    through the same BLAS dot on the same buffer is monotone too. With
    varrho = 0 the residual is grad's norm and the screen is exact. The
    screen takes no sqrt: it compares the sums of squares with
    _squared_tol(tol), the largest double whose sqrt is <= tol. Only when
    some row passes is the exact residual computed, so a screened iteration
    never hides a stop; NaN fails both tests. At the cap the exact
    residuals of the EDs still active are computed for the log (the warm
    start's, at a cap of 0). The state is never written.
    """
    ids = list(ed_ids)
    if not ids:
        raise ValueError("ed_ids must not be empty")
    theta0 = state.theta0 if theta0 is None else theta0
    rho, varrho = state.rho, state.varrho
    # Fancy indexing copies, so these are buffers of this call's own.
    X, Y, lam, theta = state.X[ids], state.Y[ids], state.lambdas[ids], state.thetas[ids]
    step = 1.0 / (state.kappa[ids] + rho)[:, None, None]
    tau = step * varrho
    if np.any(tau < 0):
        raise ValueError(f"threshold must be non-negative, got {tau}")
    step, tau, theta0, rhos, varrhos, zeros = (
        np.broadcast_to(a, theta.shape).copy() for a in (step, tau, theta0, rho, varrho, 0.0)
    )
    neg_tau = -tau
    pred = np.empty_like(X)
    grad, tmp, sub, out = (np.empty_like(theta) for _ in range(4))
    nonzero = np.empty(theta.shape, dtype=bool)
    k = len(ids)
    sq = np.empty((k, 1, 1))
    tol_sq = _squared_tol(tol)
    Xt = X.transpose(0, 2, 1)
    # With varrho = 0 grad is the subgradient, and the screen reads it.
    rows, cols = _row_views(sub if varrho else grad)
    active = np.arange(k)
    residual = np.full(k, np.inf)
    # Iteration 0 only takes the warm start's gradient.
    for it in range(max_iter + 1):
        if it:
            # v = theta - step * grad; theta = v - clip(v, -tau, tau)
            np.multiply(step, grad, out=tmp)
            np.subtract(theta, tmp, out=tmp)
            np.minimum(tmp, tau, out=theta)
            np.maximum(theta, neg_tau, out=theta)
            np.subtract(tmp, theta, out=theta)
        # grad = smooth_grad(theta) + lam + rho * (theta - theta0), row by
        # row the ops of EdLocalProblem.smooth_grad in the same order.
        np.matmul(theta, X, out=pred)
        pred -= Y
        np.matmul(pred, Xt, out=grad)
        grad += lam
        np.subtract(theta, theta0, out=tmp)
        np.multiply(tmp, rhos, out=tmp)
        grad += tmp
        if not it:
            continue
        if varrho:
            np.abs(grad, out=sub)
            np.subtract(sub, varrhos, out=sub)
            np.maximum(sub, zeros, out=sub)
        np.matmul(rows, cols, out=sq)
        # fmin skips NaN rows, so a diverged ED cannot hide another's stop.
        if not np.fmin.reduce(sq, axis=None) <= tol_sq:
            continue
        residual = _stop_residuals(theta, grad, varrho, sub, tmp, nonzero)
        done = residual <= tol
        if not done.any():
            continue
        out[active[done]] = theta[done]
        keep = ~done
        active = active[keep]
        k = active.size
        for a in (theta, grad, X, Y, lam, step, tau, neg_tau):
            a[:k] = a[keep]
        # Every buffer keeps its leading k rows; those not compacted above
        # have all rows equal (theta0, rhos, varrhos, zeros) or are scratch.
        (theta, grad, X, Y, lam, step, tau, neg_tau, theta0, rhos, varrhos, zeros,
         pred, tmp, sub, nonzero, sq) = (
            a[:k]
            for a in (theta, grad, X, Y, lam, step, tau, neg_tau, theta0, rhos, varrhos, zeros,
                      pred, tmp, sub, nonzero, sq)
        )
        if not k:
            break
        Xt = X.transpose(0, 2, 1)
        rows, cols = _row_views(sub if varrho else grad)
    if k:
        residual = _stop_residuals(theta, grad, varrho, sub, tmp, nonzero)
    out[active] = theta
    for ed_id, res in sorted(zip((ids[i] for i in active), residual)):
        logger.warning(
            "ED %d local solve hit the %d-iteration cap (residual %.3e)", ed_id, max_iter, res
        )
    return out


def augmented_lagrangian(state: AdmmState) -> float:
    """Sum of local objectives, dual couplings, and quadratic penalties, ED by ED."""
    total = 0.0
    for X, Y, theta, lam in zip(state.X, state.Y, state.thetas, state.lambdas):
        diff = theta - state.theta0
        total += 0.5 * float(np.linalg.norm(Y - theta @ X, "fro") ** 2)
        total += state.varrho * float(np.abs(theta).sum())
        total += float(np.sum(lam * diff))
        total += 0.5 * state.rho * float(np.linalg.norm(diff, "fro") ** 2)
    return total


def admm_marginal_utility(theta_curr: np.ndarray, theta_prev: np.ndarray) -> np.ndarray:
    """Utility surrogate: squared Frobenius change of each (K, d, d) row's copy.

    Row by row, as a scalar ** 2 can round differently from an array square.
    """
    return np.array([np.linalg.norm(m, "fro") ** 2 for m in theta_curr - theta_prev])


def run_round(
    state: AdmmState,
    selected: Iterable[int],
    tol: float = 1e-8,
    max_iter: int = 500,
) -> AdmmState:
    """One three-step round: consensus, selected-ED locals, selected-ED duals.

    The selected EDs' duals ascend by rho * (theta_j - theta0); unselected
    EDs keep their primal and dual variables unchanged.
    """
    selected = sorted(set(selected))
    out = state.clone()
    out.theta0 = update_consensus(state)
    if selected:
        new = update_local(state, selected, theta0=out.theta0, tol=tol, max_iter=max_iter)
        out.thetas[selected] = new
        out.lambdas[selected] = state.lambdas[selected] + state.rho * (new - out.theta0)
    return out


def descent_certificate(
    state_k: AdmmState,
    state_k1: AdmmState,
    selected: Iterable[int],
    tolerance: float = 1e-8,
) -> Tuple[float, bool]:
    """Explicit-constant descent bound for one smooth-mode round.

    bound = sum over selected of (rho/2 - kappa_j/rho)*||dtheta_j||^2
    + (rho/2)*||dtheta0||^2; holds when the Lagrangian drop covers it.
    Requires rho/2 - kappa_j/rho > 0 for every selected ED.
    """
    selected = sorted(set(selected))
    rho = state_k.rho
    bound = 0.5 * rho * float(np.linalg.norm(state_k1.theta0 - state_k.theta0, "fro") ** 2)
    for j in selected:
        kappa = float(state_k.kappa[j])
        coeff = rho / 2 - kappa / rho
        if coeff <= 0:
            raise PenaltyRegimeError(
                f"penalty below certificate regime: rho/2 - kappa_{j}/rho = {coeff:.3g}"
            )
        bound += coeff * float(
            np.linalg.norm(state_k1.thetas[j] - state_k.thetas[j], "fro") ** 2
        )
    drop = augmented_lagrangian(state_k) - augmented_lagrangian(state_k1)
    return bound, drop >= bound - tolerance


def relative_gap(state: AdmmState, theta_true: np.ndarray) -> float:
    """Frobenius distance of the consensus copy to the true matrix, relative."""
    return float(
        np.linalg.norm(state.theta0 - theta_true, "fro")
        / np.linalg.norm(theta_true, "fro")
    )


@dataclass(frozen=True)
class AdmmParams:
    """Scenario parameters; the default desk preset keeps rounds fast."""

    num_eds: int = ranged(5, "[1, inf)")
    dim: int = ranged(20, "[1, inf)")
    samples_per_ed: int = ranged(30, "[1, inf)")
    noise_variance_slope: float = ranged(0.015, "[0, inf)")
    varrho: float = ranged(0.1, "[0, inf)")
    rho: float = ranged(0.1, "(0, inf)")
    sparsity: float = ranged(0.5, "[0, 1]")
    solver_tol: float = ranged(1e-8, "(0, inf)")
    solver_cap: int = ranged(500, "[0, inf)")
    bits_per_entry: float = ranged(32.0, "[0, inf)")

    def __post_init__(self):
        check_fields(self)


class AdmmWorkload(Workload):
    """Distributed system identification under RB-budgeted participation.

    Delta for an ED is the squared change of its local copy in its last
    participating round; it is retained (not zeroed) while the ED sits out,
    so frozen EDs stay eligible for selection.

    The goal is the augmented Lagrangian. A round is guaranteed not to raise
    it only in the certificate regime rho/2 > kappa_j/rho for every selected
    ED (see descent_certificate). Outside it the goal can rise as data is
    added: the admm preset (rho = 1, kappa_j between 70 and 96) raises it
    in 196 of its 200 rounds at seed 3. The goal is memoised per state:
    only ``ingest`` replaces the state, and it drops the memo with it, so
    each round's goal before ingest reuses the last round's goal after it.
    """

    _goal: Optional[float] = None

    def __init__(self, params: AdmmParams, seed):
        self.params = params
        self.num_eds = params.num_eds
        self.state, self.theta_true = make_admm_state(params, seed)
        # No change history yet: uniform positive deltas let the first-round
        # selection be driven by the budget and channel alone.
        self._deltas = np.ones(params.num_eds)

    def marginal_utilities(self) -> np.ndarray:
        return self._deltas.copy()

    def ingest(self, selected: Sequence[int]) -> None:
        new_state = run_round(
            self.state, selected, tol=self.params.solver_tol, max_iter=self.params.solver_cap
        )
        self._deltas[selected] = admm_marginal_utility(
            new_state.thetas[selected], self.state.thetas[selected]
        )
        self.state, self._goal = new_state, None

    def goal_value(self) -> float:
        if self._goal is None:
            self._goal = augmented_lagrangian(self.state)
        return self._goal

    def payload_bits(self) -> np.ndarray:
        # Primal and dual copies are both transmitted.
        return np.full(self.num_eds, 2 * self.state.theta0.size * self.params.bits_per_entry)

    def relative_gap(self) -> float:
        return relative_gap(self.state, self.theta_true)
