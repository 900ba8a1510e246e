"""From-scratch MLP plus the edge-learning and federated-learning workloads.

The network is input -> hidden (ReLU) -> softmax, trained with mini-batch SGD
and momentum. Edge learning prices raw samples by their loss under the
current model; federated learning prices clients by their weighted gradient
norm and checks the smooth-descent bound each round.

The MLP keeps its weights in one flat float64 buffer, ``Mlp.params``, and
``W1``, ``b1``, ``W2`` and ``b2`` are reshaped views into it, so SGD and
aggregation update the network in place without concatenating or copying.
Both learning workloads share one goal, the mean training loss, memoised per
model state: ``ingest`` is the only method that changes the model, and it
drops the memo before it trains, so each round's goal before ingest reuses
the previous round's goal after it.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import data as datasets
from .workload import ConfigError, Workload, check_fields, ranged

_PROB_FLOOR = 1e-12
# A logit bound at or below this proves the loss finite: float64 overflows
# above 1.7e308, and the rounding in the forward is about 1e-13 relative.
_LOGIT_LIMIT = 1e300


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class Mlp:
    """Two-layer perceptron with ReLU hidden units and softmax outputs.

    ``params`` is the flat buffer (W1, b1, W2, b2 in that order) and the four
    weight attributes are views into it. Write into the buffer, never rebind
    it or the views.
    """

    def __init__(self, input_dim: int = 784, hidden_dim: int = 64,
                 output_dim: int = 10, seed=0):
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim
        shapes = ((input_dim, hidden_dim), (hidden_dim,), (hidden_dim, output_dim), (output_dim,))
        sizes = [int(np.prod(shape)) for shape in shapes]
        self.params = np.zeros(sum(sizes))
        pieces = np.split(self.params, np.cumsum(sizes)[:-1])
        self.W1, self.b1, self.W2, self.b2 = (
            piece.reshape(shape) for piece, shape in zip(pieces, shapes)
        )
        self.W1[...] = rng.normal(scale=np.sqrt(2.0 / input_dim), size=(input_dim, hidden_dim))
        self.W2[...] = rng.normal(scale=np.sqrt(2.0 / hidden_dim), size=(hidden_dim, output_dim))

    @property
    def num_params(self) -> int:
        return self.params.size

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.num_params:
            raise ValueError(f"expected {self.num_params} parameters, got {flat.size}")
        self.params[...] = flat.ravel()

    def copy(self) -> "Mlp":
        clone = Mlp(self.input_dim, self.hidden_dim, self.output_dim, seed=0)
        clone.set_params(self.params)
        return clone

    def forward(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Softmax class probabilities and the hidden activations."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        hidden = np.maximum(X @ self.W1 + self.b1, 0.0)
        logits = hidden @ self.W2 + self.b2
        logits = logits - logits.max(axis=1, keepdims=True)
        exps = np.exp(logits)
        probs = exps / exps.sum(axis=1, keepdims=True)
        return probs, hidden

    def predict(self, X: np.ndarray) -> np.ndarray:
        probs, _ = self.forward(X)
        return probs.argmax(axis=1)


def per_sample_loss(model: Mlp, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cross-entropy of each sample under the model."""
    probs, _ = model.forward(X)
    y = np.atleast_1d(np.asarray(y, dtype=int))
    if probs.shape[0] != y.shape[0]:
        raise ValueError("feature rows and labels disagree")
    picked = probs[np.arange(len(y)), y]
    return -np.log(np.maximum(picked, _PROB_FLOOR))


def loss(model: Mlp, X: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy over a nonempty sample set."""
    if len(np.atleast_1d(y)) == 0:
        raise ValueError("loss requires a nonempty sample set")
    return float(per_sample_loss(model, X, y).mean())


def _abs_max(a: np.ndarray) -> float:
    """max|a| without an |a| temporary; NaN if a holds a NaN."""
    return float(np.maximum(a.max(), -a.min()))


def input_scale(X: np.ndarray) -> float:
    """Bound on the l1 norm of every row of X: columns times max|X|."""
    return X.shape[1] * _abs_max(X)


def logit_bound(model: Mlp, x_scale: float) -> float:
    """Bound on |hidden pre-activation| and |logit| for rows of l1 norm <= x_scale.

    |pre| <= x_scale * max|W1| + max|b1| = h, and
    |logit| <= hidden_dim * max|W2| * h + max|b2|; the larger of the two is
    returned, because a tiny W2 can keep the logit bound finite over a
    hidden unit that overflows. It is NaN when any weight or x_scale is NaN,
    and inf when one is infinite or the product overflows.
    """
    hidden = x_scale * _abs_max(model.W1) + _abs_max(model.b1)
    logits = model.hidden_dim * _abs_max(model.W2) * hidden + _abs_max(model.b2)
    return float(np.maximum(hidden, logits))


def gradient(model: Mlp, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Flat gradient of the mean cross-entropy at the model's weights."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    n = len(y)
    probs, hidden = model.forward(X)
    err = probs.copy()
    err[np.arange(n), y] -= 1.0
    err /= n
    dW2 = hidden.T @ err
    db2 = err.sum(axis=0)
    dhidden = err @ model.W2.T
    dhidden[hidden <= 0] = 0.0
    dW1 = X.T @ dhidden
    db1 = dhidden.sum(axis=0)
    return np.concatenate([dW1.ravel(), db1, dW2.ravel(), db2])


def local_gradient(
    model: Mlp,
    X: np.ndarray,
    y: np.ndarray,
    batch_size: Optional[int] = None,
    seed=None,
) -> np.ndarray:
    """Mini-batch mean gradient at the model's current weights."""
    y = np.atleast_1d(np.asarray(y, dtype=int))
    if len(y) == 0:
        raise ValueError("local_gradient requires a nonempty dataset")
    if batch_size is None or batch_size >= len(y):
        return gradient(model, X, y)
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(y), size=batch_size, replace=False)
    return gradient(model, np.atleast_2d(X)[idx], y[idx])


def sgd_train(
    model: Mlp,
    X: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int = 64,
    lr: float = 0.01,
    momentum: float = 0.9,
    seed=0,
    x_scale: Optional[float] = None,
) -> Mlp:
    """Mini-batch SGD with momentum, in place; returns the model.

    After each epoch the training loss must be finite, or DivergenceError
    names it. ``logit_bound`` settles that from the weights alone: a bound at
    most ``_LOGIT_LIMIT`` keeps every logit, and so every per-sample loss,
    finite. Only when the bound fails (a NaN or inf weight, or a huge one)
    does the full-set ``loss`` forward run to decide. ``x_scale`` must be
    ``input_scale(X)``; it is computed here when the caller does not keep it.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    if len(y) == 0:
        raise ValueError("sgd_train requires a nonempty dataset")
    if X.shape[0] != len(y):
        raise ValueError("feature rows and labels disagree")
    rng = np.random.default_rng(seed)
    velocity = np.zeros(model.num_params)
    if x_scale is None:
        x_scale = input_scale(X)
    for _ in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            batch = order[start : start + batch_size]
            grad = gradient(model, X[batch], y[batch])
            # velocity = momentum * velocity - lr * grad; params += velocity,
            # in place: the same operations in the same order (IEEE products
            # commute, so grad * lr has the bits of lr * grad).
            velocity *= momentum
            grad *= lr
            velocity -= grad
            model.params += velocity
        if not logit_bound(model, x_scale) <= _LOGIT_LIMIT:
            epoch_loss = loss(model, X, y)
            if not np.isfinite(epoch_loss):
                raise DivergenceError(f"divergence: training loss is {epoch_loss}")
    return model


def aggregate_step(
    theta: np.ndarray,
    gradients: Sequence[np.ndarray],
    counts: Sequence[float],
    eta: float,
) -> np.ndarray:
    """Sample-count-weighted gradient step over the selected clients.

    Empty selection skips the round and returns theta unchanged.
    """
    if len(gradients) == 0:
        return np.asarray(theta, dtype=float).copy()
    counts = np.asarray(counts, dtype=float)
    if len(counts) != len(gradients):
        raise ValueError("gradients and counts disagree")
    stacked = np.stack([np.asarray(g, dtype=float) for g in gradients])
    aggregated = (counts[:, None] * stacked).sum(axis=0) / counts.sum()
    return np.asarray(theta, dtype=float) - eta * aggregated


def federated_marginal_utility(
    g: np.ndarray, d_j: float, d_total: float, eta: float, kappa: float
) -> float:
    """Weighted gradient-norm utility: eta*(1 - kappa*eta/2)*||d_j g / d_total||^2."""
    if not 0 < eta < 2 / kappa:
        raise ValueError(f"eta must lie in (0, 2/kappa), got {eta}")
    scaled = (d_j / d_total) * np.asarray(g, dtype=float)
    return float(eta * (1 - kappa * eta / 2) * np.dot(scaled, scaled))


def descent_bound_check(
    loss_before: float,
    loss_after: float,
    g_tilde: np.ndarray,
    g_full: np.ndarray,
    eta: float,
    kappa: float,
    tolerance: float = 1e-10,
) -> Tuple[float, bool]:
    """Partial-participation descent bound on the loss drop of one round.

    bound = -eta*(1 - kappa*eta/2)*||g_tilde||^2 - eta*<g_full - g_tilde, g_tilde>;
    holds when loss_after - loss_before <= bound + tolerance. With
    g_tilde == g_full this reduces to the full-participation bound.
    """
    g_tilde = np.asarray(g_tilde, dtype=float)
    g_full = np.asarray(g_full, dtype=float)
    bound = -eta * (1 - kappa * eta / 2) * np.dot(g_tilde, g_tilde)
    bound -= eta * np.dot(g_full - g_tilde, g_tilde)
    return float(bound), (loss_after - loss_before) <= bound + tolerance


@dataclass
class _DataModelParams:
    """What both learning scenarios share: mixture data, non-iid split, MLP, lr.

    Each concentrated class needs a holder ED of its own (see split_non_iid).
    """

    num_eds: int = ranged(10, "[1, inf)")
    num_classes: int = ranged(10, "[1, inf)")
    dim: int = ranged(784, "[1, inf)")
    hidden_dim: int = ranged(64, "[1, inf)")
    train_per_class: int = ranged(200, "[1, inf)")
    test_per_class: int = ranged(60, "[1, inf)")
    lr: float = ranged(0.01, "(0, inf)")
    mean_scale: float = ranged(2.0, "[0, inf)")
    noise_scale: float = ranged(1.0, "[0, inf)")
    concentrated_classes: Tuple[int, ...] = ranged((6, 9), "[0, inf)")
    concentration: float = ranged(0.95, "[0, 1]")

    def __post_init__(self):
        check_fields(self)
        classes = self.concentrated_classes
        labels = all(c < self.num_classes for c in classes)
        if not labels or not len(set(classes)) == len(classes) <= self.num_eds:
            raise ConfigError(
                f"concentrated_classes must be distinct labels in [0, num_classes) = "
                f"[0, {self.num_classes}), at most num_eds = {self.num_eds}, got {classes!r}")


@dataclass
class EdgeLearningParams(_DataModelParams):
    """Desk-scale edge-learning scenario: synthetic mixture, non-iid shards."""

    batch_per_round: int = ranged(32, "[0, inf)")
    epochs_per_round: int = ranged(2, "[0, inf)")
    sgd_batch: int = ranged(64, "[1, inf)")
    momentum: float = ranged(0.9, "[0, 1)")
    bits_per_sample: float = ranged((784 + 1) * 8.0, "[0, inf)")


class _LearningWorkload(Workload):
    """What the two learning workloads share: data, goal and test accuracy.

    The goal is the model's mean training loss, memoised per model state.
    Only ``ingest`` changes the model, and it drops the memo before
    ``_train`` runs, so a failed ingest leaves no stale value.
    """

    _goal: Optional[float] = None

    def _make_data(self, params, data_seed, split_seed) -> None:
        """Draw the class mixture, split train and test, shard the training set."""
        X, y = datasets.make_gaussian_mixture(
            params.num_classes,
            params.dim,
            params.train_per_class + params.test_per_class,
            seed=data_seed,
            mean_scale=params.mean_scale,
            noise_scale=params.noise_scale,
        )
        n_train = params.num_classes * params.train_per_class
        self.X_train, self.y_train = X[:n_train], y[:n_train]
        self.X_test, self.y_test = X[n_train:], y[n_train:]
        self.shards = datasets.split_non_iid(
            self.y_train,
            params.num_eds,
            params.concentrated_classes,
            params.concentration,
            seed=split_seed,
        )

    @abc.abstractmethod
    def _train(self, selected: Iterable[int]) -> None:
        """Update the model with the data of the selected EDs."""

    def ingest(self, selected: Iterable[int]) -> None:
        self._goal = None
        self._train(selected)

    def goal_value(self) -> float:
        if self._goal is None:
            self._goal = loss(self.model, self.X_train, self.y_train)
        return self._goal

    def test_accuracy(self) -> float:
        return float((self.model.predict(self.X_test) == self.y_test).mean())


class EdgeLearningWorkload(_LearningWorkload):
    """Raw-sample selection: EDs offer batches priced by current model loss."""

    def __init__(self, params: EdgeLearningParams, seed):
        self.params = params
        self.num_eds = params.num_eds
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        data_seed, split_seed, model_seed, train_seed = seq.spawn(4)
        self._make_data(params, data_seed, split_seed)
        self._offsets = [0] * params.num_eds
        self.model = Mlp(params.dim, params.hidden_dim, params.num_classes, seed=model_seed)
        self._train_rng = np.random.default_rng(train_seed)
        self.collected: List[int] = []
        # The collected rows in collection order; SGD trains on the filled prefix.
        self._X_collected = np.empty_like(self.X_train)
        self._y_collected = np.empty_like(self.y_train)
        # input_scale of that prefix, kept as rows arrive: the largest
        # input_scale of the appended blocks is exactly it, and np.maximum
        # keeps a NaN.
        self._x_scale = -np.inf

    def _offered(self, ed_id: int) -> np.ndarray:
        start = self._offsets[ed_id]
        return self.shards[ed_id][start : start + self.params.batch_per_round]

    def marginal_utilities(self) -> np.ndarray:
        out = np.zeros(self.num_eds)
        for ed_id in range(self.num_eds):
            idx = self._offered(ed_id)
            if len(idx):
                losses = per_sample_loss(self.model, self.X_train[idx], self.y_train[idx])
                out[ed_id] = losses.sum()
        return out

    def _train(self, selected: Iterable[int]) -> None:
        added = []
        for ed_id in selected:
            idx = self._offered(ed_id)
            added.extend(idx.tolist())
            self._offsets[ed_id] += len(idx)
        start = len(self.collected)
        self.collected.extend(added)
        n = len(self.collected)
        self._X_collected[start:n] = self.X_train[added]
        self._y_collected[start:n] = self.y_train[added]
        if added:
            new_scale = input_scale(self._X_collected[start:n])
            self._x_scale = float(np.maximum(self._x_scale, new_scale))
        if n:
            sgd_train(
                self.model,
                self._X_collected[:n],
                self._y_collected[:n],
                epochs=self.params.epochs_per_round,
                batch_size=self.params.sgd_batch,
                lr=self.params.lr,
                momentum=self.params.momentum,
                seed=self._train_rng.integers(2**32),
                x_scale=self._x_scale,
            )

    def payload_bits(self) -> np.ndarray:
        offered = [len(self._offered(ed_id)) for ed_id in range(self.num_eds)]
        return np.array(offered, dtype=float) * self.params.bits_per_sample

    def throughput(self, selected: Iterable[int]) -> int:
        return int(sum(len(self._offered(ed_id)) for ed_id in selected))


@dataclass
class FederatedParams(_DataModelParams):
    """Desk-scale federated scenario sharing the edge-learning data model."""

    batch_size: int = ranged(64, "[1, inf)")
    kappa: float = ranged(1.0, "(0, inf)")
    bits_per_weight: float = ranged(32.0, "[0, inf)")
    # Data-volume heterogeneity: this fraction of the non-holder clients keeps
    # only data_poor_keep of its shard, so sample-count weighting makes their
    # updates nearly worthless while their uplink cost stays the same.
    data_poor_fraction: float = ranged(0.0, "[0, 1]")
    data_poor_keep: float = ranged(1.0, "(0, 1]")

    def __post_init__(self):
        super().__post_init__()
        if not self.lr < 2 / self.kappa:
            raise ConfigError(f"lr must lie in (0, 2/kappa) = (0, {2 / self.kappa}), got {self.lr}")


class FederatedWorkload(_LearningWorkload):
    """Gradient-norm client selection with partial aggregation per round."""

    def __init__(self, params: FederatedParams, seed):
        self.params = params
        self.num_eds = params.num_eds
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        data_seed, split_seed, model_seed, batch_seed, poor_seed = seq.spawn(5)
        self._make_data(params, data_seed, split_seed)
        if params.data_poor_fraction > 0.0:
            # Concentrated-class holders sit at the tail of the shard list;
            # thin out only the interchangeable common-class clients.
            rng = np.random.default_rng(poor_seed)
            num_common = params.num_eds - len(params.concentrated_classes)
            num_poor = int(round(params.data_poor_fraction * params.num_eds))
            num_poor = min(num_poor, num_common)
            poor = rng.choice(num_common, size=num_poor, replace=False)
            for j in poor:
                shard = self.shards[j]
                keep = max(1, int(round(params.data_poor_keep * len(shard))))
                self.shards[j] = shard[
                    rng.choice(len(shard), size=keep, replace=False)
                ]
        self.counts = np.array([len(s) for s in self.shards], dtype=float)
        self.model = Mlp(params.dim, params.hidden_dim, params.num_classes, seed=model_seed)
        self._batch_rng = np.random.default_rng(batch_seed)
        self._round_grads: Optional[List[np.ndarray]] = None

    def begin_round(self, round_idx: int) -> None:
        self._round_grads = [
            local_gradient(
                self.model,
                self.X_train[shard],
                self.y_train[shard],
                batch_size=self.params.batch_size,
                seed=self._batch_rng.integers(2**32),
            )
            for shard in self.shards
        ]

    def marginal_utilities(self) -> np.ndarray:
        if self._round_grads is None:
            self.begin_round(0)
        total = self.counts.sum()
        return np.array([
            federated_marginal_utility(g, self.counts[j], total, self.params.lr, self.params.kappa)
            for j, g in enumerate(self._round_grads)
        ])

    def _train(self, selected: Iterable[int]) -> None:
        selected = sorted(selected)
        if self._round_grads is None:
            self.begin_round(0)
        if selected:
            grads = [self._round_grads[j] for j in selected]
            counts = [self.counts[j] for j in selected]
            self.model.set_params(
                aggregate_step(self.model.params, grads, counts, self.params.lr)
            )

    def payload_bits(self) -> np.ndarray:
        return np.full(self.num_eds, self.model.num_params * self.params.bits_per_weight)
