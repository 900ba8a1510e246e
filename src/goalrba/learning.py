"""From-scratch MLP plus the edge-learning and federated-learning workloads.

The network is input -> hidden (ReLU) -> softmax, trained with mini-batch SGD
and momentum. Edge learning prices raw samples by their loss under the
current model; federated learning prices clients by their weighted gradient
norm and checks the smooth-descent bound each round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from . import data as datasets
from .workload import Workload

_PROB_FLOOR = 1e-12


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class Mlp:
    """Two-layer perceptron with ReLU hidden units and softmax outputs."""

    def __init__(self, input_dim: int = 784, hidden_dim: int = 64,
                 output_dim: int = 10, seed=0):
        rng = np.random.default_rng(seed)
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.output_dim = output_dim
        self.W1 = rng.normal(scale=np.sqrt(2.0 / input_dim), size=(input_dim, hidden_dim))
        self.b1 = np.zeros(hidden_dim)
        self.W2 = rng.normal(scale=np.sqrt(2.0 / hidden_dim), size=(hidden_dim, output_dim))
        self.b2 = np.zeros(output_dim)

    @property
    def num_params(self) -> int:
        return self.W1.size + self.b1.size + self.W2.size + self.b2.size

    def get_params(self) -> np.ndarray:
        return np.concatenate(
            [self.W1.ravel(), self.b1, self.W2.ravel(), self.b2]
        )

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.num_params:
            raise ValueError(f"expected {self.num_params} parameters, got {flat.size}")
        s0 = self.W1.size
        s1 = s0 + self.b1.size
        s2 = s1 + self.W2.size
        self.W1 = flat[:s0].reshape(self.W1.shape).copy()
        self.b1 = flat[s0:s1].copy()
        self.W2 = flat[s1:s2].reshape(self.W2.shape).copy()
        self.b2 = flat[s2:].copy()

    def copy(self) -> "Mlp":
        clone = Mlp(self.input_dim, self.hidden_dim, self.output_dim, seed=0)
        clone.set_params(self.get_params())
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
) -> Mlp:
    """Mini-batch SGD with momentum, in place; returns the model."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    if len(y) == 0:
        raise ValueError("sgd_train requires a nonempty dataset")
    rng = np.random.default_rng(seed)
    velocity = np.zeros(model.num_params)
    for _ in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            batch = order[start : start + batch_size]
            grad = gradient(model, X[batch], y[batch])
            velocity = momentum * velocity - lr * grad
            model.set_params(model.get_params() + velocity)
        epoch_loss = loss(model, X, y)
        if not np.isfinite(epoch_loss):
            raise DivergenceError(f"divergence: training loss is {epoch_loss}")
    return model


def edge_marginal_utility(model: Mlp, x: np.ndarray, y) -> float:
    """Loss of the existing model on one candidate sample."""
    return float(per_sample_loss(model, np.atleast_2d(x), [int(y)])[0])


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
class EdgeLearningParams:
    """Desk-scale edge-learning scenario: synthetic mixture, non-iid shards."""

    num_eds: int = 10
    num_classes: int = 10
    dim: int = 784
    hidden_dim: int = 64
    train_per_class: int = 200
    test_per_class: int = 60
    batch_per_round: int = 32
    epochs_per_round: int = 2
    sgd_batch: int = 64
    lr: float = 0.01
    momentum: float = 0.9
    mean_scale: float = 2.0
    noise_scale: float = 1.0
    concentrated_classes: Tuple[int, int] = (6, 9)
    concentration: float = 0.95
    bits_per_sample: float = (784 + 1) * 8.0

    def __post_init__(self):
        if self.num_eds < 1:
            raise ValueError(f"num_eds must be at least 1, got {self.num_eds}")


class EdgeLearningWorkload(Workload):
    """Raw-sample selection: EDs offer batches priced by current model loss."""

    def __init__(self, params: EdgeLearningParams, seed):
        self.params = params
        self.num_eds = params.num_eds
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        data_seed, split_seed, model_seed, train_seed = seq.spawn(4)
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
        self._offsets = [0] * params.num_eds
        self.model = Mlp(params.dim, params.hidden_dim, params.num_classes, seed=model_seed)
        self._train_rng = np.random.default_rng(train_seed)
        self.collected: List[int] = []

    def _offered(self, ed_id: int) -> np.ndarray:
        start = self._offsets[ed_id]
        return self.shards[ed_id][start : start + self.params.batch_per_round]

    def marginal_utilities(self) -> List[Tuple[int, float]]:
        out = []
        for ed_id in range(self.num_eds):
            idx = self._offered(ed_id)
            if len(idx) == 0:
                out.append((ed_id, 0.0))
                continue
            losses = per_sample_loss(self.model, self.X_train[idx], self.y_train[idx])
            out.append((ed_id, float(losses.sum())))
        return out

    def ingest(self, selected: Iterable[int]) -> None:
        added = []
        for ed_id in selected:
            idx = self._offered(ed_id)
            added.extend(idx.tolist())
            self._offsets[ed_id] += len(idx)
        self.collected.extend(added)
        if self.collected:
            sgd_train(
                self.model,
                self.X_train[self.collected],
                self.y_train[self.collected],
                epochs=self.params.epochs_per_round,
                batch_size=self.params.sgd_batch,
                lr=self.params.lr,
                momentum=self.params.momentum,
                seed=self._train_rng.integers(2**32),
            )

    def goal_value(self) -> float:
        return loss(self.model, self.X_train, self.y_train)

    def test_accuracy(self) -> float:
        return float((self.model.predict(self.X_test) == self.y_test).mean())

    def payload_bits(self, ed_id: int) -> float:
        return len(self._offered(ed_id)) * self.params.bits_per_sample

    def throughput(self, selected: Iterable[int]) -> int:
        return int(sum(len(self._offered(ed_id)) for ed_id in selected))


@dataclass
class FederatedParams:
    """Desk-scale federated scenario sharing the edge-learning data model."""

    num_eds: int = 10
    num_classes: int = 10
    dim: int = 784
    hidden_dim: int = 64
    train_per_class: int = 200
    test_per_class: int = 60
    batch_size: int = 64
    lr: float = 0.01
    kappa: float = 1.0
    mean_scale: float = 2.0
    noise_scale: float = 1.0
    concentrated_classes: Tuple[int, int] = (6, 9)
    concentration: float = 0.95
    bits_per_weight: float = 32.0
    # Data-volume heterogeneity: this fraction of the non-holder clients keeps
    # only data_poor_keep of its shard, so sample-count weighting makes their
    # updates nearly worthless while their uplink cost stays the same.
    data_poor_fraction: float = 0.0
    data_poor_keep: float = 1.0

    def __post_init__(self):
        if self.num_eds < 1:
            raise ValueError(f"num_eds must be at least 1, got {self.num_eds}")


class FederatedWorkload(Workload):
    """Gradient-norm client selection with partial aggregation per round."""

    def __init__(self, params: FederatedParams, seed):
        self.params = params
        self.num_eds = params.num_eds
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        data_seed, split_seed, model_seed, batch_seed, poor_seed = seq.spawn(5)
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

    def marginal_utilities(self) -> List[Tuple[int, float]]:
        if self._round_grads is None:
            self.begin_round(0)
        total = self.counts.sum()
        return [
            (
                j,
                federated_marginal_utility(
                    g, self.counts[j], total, self.params.lr, self.params.kappa
                ),
            )
            for j, g in enumerate(self._round_grads)
        ]

    def ingest(self, selected: Iterable[int]) -> None:
        selected = sorted(selected)
        if self._round_grads is None:
            self.begin_round(0)
        if selected:
            grads = [self._round_grads[j] for j in selected]
            counts = [self.counts[j] for j in selected]
            theta = aggregate_step(self.model.get_params(), grads, counts, self.params.lr)
            self.model.set_params(theta)

    def goal_value(self) -> float:
        return loss(self.model, self.X_train, self.y_train)

    def test_accuracy(self) -> float:
        return float((self.model.predict(self.X_test) == self.y_test).mean())

    def payload_bits(self, ed_id: int) -> float:
        return self.model.num_params * self.params.bits_per_weight
