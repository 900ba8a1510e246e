"""From-scratch MLP plus the edge-learning and federated-learning workloads.

The network is input -> hidden (ReLU) -> softmax, trained with mini-batch SGD
and momentum. Edge learning prices raw samples by their loss under the
current model; federated learning prices clients by their weighted gradient
norm. The smooth-descent bound of a round, ``descent_bound_check``, is
checked by ``goalrba verify`` and the tests; the round loop does not call it.

The MLP keeps its weights in one flat float64 buffer, ``Mlp.params``, and
``W1``, ``b1``, ``W2`` and ``b2`` are reshaped views into it, so SGD and
aggregation update the network in place without concatenating or copying;
``gradient`` writes its blocks into one flat array of the same layout.
Training reads the collected rows and the client shards through row indices
into the training set, so no workload keeps a copy of its data, and the
federated workload writes each round's client gradients into the rows of
one matrix it allocates once.
Both learning workloads share one goal, the mean training loss, memoised per
model state: ``ingest`` is the only method that changes the model, and it
drops the memo before it trains, so each round's goal before ingest reuses
the previous round's goal after it. ``ingest`` also holds the one divergence
check: a goal that is not finite after training raises DivergenceError.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import data as datasets
from .workload import ConfigError, Workload, check_fields, ranged

_PROB_FLOOR = 1e-12


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
        shapes = ((input_dim, hidden_dim), (hidden_dim,), (hidden_dim, output_dim), (output_dim,))
        ends = np.cumsum([int(np.prod(shape)) for shape in shapes]).tolist()
        self._layout = tuple(zip([0] + ends[:-1], ends, shapes))
        self.params = np.zeros(ends[-1])
        self.W1, self.b1, self.W2, self.b2 = self.split(self.params)
        self.W1[...] = rng.normal(scale=np.sqrt(2.0 / input_dim), size=(input_dim, hidden_dim))
        self.W2[...] = rng.normal(scale=np.sqrt(2.0 / hidden_dim), size=(hidden_dim, output_dim))

    @property
    def num_params(self) -> int:
        return self.params.size

    def split(self, flat: np.ndarray) -> Tuple[np.ndarray, ...]:
        """W1, b1, W2, b2 as reshaped views into a flat array laid out as params."""
        return tuple(flat[start:end].reshape(shape) for start, end, shape in self._layout)

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.num_params:
            raise ValueError(f"expected {self.num_params} parameters, got {flat.size}")
        self.params[...] = flat.ravel()

    def forward(self, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Softmax class probabilities and the hidden activations, both fresh.

        Each layer is computed in place on its matmul's result: the same
        operations in the same order as the out-of-place expressions.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        hidden = X @ self.W1
        hidden += self.b1
        np.maximum(hidden, 0.0, out=hidden)
        probs = hidden @ self.W2
        probs += self.b2
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= probs.sum(axis=1, keepdims=True)
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


def gradient(
    model: Mlp, X: np.ndarray, y: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """Flat gradient of the mean cross-entropy at the model's weights.

    Laid out as ``model.params``; each block is written straight into
    ``out`` (a fresh array when None), which is returned.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    n = len(y)
    grad = np.empty(model.num_params) if out is None else out
    dW1, db1, dW2, db2 = model.split(grad)
    err, hidden = model.forward(X)
    err[np.arange(n), y] -= 1.0
    err /= n
    np.matmul(hidden.T, err, out=dW2)
    np.sum(err, axis=0, out=db2)
    dhidden = err @ model.W2.T
    np.copyto(dhidden, 0.0, where=hidden <= 0)
    np.matmul(X.T, dhidden, out=dW1)
    np.sum(dhidden, axis=0, out=db1)
    return grad


def sgd_train(
    model: Mlp,
    X: np.ndarray,
    y: np.ndarray,
    epochs: int,
    batch_size: int = 64,
    lr: float = 0.01,
    momentum: float = 0.9,
    seed=0,
    rows: Optional[np.ndarray] = None,
) -> Mlp:
    """Mini-batch SGD with momentum, in place; returns the model.

    ``rows`` are the indices into X and y of the training set (every row by
    default); each minibatch is gathered straight from X, so SGD sees the
    bits it would see on the gathered ``X[rows]``.

    It only trains: a step that drives the weights to NaN goes on quietly,
    and the learning workloads' ``ingest`` checks the goal it leaves.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    rows = np.arange(len(y)) if rows is None else np.asarray(rows, dtype=int)
    if len(rows) == 0:
        raise ValueError("sgd_train requires a nonempty dataset")
    if X.shape[0] != len(y):
        raise ValueError("feature rows and labels disagree")
    rng = np.random.default_rng(seed)
    velocity = np.zeros(model.num_params)
    grad = np.empty(model.num_params)
    for _ in range(epochs):
        order = rows[rng.permutation(len(rows))]
        for start in range(0, len(rows), batch_size):
            batch = order[start : start + batch_size]
            gradient(model, X[batch], y[batch], out=grad)
            # velocity = momentum * velocity - lr * grad; params += velocity,
            # in place: the same operations in the same order (IEEE products
            # commute, so grad * lr has the bits of lr * grad).
            velocity *= momentum
            grad *= lr
            velocity -= grad
            model.params += velocity
    return model


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class EdgeLearningParams(_DataModelParams):
    """Desk-scale edge-learning scenario: synthetic mixture, non-iid shards."""

    batch_per_round: int = ranged(32, "[0, inf)")
    epochs_per_round: int = ranged(2, "[0, inf)")
    sgd_batch: int = ranged(64, "[1, inf)")
    momentum: float = ranged(0.9, "[0, 1)")
    bits_per_sample: float = ranged((784 + 1) * 8.0, "[0, inf)")


class _LearningWorkload(Workload):
    """What the two learning workloads share: set-up, goal and test accuracy.

    The set-up draws the class mixture, splits train and test, shards the
    training set and builds the MLP from the first three of five child
    seeds; the last two, ``_seeds``, are the workload's own.

    The goal is the model's mean training loss, memoised per model state.
    Only ``ingest`` changes the model, and it drops the memo before
    ``_train`` runs, so a failed ingest leaves no stale value. It then reads
    the new goal, which the round loop reuses, and raises DivergenceError
    when that goal is not finite. Training and that goal run without numpy's
    overflow and invalid-value warnings, so the error is the one report of
    a diverged run.
    """

    _goal: Optional[float] = None

    def __init__(self, params: _DataModelParams, seed):
        self.params = params
        self.num_eds = params.num_eds
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        data_seed, split_seed, model_seed, *self._seeds = seq.spawn(5)
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
        self.model = Mlp(params.dim, params.hidden_dim, params.num_classes, seed=model_seed)

    @abc.abstractmethod
    def _train(self, selected: Sequence[int]) -> None:
        """Update the model with the data of the selected EDs."""

    def ingest(self, selected: Sequence[int]) -> None:
        self._goal = None
        with np.errstate(over="ignore", invalid="ignore"):
            self._train(selected)
            goal = self.goal_value()
        if not np.isfinite(goal):
            raise DivergenceError(f"divergence: training loss is {goal}")

    def goal_value(self) -> float:
        if self._goal is None:
            self._goal = loss(self.model, self.X_train, self.y_train)
        return self._goal

    def test_accuracy(self) -> float:
        return float((self.model.predict(self.X_test) == self.y_test).mean())


class EdgeLearningWorkload(_LearningWorkload):
    """Raw-sample selection: EDs offer batches priced by current model loss.

    An ED's delta is the summed per-sample training loss of the batch it
    offers, under the current model. It is a proxy for the drop in training
    loss, the goal, once the batch is trained on. It is not a proxy for
    test accuracy, which the rounds-to-target claim and acceptance-6 count:
    there the channel-blind `utility` policy beats `hybrid` (README,
    Experiments).

    Each ED's shard size and offset are int arrays; the collected rows are
    indices into the training set, in collection order.
    """

    def __init__(self, params: EdgeLearningParams, seed):
        super().__init__(params, seed)
        self._train_rng = np.random.default_rng(self._seeds[0])
        # Each ED offers the next batch_per_round rows of its shard from
        # its offset on.
        self._sizes = np.array([len(shard) for shard in self.shards])
        self._offsets = np.zeros(self.num_eds, dtype=int)
        # Indices into the training set of the collected rows, in collection
        # order; SGD trains on them.
        self.collected: List[int] = []

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

    def _train(self, selected: Sequence[int]) -> None:
        for ed_id in selected:
            idx = self._offered(ed_id)
            self.collected.extend(idx.tolist())
            self._offsets[ed_id] += len(idx)
        if self.collected:
            sgd_train(
                self.model,
                self.X_train,
                self.y_train,
                epochs=self.params.epochs_per_round,
                batch_size=self.params.sgd_batch,
                lr=self.params.lr,
                momentum=self.params.momentum,
                seed=self._train_rng.integers(2**32),
                rows=np.array(self.collected),
            )

    def _offer_sizes(self) -> np.ndarray:
        return np.minimum(self._sizes - self._offsets, self.params.batch_per_round)

    def payload_bits(self) -> np.ndarray:
        return self._offer_sizes() * self.params.bits_per_sample

    def throughput(self, selected: Sequence[int]) -> int:
        return int(self._offer_sizes()[selected].sum())


@dataclass(frozen=True)
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
    """Gradient-norm client selection with partial aggregation per round.

    Each round's mini-batch gradients sit in one (J, P) matrix, one row per
    client, allocated once and NaN until begin_round() overwrites every row:
    utilities or an ingest asked for before the first round fail loudly,
    in make_reports or as a DivergenceError. A client left with
    no training samples is a ConfigError naming num_eds, at construction.
    """

    def __init__(self, params: FederatedParams, seed):
        super().__init__(params, seed)
        batch_seed, poor_seed = self._seeds
        for j, shard in enumerate(self.shards):
            if len(shard) == 0:
                raise ConfigError(
                    f"num_eds = {params.num_eds} leaves client {j} with no training samples; "
                    f"a client's gradient needs at least one")
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
        self._batch_rng = np.random.default_rng(batch_seed)
        self.gradients = np.full((self.num_eds, self.model.num_params), np.nan)

    def begin_round(self) -> None:
        """Write each client's gradient on a batch drawn from its shard into its row."""
        batch_size = self.params.batch_size
        for shard, row in zip(self.shards, self.gradients):
            seed = self._batch_rng.integers(2**32)
            if batch_size < len(shard):
                rng = np.random.default_rng(seed)
                shard = shard[rng.choice(len(shard), size=batch_size, replace=False)]
            gradient(self.model, self.X_train[shard], self.y_train[shard], out=row)

    def marginal_utilities(self) -> np.ndarray:
        """eta*(1 - kappa*eta/2)*||d_j g_j / d_total||^2 of each client j."""
        scaled = (self.counts / self.counts.sum())[:, None] * self.gradients
        eta, kappa = self.params.lr, self.params.kappa
        return eta * (1 - kappa * eta / 2) * np.array([np.dot(row, row) for row in scaled])

    def _train(self, selected: Sequence[int]) -> None:
        """Step by the sample-count-weighted mean of the selected clients' gradients."""
        if len(selected):
            counts = self.counts[selected]
            step = (counts[:, None] * self.gradients[selected]).sum(axis=0) / counts.sum()
            self.model.params -= self.params.lr * step

    def payload_bits(self) -> np.ndarray:
        return np.full(self.num_eds, self.model.num_params * self.params.bits_per_weight)
