"""MLP training stack: gradients, SGD, aggregation, and the two learning workloads."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goalrba import learning
from goalrba.data import make_gaussian_mixture, split_non_iid
from goalrba.harness import ChannelConfig, build_workload, load_config, run_scenario
from goalrba.learning import (
    DivergenceError,
    EdgeLearningParams,
    EdgeLearningWorkload,
    FederatedParams,
    FederatedWorkload,
    Mlp,
    descent_bound_check,
    gradient,
    loss,
    per_sample_loss,
    sgd_train,
)
from goalrba.workload import ConfigError, collect_reports

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_default_mlp_parameter_count():
    assert Mlp().num_params == 784 * 64 + 64 + 64 * 10 + 10  # 50890


def test_params_round_trip():
    m = Mlp(12, 7, 4, seed=3)
    flat = m.get_params()
    m.set_params(np.zeros(m.num_params))
    assert not np.array_equal(m.get_params(), flat)
    m.set_params(flat)
    np.testing.assert_array_equal(m.params, flat)
    # get_params hands out a copy
    m.get_params()[:] = -1.0
    np.testing.assert_array_equal(m.params, flat)
    with pytest.raises(ValueError):
        m.set_params(np.zeros(3))


def test_weights_are_views_of_the_flat_buffer():
    m = Mlp(12, 7, 4, seed=3)
    weights = (m.W1, m.b1, m.W2, m.b2)
    assert all(np.shares_memory(w, m.params) for w in weights)
    new = np.arange(m.num_params, dtype=float)
    m.set_params(new)
    # set_params writes through to the views and rebinds nothing
    np.testing.assert_array_equal(m.W1, new[: 12 * 7].reshape(12, 7))
    np.testing.assert_array_equal(m.b2, new[-4:])
    assert all(a is b for a, b in zip((m.W1, m.b1, m.W2, m.b2), weights))


def test_forward_outputs_are_probabilities():
    m = Mlp(6, 5, 3, seed=0)
    X = np.random.default_rng(0).normal(size=(11, 6))
    probs, _ = m.forward(X)
    assert probs.shape == (11, 3)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0)


def test_softmax_is_stable_at_large_logits():
    m = Mlp(2, 3, 2, seed=1)
    X = np.full((4, 2), 1e4)
    probs, _ = m.forward(X)
    assert np.all(np.isfinite(probs))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    m = Mlp(9, 6, 4, seed=8)
    X = rng.normal(size=(20, 9))
    y = rng.integers(0, 4, size=20)
    g = gradient(m, X, y)
    theta = m.get_params()
    eps = 1e-6
    probe = rng.choice(m.num_params, size=12, replace=False)
    for i in probe:
        bumped = theta.copy()
        bumped[i] += eps
        m.set_params(bumped)
        up = loss(m, X, y)
        bumped[i] -= 2 * eps
        m.set_params(bumped)
        down = loss(m, X, y)
        m.set_params(theta)
        fd = (up - down) / (2 * eps)
        assert g[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_loss_requires_data():
    m = Mlp(4, 3, 2)
    with pytest.raises(ValueError):
        loss(m, np.empty((0, 4)), np.empty(0, dtype=int))


# --- references for the federated workload ----------------------------------


def local_gradient(model, X, y, batch_size=None, seed=None, rows=None):
    """Reference: mean gradient on a batch of ``rows`` (every row by default).

    A batch smaller than the rows is drawn from them with a generator of
    ``seed``; otherwise the batch is all of them.
    """
    y = np.atleast_1d(np.asarray(y, dtype=int))
    rows = np.arange(len(y)) if rows is None else np.asarray(rows, dtype=int)
    if batch_size is not None and batch_size < len(rows):
        rng = np.random.default_rng(seed)
        rows = rows[rng.choice(len(rows), size=batch_size, replace=False)]
    return gradient(model, np.atleast_2d(X)[rows], y[rows])


def aggregate_step(theta, gradients, counts, eta):
    """Reference: theta minus eta times the count-weighted mean gradient.

    An empty selection returns theta unchanged.
    """
    if len(gradients) == 0:
        return np.asarray(theta, dtype=float).copy()
    counts = np.asarray(counts, dtype=float)
    stacked = np.stack([np.asarray(g, dtype=float) for g in gradients])
    aggregated = (counts[:, None] * stacked).sum(axis=0) / counts.sum()
    return np.asarray(theta, dtype=float) - eta * aggregated


def federated_marginal_utility(g, d_j, d_total, eta, kappa):
    """Reference: eta*(1 - kappa*eta/2)*||d_j g / d_total||^2."""
    scaled = (d_j / d_total) * np.asarray(g, dtype=float)
    return float(eta * (1 - kappa * eta / 2) * np.dot(scaled, scaled))


def test_local_gradient_full_batch_equals_gradient():
    rng = np.random.default_rng(2)
    m = Mlp(5, 4, 3, seed=2)
    X = rng.normal(size=(10, 5))
    y = rng.integers(0, 3, size=10)
    np.testing.assert_allclose(local_gradient(m, X, y), gradient(m, X, y))
    a = local_gradient(m, X, y, batch_size=4, seed=5)
    b = local_gradient(m, X, y, batch_size=4, seed=5)
    np.testing.assert_array_equal(a, b)


def test_training_on_no_rows_is_rejected():
    X, y = make_gaussian_mixture(3, 20, 30, seed=0)
    m = Mlp(20, 8, 3, seed=0)
    for rows in (np.array([], dtype=int), []):
        with pytest.raises(ValueError, match="sgd_train requires a nonempty dataset"):
            sgd_train(m, X, y, epochs=1, rows=rows)
    with pytest.raises(ValueError, match="sgd_train requires a nonempty dataset"):
        sgd_train(m, X[:0], y[:0], epochs=1)


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(st.integers(0, 29), min_size=1, max_size=30, unique=True),
    batch_size=st.integers(1, 35),
    momentum=st.sampled_from([0.9, 0.0]),
)
def test_sgd_on_rows_trains_the_bits_of_the_gathered_rows(rows, batch_size, momentum):
    # rows in any order, batches that do and do not divide them
    X, y = make_gaussian_mixture(3, 8, 10, seed=0)
    rows = np.array(rows)
    m, ref = Mlp(8, 5, 3, seed=1), Mlp(8, 5, 3, seed=1)
    kwargs = dict(epochs=2, batch_size=batch_size, lr=0.05, momentum=momentum, seed=4)
    sgd_train(m, X, y, rows=rows, **kwargs)
    sgd_train(ref, X[rows], y[rows], **kwargs)
    np.testing.assert_array_equal(m.params, ref.params)


def test_sgd_on_a_row_subset_trains_the_bits_of_the_gathered_rows():
    # 40 of 90 rows, in batches that leave a short last one
    X, y = make_gaussian_mixture(3, 20, 30, seed=0)
    rows = np.random.default_rng(1).permutation(len(y))[:40]
    m, ref = Mlp(20, 8, 3, seed=0), Mlp(20, 8, 3, seed=0)
    sgd_train(m, X, y, epochs=3, batch_size=25, lr=0.05, seed=2, rows=rows)
    sgd_train(ref, X[rows], y[rows], epochs=3, batch_size=25, lr=0.05, seed=2)
    np.testing.assert_array_equal(m.params, ref.params)


@pytest.mark.parametrize("batch_size", [None, 7, 39, 40, 100])
def test_local_gradient_on_rows_is_the_gradient_of_the_gathered_rows(batch_size):
    # a shard of 40 rows: batches smaller than it draw from it, the others take it all
    X, y = make_gaussian_mixture(3, 20, 30, seed=0)
    rows = np.random.default_rng(1).permutation(len(y))[:40]
    m = Mlp(20, 8, 3, seed=0)
    np.testing.assert_array_equal(
        local_gradient(m, X, y, batch_size=batch_size, seed=5, rows=rows),
        local_gradient(m, X[rows], y[rows], batch_size=batch_size, seed=5),
    )


def test_sgd_learns_a_separable_mixture():
    X, y = make_gaussian_mixture(4, 30, 80, seed=1)
    m = Mlp(30, 16, 4, seed=1)
    sgd_train(m, X, y, epochs=30, lr=0.05, seed=1)
    assert (m.predict(X) == y).mean() >= 0.95


def test_sgd_rejects_rows_and_labels_that_disagree():
    X, y = make_gaussian_mixture(3, 20, 30, seed=0)
    with pytest.raises(ValueError, match="feature rows and labels disagree"):
        sgd_train(Mlp(20, 8, 3, seed=0), X, y[:-1], epochs=1)


def edge_marginal_utility(model: Mlp, x: np.ndarray, y) -> float:
    """Reference: loss of the existing model on one candidate sample."""
    return float(per_sample_loss(model, np.atleast_2d(x), [int(y)])[0])


def test_edge_marginal_utility_is_the_sample_loss():
    m = Mlp(6, 4, 3, seed=0)
    x = np.ones(6)
    assert edge_marginal_utility(m, x, 1) == pytest.approx(
        float(per_sample_loss(m, x[None, :], [1])[0])
    )
    # an ED's delta is the summed one-sample loss of the batch it offers
    wl = EdgeLearningWorkload(small_edge_params(), seed=0)
    deltas = wl.marginal_utilities()
    for ed_id in range(wl.num_eds):
        idx = wl._offered(ed_id)
        assert deltas[ed_id] == pytest.approx(sum(
            edge_marginal_utility(wl.model, wl.X_train[i], wl.y_train[i]) for i in idx
        ), rel=1e-12)


def small_federated_workload(**overrides):
    params = dict(
        num_eds=4, num_classes=4, dim=16, hidden_dim=8,
        train_per_class=30, test_per_class=10, batch_size=16,
        lr=0.5, concentrated_classes=(2, 3),
    )
    params.update(overrides)
    return FederatedWorkload(FederatedParams(**params), seed=0)


def planted_gradients(wl, rows, counts):
    """Begin a round, then overwrite the gradient rows and the client counts."""
    wl.begin_round()
    wl.gradients[...] = 0.0
    for j, row in enumerate(rows):
        wl.gradients[j, : len(row)] = row
    wl.counts = np.asarray(counts, dtype=float)


def test_federated_step_is_the_count_weighted_mean_gradient():
    wl = small_federated_workload(lr=1.0)
    g1, g2 = [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]
    # equal counts reduce to the plain mean
    planted_gradients(wl, [g1, g2], [5.0, 5.0, 3.0, 3.0])
    theta = wl.model.get_params()
    wl.ingest([0, 1])
    np.testing.assert_allclose(wl.model.params[:3], theta[:3] - np.array([0.5, 0.5, 0.0]))
    np.testing.assert_array_equal(wl.model.params[3:], theta[3:])
    # lopsided counts follow the weighted mean
    planted_gradients(wl, [g1, g2], [9.0, 1.0, 3.0, 3.0])
    theta = wl.model.get_params()
    wl.ingest([0, 1])
    np.testing.assert_allclose(wl.model.params[:3], theta[:3] - np.array([0.9, 0.1, 0.0]))
    # an empty selection leaves the parameters untouched
    theta = wl.model.get_params()
    wl.ingest([])
    np.testing.assert_array_equal(wl.model.params, theta)


def test_federated_utility_is_the_weighted_gradient_norm():
    wl = small_federated_workload(lr=1.0, kappa=1.0)
    planted_gradients(wl, [[3.0, 4.0]], [2.0, 3.0, 5.0, 0.0])  # norm 5, d_total 10
    assert wl.marginal_utilities() == pytest.approx([1.0 * 0.5 * (0.2 * 5.0) ** 2, 0, 0, 0])
    assert federated_marginal_utility(
        np.array([3.0, 4.0]), d_j=2.0, d_total=10.0, eta=1.0, kappa=1.0
    ) == pytest.approx(1.0 * 0.5 * (0.2 * 5.0) ** 2)
    # the step size must lie in (0, 2/kappa), which the params check
    for lr in (2.5, 0.0):
        with pytest.raises(ConfigError, match="lr"):
            FederatedParams(lr=lr, kappa=1.0)


def test_federated_gradients_are_one_matrix_allocated_once():
    wl = small_federated_workload()
    matrix = wl.gradients
    assert matrix.shape == (wl.num_eds, wl.model.num_params)
    for k in range(3):
        wl.begin_round()
        wl.ingest([0, 2])
        assert wl.gradients is matrix


def test_a_federated_workload_read_before_its_first_round_fails_loudly():
    # the gradient matrix is NaN until begin_round() writes every row, so a
    # round that skips it cannot pass for one
    wl = small_federated_workload()
    gains = np.ones(wl.num_eds)
    with pytest.raises(ValueError, match="delta must not be NaN"):
        collect_reports(wl, wl.marginal_utilities(), gains, ChannelConfig())
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="training loss is nan"):
        wl.ingest([0, 1])


def test_a_client_without_samples_is_a_config_error():
    # 6 training samples cannot reach 10 clients
    with pytest.raises(ConfigError, match=r"num_eds = 10 leaves client \d+ with no training"):
        small_federated_workload(
            num_eds=10, num_classes=2, train_per_class=3, concentrated_classes=())


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    eta_frac=st.floats(min_value=0.05, max_value=1.0),
)
@settings(max_examples=100, deadline=None)
def test_descent_bound_is_tight_on_quadratics(seed, eta_frac):
    # L(theta) = kappa/2 ||theta||^2 makes the smoothness bound an equality
    rng = np.random.default_rng(seed)
    kappa = float(rng.uniform(0.5, 4.0))
    eta = eta_frac * 2 / kappa
    theta = rng.normal(size=15)
    g_full = kappa * theta
    mask = rng.random(15) < 0.6
    g_tilde = g_full * 0.0
    g_tilde += g_full * rng.uniform(0.3, 1.0)
    before = 0.5 * kappa * theta @ theta
    new_theta = theta - eta * g_tilde
    after = 0.5 * kappa * new_theta @ new_theta
    bound, holds = descent_bound_check(before, after, g_tilde, g_full, eta, kappa)
    assert holds
    assert after - before == pytest.approx(bound, rel=1e-9, abs=1e-12)


def reference_gaussian_mixture(num_classes, dim, samples_per_class, seed):
    """The mixture drawn with a repeated-means array and a permuted copy."""
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=2.0 / np.sqrt(dim), size=(num_classes, dim))
    X = np.repeat(means, samples_per_class, axis=0)
    X = X + rng.normal(scale=1.0 / np.sqrt(dim), size=X.shape)
    y = np.repeat(np.arange(num_classes), samples_per_class)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


@pytest.mark.parametrize(
    "shape",
    [(10, 784, 260), (10, 784, 26), (3, 7, 4), (4, 130, 9), (1, 256, 1), (2, 300, 3)],
)
def test_in_place_mixture_is_the_reference_bit_for_bit(shape):
    X, y = make_gaussian_mixture(*shape, seed=5)
    X_ref, y_ref = reference_gaussian_mixture(*shape, seed=5)
    np.testing.assert_array_equal(X, X_ref)
    np.testing.assert_array_equal(y, y_ref)


def test_the_mixture_at_the_preset_shape_holds_little_beyond_its_data():
    # the edge-learning preset's training set: 2600 rows of 784 doubles
    # (16.3 MB); a permuted copy of even a 256-column block would add 5.3 MB
    shape = (10, 784, 260)
    make_gaussian_mixture(*shape, seed=0)  # warm-up: first-call allocations
    tracemalloc.start()
    try:
        X, _ = make_gaussian_mixture(*shape, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - X.nbytes < 2**20, (peak - X.nbytes) / 2**20


def test_split_non_iid_is_a_partition_with_holders():
    _, y = make_gaussian_mixture(10, 8, 50, seed=0)
    shards = split_non_iid(y, 12, concentrated_classes=(6, 9), concentration=1.0, seed=0)
    all_idx = np.concatenate(shards)
    assert sorted(all_idx) == list(range(len(y)))
    # with full concentration the dedicated EDs hold their class exclusively
    assert set(y[shards[11]]) >= {6} and np.all(y[np.flatnonzero(y == 6)] == 6)
    holder6 = shards[11]
    assert np.all(np.isin(np.flatnonzero(y == 6), holder6))
    holder9 = shards[10]
    assert np.all(np.isin(np.flatnonzero(y == 9), holder9))


def small_edge_params(**overrides):
    base = dict(
        num_eds=4, num_classes=4, dim=16, hidden_dim=8,
        train_per_class=30, test_per_class=10, batch_per_round=8,
        epochs_per_round=1, concentrated_classes=(2, 3),
    )
    base.update(overrides)
    return EdgeLearningParams(**base)


def test_edge_workload_round_flow():
    wl = EdgeLearningWorkload(small_edge_params(), seed=0)
    deltas = wl.marginal_utilities()
    assert len(deltas) == 4
    assert all(d >= 0 for d in deltas)
    assert wl.payload_bits()[0] == wl.params.batch_per_round * wl.params.bits_per_sample
    assert wl.throughput([0, 2]) == 2 * wl.params.batch_per_round
    before = wl.goal_value()
    wl.ingest([0, 2])
    assert wl.goal_value() < before  # training on fresh batches reduces loss


def test_edge_workload_offers_advance_only_for_selected():
    wl = EdgeLearningWorkload(small_edge_params(), seed=0)
    first = wl.marginal_utilities()
    wl.ingest([0])
    second = wl.marginal_utilities()
    # ED 0 moved to a new batch and the model changed, so its delta moves;
    # unselected EDs keep the same offered batch (delta still changes with
    # the model, so compare offer indices instead)
    assert wl._offsets[0] == wl.params.batch_per_round
    assert all(wl._offsets[j] == 0 for j in (1, 2, 3))
    assert len(second) == len(first)


def test_edge_divergence_raises_in_ingest():
    wl = EdgeLearningWorkload(small_edge_params(lr=1e300), seed=0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="training loss is nan"):
        wl.ingest([0, 1])
    # the probability floor caps each per-sample loss, so a huge finite step
    # that keeps the weights finite does not count as divergence
    wl = EdgeLearningWorkload(small_edge_params(lr=1e12), seed=0)
    with np.errstate(all="ignore"):
        wl.ingest([0, 1])
    assert np.isfinite(wl.goal_value())


def test_federated_divergence_raises_in_the_round_it_happens():
    # lr < 2/kappa validates; the first aggregation step overflows the weights
    wl = small_federated_workload(lr=1e300, kappa=1e-305)
    wl.begin_round()
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="training loss is nan"):
        wl.ingest([0, 1])


def test_federated_workload_descent_logging():
    wl = small_federated_workload()
    wl.begin_round()
    before = wl.goal_value()
    wl.ingest([0, 1, 2, 3])
    after = wl.goal_value()
    assert after < before  # full participation at a sane step descends


def test_federated_data_poor_thinning():
    params = FederatedParams(
        num_eds=10, num_classes=4, dim=16, hidden_dim=8,
        train_per_class=50, test_per_class=10,
        concentrated_classes=(2, 3), concentration=1.0,
        data_poor_fraction=0.5, data_poor_keep=0.02,
    )
    wl = FederatedWorkload(params, seed=0)
    assert int((wl.counts == 1).sum()) == 5
    # holders at the tail are never thinned
    assert np.all(wl.counts[-2:] > 1)


# --- the flat buffer against the copy-per-step parameter path ---------------


def reference_get_params(model):
    """The concatenating get_params the flat buffer replaced."""
    return np.concatenate([model.W1.ravel(), model.b1, model.W2.ravel(), model.b2])


def reference_set_params(model, flat):
    """The set_params the flat buffer replaced: it rebinds the four weights to copies.

    The model then runs on those attributes alone; its ``params`` buffer is stale.
    """
    flat = np.asarray(flat, dtype=float)
    s0 = model.W1.size
    s1 = s0 + model.b1.size
    s2 = s1 + model.W2.size
    model.W1 = flat[:s0].reshape(model.W1.shape).copy()
    model.b1 = flat[s0:s1].copy()
    model.W2 = flat[s1:s2].reshape(model.W2.shape).copy()
    model.b2 = flat[s2:].copy()


def reference_sgd_train(model, X, y, epochs, batch_size=64, lr=0.01, momentum=0.9, seed=0):
    """The SGD loop the in-place update replaced."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    rng = np.random.default_rng(seed)
    velocity = np.zeros(model.num_params)
    for _ in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            batch = order[start : start + batch_size]
            grad = gradient(model, X[batch], y[batch])
            velocity = momentum * velocity - lr * grad
            reference_set_params(model, reference_get_params(model) + velocity)
    return model


def reference_edge_ingest(wl, selected):
    """Edge-learning ingest that re-gathers every collected row each round."""
    added = []
    for ed_id in selected:
        idx = wl._offered(ed_id)
        added.extend(idx.tolist())
        wl._offsets[ed_id] += len(idx)
    wl.collected.extend(added)
    if wl.collected:
        p = wl.params
        reference_sgd_train(
            wl.model, wl.X_train[wl.collected], wl.y_train[wl.collected],
            epochs=p.epochs_per_round, batch_size=p.sgd_batch, lr=p.lr,
            momentum=p.momentum, seed=wl._train_rng.integers(2**32),
        )


def reference_goal(wl):
    return loss(wl.model, wl.X_train, wl.y_train)


class EdgeReference:
    """Edge-learning rounds on ``wl`` with the re-gathering reference ingest."""

    def __init__(self, wl):
        self.wl = wl

    def begin_round(self):
        self.wl.begin_round()

    def marginal_utilities(self):
        return self.wl.marginal_utilities()

    def ingest(self, selected):
        reference_edge_ingest(self.wl, selected)

    def check_round(self, wl):
        np.testing.assert_array_equal(wl._offsets, self.wl._offsets)


class FederatedReference:
    """Federated rounds on ``wl``'s data and batch generator, from the references alone."""

    def __init__(self, wl):
        self.wl = wl
        self.grads = None

    def begin_round(self):
        wl, p = self.wl, self.wl.params
        self.grads = [
            local_gradient(wl.model, wl.X_train, wl.y_train, batch_size=p.batch_size,
                           seed=wl._batch_rng.integers(2**32), rows=shard)
            for shard in wl.shards
        ]

    def marginal_utilities(self):
        wl, total = self.wl, self.wl.counts.sum()
        return np.array([
            federated_marginal_utility(g, wl.counts[j], total, wl.params.lr, wl.params.kappa)
            for j, g in enumerate(self.grads)
        ])

    def ingest(self, selected):
        wl = self.wl
        theta = aggregate_step(reference_get_params(wl.model), [self.grads[j] for j in selected],
                               [wl.counts[j] for j in selected], wl.params.lr)
        reference_set_params(wl.model, theta)

    def check_round(self, wl):
        for row, grad in zip(wl.gradients, self.grads, strict=True):
            np.testing.assert_array_equal(row, grad)


@pytest.mark.parametrize("momentum", [0.9, 0.0])
def test_in_place_sgd_matches_the_reference(momentum):
    X, y = make_gaussian_mixture(4, 30, 80, seed=1)
    m = Mlp(30, 16, 4, seed=1)
    ref = Mlp(30, 16, 4, seed=1)
    # 320 rows in batches of 50 leave a short last batch
    sgd_train(m, X, y, epochs=3, batch_size=50, lr=0.05, momentum=momentum, seed=4)
    reference_sgd_train(ref, X, y, epochs=3, batch_size=50, lr=0.05, momentum=momentum, seed=4)
    np.testing.assert_array_equal(m.params, reference_get_params(ref))


# 31 rates log-spaced from 1e-3 to 1e300, and quarter decades from 1e12 to
# 1e15, where this model's weights start to overflow to NaN.
LEARNING_RATES = sorted(set(np.logspace(-3, 300, 31).tolist() + np.logspace(12, 15, 13).tolist()))


@pytest.mark.parametrize("lr", LEARNING_RATES)
def test_sgd_matches_the_reference_at_every_learning_rate(lr):
    # sgd_train trains on through overflow, so the bits must agree with the
    # reference's at every rate, NaN equal to NaN
    X, y = make_gaussian_mixture(3, 20, 30, seed=0)
    m, ref = Mlp(20, 8, 3, seed=0), Mlp(20, 8, 3, seed=0)
    with np.errstate(all="ignore"):
        sgd_train(m, X, y, epochs=3, batch_size=25, lr=lr, seed=2)
        reference_sgd_train(ref, X, y, epochs=3, batch_size=25, lr=lr, seed=2)
    np.testing.assert_array_equal(m.params, reference_get_params(ref))


@pytest.mark.parametrize("preset, rounds, reference", [
    ("edge_learning", 20, EdgeReference),
    ("federated", 10, FederatedReference),
])
def test_learning_rounds_match_the_reference_on_the_preset(preset, rounds, reference):
    config = load_config(CONFIGS / f"{preset}.yaml")
    wl, ref = build_workload(config), reference(build_workload(config))
    rng = np.random.default_rng(0)
    for k in range(rounds):
        wl.begin_round()
        ref.begin_round()
        np.testing.assert_array_equal(wl.marginal_utilities(), ref.marginal_utilities())
        ref.check_round(wl)
        selected = [] if k == 3 else sorted(
            rng.choice(wl.num_eds, size=int(rng.integers(1, 8)), replace=False).tolist())
        assert wl.goal_value() == reference_goal(ref.wl)
        wl.ingest(selected)
        ref.ingest(selected)
        assert wl.goal_value() == reference_goal(ref.wl)
        np.testing.assert_array_equal(wl.model.params, reference_get_params(ref.wl.model))


def test_goal_is_evaluated_once_per_model_state(monkeypatch):
    # three edge-learning rounds of three epochs each: the goal before ingest
    # and the goal after it, which ingest's divergence check reads first;
    # from the second round on the goal before ingest is the previous goal
    # after it
    config = load_config(CONFIGS / "edge_learning.yaml")
    config = dataclasses.replace(
        config, rounds=3, params=dataclasses.replace(config.params, epochs_per_round=3))
    real_loss = learning.loss
    calls = []
    monkeypatch.setattr(learning, "loss", lambda *a: calls.append(1) or real_loss(*a))
    per_round, workloads = [], []

    def hook(k, wl):
        assert wl.collected  # every round trains
        per_round.append(len(calls) - sum(per_round))
        workloads.append(wl)

    run_scenario(config, round_hook=hook)
    assert per_round == [2, 1, 1]
    wl = workloads[-1]
    assert wl.goal_value() == real_loss(wl.model, wl.X_train, wl.y_train)


def test_failed_ingest_leaves_no_stale_goal():
    wl = EdgeLearningWorkload(small_edge_params(), seed=0)
    before = wl.goal_value()
    wl.params = dataclasses.replace(wl.params, lr=1e300)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError):
        wl.ingest([0, 1])
    with np.errstate(all="ignore"):
        after = wl.goal_value()
        np.testing.assert_equal(after, loss(wl.model, wl.X_train, wl.y_train))
    assert after != before
