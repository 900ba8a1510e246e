"""MLP training stack: gradients, SGD, aggregation, and the two learning workloads."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from goalrba.data import make_gaussian_mixture, split_non_iid
from goalrba.learning import (
    EdgeLearningParams,
    EdgeLearningWorkload,
    FederatedParams,
    FederatedWorkload,
    Mlp,
    aggregate_step,
    descent_bound_check,
    edge_marginal_utility,
    federated_marginal_utility,
    gradient,
    local_gradient,
    loss,
    per_sample_loss,
    sgd_train,
)


def test_default_mlp_parameter_count():
    assert Mlp().num_params == 784 * 64 + 64 + 64 * 10 + 10  # 50890


def test_params_round_trip_and_copy():
    m = Mlp(12, 7, 4, seed=3)
    flat = m.get_params()
    clone = m.copy()
    m.set_params(np.zeros(m.num_params))
    assert not np.array_equal(m.get_params(), flat)
    np.testing.assert_array_equal(clone.get_params(), flat)
    with pytest.raises(ValueError):
        m.set_params(np.zeros(3))


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


def test_local_gradient_full_batch_equals_gradient():
    rng = np.random.default_rng(2)
    m = Mlp(5, 4, 3, seed=2)
    X = rng.normal(size=(10, 5))
    y = rng.integers(0, 3, size=10)
    np.testing.assert_allclose(local_gradient(m, X, y), gradient(m, X, y))
    a = local_gradient(m, X, y, batch_size=4, seed=5)
    b = local_gradient(m, X, y, batch_size=4, seed=5)
    np.testing.assert_array_equal(a, b)


def test_sgd_learns_a_separable_mixture():
    X, y = make_gaussian_mixture(4, 30, 80, seed=1)
    m = Mlp(30, 16, 4, seed=1)
    sgd_train(m, X, y, epochs=30, lr=0.05, seed=1)
    assert (m.predict(X) == y).mean() >= 0.95


def test_edge_marginal_utility_is_the_sample_loss():
    m = Mlp(6, 4, 3, seed=0)
    x = np.ones(6)
    assert edge_marginal_utility(m, x, 1) == pytest.approx(
        float(per_sample_loss(m, x[None, :], [1])[0])
    )


def test_aggregate_step_identities():
    theta = np.array([1.0, 2.0, 3.0])
    g1 = np.array([1.0, 0.0, 0.0])
    g2 = np.array([0.0, 1.0, 0.0])
    # equal counts reduce to the plain mean
    out = aggregate_step(theta, [g1, g2], [5.0, 5.0], eta=2.0)
    np.testing.assert_allclose(out, theta - 2.0 * (g1 + g2) / 2)
    # lopsided counts follow the weighted mean
    out = aggregate_step(theta, [g1, g2], [9.0, 1.0], eta=1.0)
    np.testing.assert_allclose(out, theta - (0.9 * g1 + 0.1 * g2))
    np.testing.assert_array_equal(aggregate_step(theta, [], [], eta=1.0), theta)
    with pytest.raises(ValueError):
        aggregate_step(theta, [g1], [1.0, 2.0], eta=1.0)


def test_federated_marginal_utility_formula():
    g = np.array([3.0, 4.0])  # norm 5
    val = federated_marginal_utility(g, d_j=2.0, d_total=10.0, eta=1.0, kappa=1.0)
    assert val == pytest.approx(1.0 * 0.5 * (0.2 * 5.0) ** 2)
    with pytest.raises(ValueError):
        federated_marginal_utility(g, 1.0, 1.0, eta=2.5, kappa=1.0)
    with pytest.raises(ValueError):
        federated_marginal_utility(g, 1.0, 1.0, eta=0.0, kappa=1.0)


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


def test_federated_workload_descent_logging():
    params = FederatedParams(
        num_eds=4, num_classes=4, dim=16, hidden_dim=8,
        train_per_class=30, test_per_class=10, batch_size=16,
        lr=0.5, concentrated_classes=(2, 3),
    )
    wl = FederatedWorkload(params, seed=0)
    wl.begin_round(0)
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
