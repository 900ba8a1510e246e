"""Dataset plumbing: synthetic class mixtures and non-iid splits."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def make_gaussian_mixture(
    num_classes: int = 10,
    dim: int = 784,
    samples_per_class: int = 100,
    seed=0,
    mean_scale: float = 2.0,
    noise_scale: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Synthetic classification data: one Gaussian blob per class.

    Returns (X, y) with X shaped (num_classes*samples_per_class, dim) and
    integer labels, shuffled. mean_scale controls class separation.
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=mean_scale / np.sqrt(dim), size=(num_classes, dim))
    X = np.repeat(means, samples_per_class, axis=0)
    X = X + rng.normal(scale=noise_scale / np.sqrt(dim), size=X.shape)
    y = np.repeat(np.arange(num_classes), samples_per_class)
    perm = rng.permutation(len(y))
    return X[perm], y[perm]


def split_non_iid(
    y: np.ndarray,
    num_eds: int,
    concentrated_classes: Sequence[int] = (6, 9),
    concentration: float = 0.95,
    seed=0,
) -> List[np.ndarray]:
    """Partition sample indices across EDs with two classes held by two EDs.

    Each class in concentrated_classes lands mostly (by `concentration`) on a
    single dedicated ED; everything else is spread uniformly.
    """
    rng = np.random.default_rng(seed)
    y = np.asarray(y)
    holders = {
        cls: num_eds - 1 - i for i, cls in enumerate(concentrated_classes)
    }
    shards: List[List[int]] = [[] for _ in range(num_eds)]
    for cls in np.unique(y):
        idx = rng.permutation(np.flatnonzero(y == cls))
        if int(cls) in holders:
            cut = int(round(concentration * len(idx)))
            shards[holders[int(cls)]].extend(idx[:cut])
            idx = idx[cut:]
        for i, sample in enumerate(idx):
            shards[i % num_eds].append(sample)
    return [rng.permutation(np.array(s, dtype=int)) for s in shards]

