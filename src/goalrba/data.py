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

    The shuffle permutes the rows of X in place, cycle by cycle, so the
    call holds X and one row beside it, not a permuted copy: the same rows
    as X[perm], bit for bit. At the edge_learning preset's shape this took
    the benchmark's peak RSS from 62.50 to 59.03 MB (BENCH_27.json).
    """
    rng = np.random.default_rng(seed)
    means = rng.normal(scale=mean_scale / np.sqrt(dim), size=(num_classes, dim))
    X = rng.normal(scale=noise_scale / np.sqrt(dim), size=(num_classes * samples_per_class, dim))
    # Means added in place, then rows permuted in place (X[r] = X[perm[r]]) by
    # following each cycle of perm through a one-row buffer: the same rows as
    # X[perm], with one row of X held beside it instead of a permuted copy.
    X.reshape(num_classes, samples_per_class, dim)[...] += means[:, None, :]
    y = np.repeat(np.arange(num_classes), samples_per_class)
    perm = rng.permutation(len(y))
    src = perm.tolist()
    row = np.empty(dim)
    for start in range(len(src)):
        if src[start] < 0:
            continue
        row[...] = X[start]
        r = start
        while src[r] != start:
            nxt = src[r]
            X[r] = X[nxt]
            src[r] = -1
            r = nxt
        X[r] = row
        src[r] = -1
    return X, y[perm]


def split_non_iid(
    y: np.ndarray,
    num_eds: int,
    concentrated_classes: Sequence[int] = (6, 9),
    concentration: float = 0.95,
    seed=0,
) -> List[np.ndarray]:
    """Partition sample indices across EDs, each concentrated class on an ED of its own.

    concentrated_classes may hold any number of classes, none included. Each
    lands mostly (by `concentration`) on its holder, counted from the last ED
    down; everything else is dealt out evenly.
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

