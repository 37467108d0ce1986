"""Clustering-quality metrics for the example applications.

The paper motivates SCAN with applications (advertising, epidemiology)
that need *exact* clusters plus hub/outlier classification; the community
-detection example quantifies recovery of planted communities with the
standard external indices implemented here (no sklearn available in the
offline environment).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Sequence

import numpy as np

__all__ = [
    "contingency",
    "adjusted_rand_index",
    "normalized_mutual_information",
    "primary_labels",
]


def primary_labels(result, noise_label: int = -1) -> np.ndarray:
    """Flatten a :class:`~repro.core.result.ClusteringResult` to one label
    per vertex: cores get their cluster id, non-core members get the
    smallest cluster they belong to, unclustered vertices get
    ``noise_label``."""
    offsets, ids = result.memberships
    labels = np.full(result.num_vertices, noise_label, dtype=np.int64)
    clustered = offsets[1:] > offsets[:-1]
    labels[clustered] = ids[offsets[:-1][clustered]]
    return labels


def contingency(
    labels_a: Sequence[int], labels_b: Sequence[int]
) -> dict[tuple[int, int], int]:
    """Sparse contingency table between two label assignments."""
    if len(labels_a) != len(labels_b):
        raise ValueError("label arrays must have equal length")
    table: Counter[tuple[int, int]] = Counter()
    for a, b in zip(labels_a, labels_b):
        table[(int(a), int(b))] += 1
    return dict(table)


_NOISE_POLICIES = ("singletons", "exclude")


def _resolve_noise(
    labels_a: Sequence[int],
    labels_b: Sequence[int],
    noise,
    noise_policy: str,
) -> tuple[list[int], list[int]]:
    """Fold SCAN's hub/outlier sentinel ids into comparable labelings.

    SCAN leaves unclustered vertices with sentinel labels (e.g. ``-1``
    from :func:`primary_labels`); feeding those to an external index as
    if they formed one big "noise cluster" inflates agreement.  Callers
    pass the sentinel id(s) via ``noise`` and choose how to treat them:

    ``singletons``
        every noise vertex becomes its own fresh one-element cluster
        (the scikit-learn-style treatment — disagreement on noise
        counts against the score);
    ``exclude``
        positions where *either* labeling is noise are dropped, scoring
        recovery on the mutually clustered vertices only.
    """
    if len(labels_a) != len(labels_b):
        raise ValueError("label arrays must have equal length")
    if noise_policy not in _NOISE_POLICIES:
        raise ValueError(
            f"noise_policy must be one of {_NOISE_POLICIES}, "
            f"got {noise_policy!r}"
        )
    if isinstance(noise, (int, np.integer)):
        sentinels = {int(noise)}
    else:
        sentinels = {int(x) for x in noise}
    a = [int(x) for x in labels_a]
    b = [int(x) for x in labels_b]
    if noise_policy == "exclude":
        kept = [
            (x, y)
            for x, y in zip(a, b)
            if x not in sentinels and y not in sentinels
        ]
        return [x for x, _ in kept], [y for _, y in kept]
    fresh = max(a + b, default=0) + 1
    for i, x in enumerate(a):
        if x in sentinels:
            a[i] = fresh
            fresh += 1
    for i, y in enumerate(b):
        if y in sentinels:
            b[i] = fresh
            fresh += 1
    return a, b


def _comb2(x: int) -> int:
    return x * (x - 1) // 2


def adjusted_rand_index(
    labels_a: Sequence[int],
    labels_b: Sequence[int],
    *,
    noise=None,
    noise_policy: str = "singletons",
) -> float:
    """Adjusted Rand index in [-1, 1]; 1 means identical partitions.

    ``noise`` (an int or a collection of ints) marks sentinel labels for
    unclustered vertices — SCAN hubs/outliers — handled per
    ``noise_policy`` (see :func:`_resolve_noise`) instead of being
    counted as one shared cluster.

    >>> adjusted_rand_index([0, 0, 1, 1], [5, 5, 9, 9])
    1.0
    >>> adjusted_rand_index([0, 0, 1, 1], [0, 0, 1, -1], noise=-1,
    ...                     noise_policy="exclude")
    1.0
    """
    if noise is not None:
        labels_a, labels_b = _resolve_noise(
            labels_a, labels_b, noise, noise_policy
        )
    n = len(labels_a)
    if n == 0:
        return 1.0
    table = contingency(labels_a, labels_b)
    a_sizes: Counter[int] = Counter()
    b_sizes: Counter[int] = Counter()
    for (a, b), cnt in table.items():
        a_sizes[a] += cnt
        b_sizes[b] += cnt
    sum_comb = sum(_comb2(cnt) for cnt in table.values())
    sum_a = sum(_comb2(cnt) for cnt in a_sizes.values())
    sum_b = sum(_comb2(cnt) for cnt in b_sizes.values())
    total = _comb2(n)
    expected = sum_a * sum_b / total if total else 0.0
    max_index = (sum_a + sum_b) / 2.0
    if max_index == expected:
        return 1.0
    return (sum_comb - expected) / (max_index - expected)


def normalized_mutual_information(
    labels_a: Sequence[int],
    labels_b: Sequence[int],
    *,
    noise=None,
    noise_policy: str = "singletons",
) -> float:
    """NMI with arithmetic-mean normalization, in [0, 1].

    ``noise`` / ``noise_policy`` treat sentinel-labelled (unclustered)
    vertices as in :func:`adjusted_rand_index`.
    """
    if noise is not None:
        labels_a, labels_b = _resolve_noise(
            labels_a, labels_b, noise, noise_policy
        )
    n = len(labels_a)
    if n == 0:
        return 1.0
    table = contingency(labels_a, labels_b)
    a_sizes: Counter[int] = Counter()
    b_sizes: Counter[int] = Counter()
    for (a, b), cnt in table.items():
        a_sizes[a] += cnt
        b_sizes[b] += cnt
    mi = 0.0
    for (a, b), cnt in table.items():
        p_ab = cnt / n
        p_a = a_sizes[a] / n
        p_b = b_sizes[b] / n
        mi += p_ab * math.log(p_ab / (p_a * p_b))
    h_a = -sum((s / n) * math.log(s / n) for s in a_sizes.values())
    h_b = -sum((s / n) * math.log(s / n) for s in b_sizes.values())
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    denom = (h_a + h_b) / 2.0
    return mi / denom if denom else 0.0
