"""Representative-instance selection: cluster signatures, pick medoids.

Large workloads repeat the same region hundreds of times; folding every
instance pays the full per-sample cost each time even though most
instances are statistically interchangeable.  This module clusters the
per-instance signatures of :mod:`repro.folding.signatures` with a
deterministic seeded k-means, picks one **medoid** per cluster (a real
instance, not a synthetic centroid), and records each cluster's size as
the representative's weight.  The extrapolated fold
(:mod:`repro.folding.extrapolate`) then folds only the medoids and
reweights them, so the expensive per-sample work scales with ``budget``
instead of ``n_instances``.

Determinism contract: identical ``(features, budget, seed)`` always
yields identical representatives — k-means++ seeding draws from
``np.random.default_rng(seed)``, every argmin breaks ties toward the
lowest index, and an emptied cluster is reseeded to the farthest point.
A budget covering every instance degenerates to the identity selection
(one singleton cluster per instance, all weights 1), which is what makes
``rep_budget = n_instances`` bit-identical to the exact fold downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.extrae.trace import Trace
from repro.folding.detect import (
    FoldInstances,
    fold_instances,
    instances_from_regions,
)
from repro.folding.signatures import InstanceSignatures, instance_signatures

__all__ = ["Representatives", "cluster_signatures", "select_representatives"]

_KMEANS_MAX_ITER = 64


@dataclass(frozen=True)
class Representatives:
    """A weighted subset of fold instances standing in for all of them."""

    instances: FoldInstances
    #: instance indices of the chosen medoids, ascending
    indices: np.ndarray
    #: cluster id of every instance, ``labels[indices[k]] == k``
    labels: np.ndarray
    #: instances represented by each medoid (cluster sizes), ``float64``
    weights: np.ndarray
    budget: int
    seed: int

    @property
    def n_clusters(self) -> int:
        return int(self.indices.size)

    @property
    def n_instances(self) -> int:
        return int(self.labels.size)

    @property
    def is_exhaustive(self) -> bool:
        """True when every instance is its own representative."""
        return self.n_clusters == self.n_instances

    def selected(self) -> FoldInstances:
        """The medoid instances as a foldable :class:`FoldInstances`."""
        intervals = tuple(self.instances.intervals[i] for i in self.indices)
        return FoldInstances(self.instances.name, intervals)

    def summary(self) -> str:
        return (
            f"{self.n_clusters} representatives / {self.n_instances} instances"
            f" (budget {self.budget}, seed {self.seed})"
        )


def _kmeans(
    points: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Lloyd k-means with k-means++ init; returns (labels, centers)."""
    n = points.shape[0]
    rng = np.random.default_rng(seed)

    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    d2 = np.sum((points - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            # all remaining points coincide with a center; spread
            # deterministically over distinct rows
            centers[j] = points[j % n]
        else:
            pick = int(np.searchsorted(np.cumsum(d2), rng.random() * total))
            centers[j] = points[min(pick, n - 1)]
        d2 = np.minimum(d2, np.sum((points - centers[j]) ** 2, axis=1))

    labels = np.zeros(n, dtype=np.int64)
    for _ in range(_KMEANS_MAX_ITER):
        dists = np.sum(
            (points[:, None, :] - centers[None, :, :]) ** 2, axis=2
        )
        new_labels = np.argmin(dists, axis=1)
        for j in range(k):
            members = new_labels == j
            if members.any():
                centers[j] = points[members].mean(axis=0)
            else:
                # reseed an emptied cluster to the globally farthest point
                far = int(np.argmax(np.min(dists, axis=1)))
                centers[j] = points[far]
                new_labels[far] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return labels, centers


def cluster_signatures(
    signatures: InstanceSignatures, budget: int, seed: int = 0
) -> Representatives:
    """Cluster *signatures* into ``min(budget, n)`` groups, pick medoids."""
    if budget < 1:
        raise ValueError(f"rep budget must be >= 1, got {budget}")
    n = signatures.n
    k = min(budget, n)

    if k == n:
        # exhaustive: identity selection, exact-fold equivalent downstream
        return Representatives(
            instances=signatures.instances,
            indices=np.arange(n, dtype=np.int64),
            labels=np.arange(n, dtype=np.int64),
            weights=np.ones(n, dtype=np.float64),
            budget=budget,
            seed=seed,
        )

    points = signatures.normalized()
    labels, centers = _kmeans(points, k, seed)

    indices = np.empty(k, dtype=np.int64)
    for j in range(k):
        members = np.flatnonzero(labels == j)
        d2 = np.sum((points[members] - centers[j]) ** 2, axis=1)
        indices[j] = members[int(np.argmin(d2))]

    # relabel clusters so medoid indices are ascending: cluster ids are
    # then stable under permutation of the k-means internals
    order = np.argsort(indices, kind="stable")
    indices = indices[order]
    remap = np.empty(k, dtype=np.int64)
    remap[order] = np.arange(k)
    labels = remap[labels]
    weights = np.bincount(labels, minlength=k).astype(np.float64)

    return Representatives(
        instances=signatures.instances,
        indices=indices,
        labels=labels,
        weights=weights,
        budget=budget,
        seed=seed,
    )


def select_representatives(
    trace: Trace,
    region: str | None = None,
    budget: int = 8,
    *,
    instances: FoldInstances | None = None,
    seed: int = 0,
    prune_tolerance: float | None = 0.5,
) -> Representatives:
    """Pick ``budget`` weighted representative instances of *trace*.

    The instances default to the exact fold's
    (:func:`~repro.folding.detect.fold_instances`), over *region*'s
    occurrences when one is named.  Signature computation and
    clustering are both O(instances) on top of one vectorized pass
    over the sample table — cheap relative to the fold they amortize.
    """
    if budget < 1:
        raise ValueError(f"rep budget must be >= 1, got {budget}")
    if instances is None:
        instances = fold_instances(
            trace,
            prune_tolerance,
            instances_from_regions(trace, region) if region is not None else None,
        )
    if budget >= instances.n:
        # exhaustive: the identity selection needs no features at all
        return cluster_signatures(
            InstanceSignatures(
                instances=instances,
                feature_names=(),
                features=np.empty((instances.n, 0)),
            ),
            budget,
            seed,
        )
    signatures = instance_signatures(trace, instances)
    return cluster_signatures(signatures, budget, seed)
