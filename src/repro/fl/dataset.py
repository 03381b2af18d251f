"""Synthetic CIFAR-10-like dataset and federated partitioning.

The paper pre-loads CIFAR-10 onto each phone and partitions it equally across
the 25 users (Section VI / VII.B).  CIFAR-10 cannot be downloaded in this
offline environment, so the substitute is a synthetic 10-class dataset whose
difficulty is controlled by the class-cluster separation: each class is an
anisotropic Gaussian cluster in feature space (optionally rendered as
3x32x32 "images" for the LeNet-5 path) plus label noise.  What matters for
the paper's claims — relative convergence speed under different schedulers
and staleness regimes — is preserved because the optimisation dynamics
(momentum SGD on a non-convex model, heterogeneous local datasets, stale
updates) are the same; only the absolute accuracy scale differs.

Both IID and Dirichlet non-IID partitioning are provided; the paper's
experiments use an equal (IID) partition, the non-IID option supports the
heterogeneity ablations.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Partition",
    "SyntheticCifar10",
    "partition_iid",
    "partition_dirichlet",
    "partition_mixed",
]

#: Dirichlet concentration standing in for "IID" inside a mixed partition: at
#: this concentration the per-class proportions are essentially uniform, so a
#: cohort without skew receives a near-equal slice of every class.
IID_EQUIVALENT_ALPHA = 1e4


class Partition(NamedTuple):
    """Every user's samples, back to back in user order: user ``u`` holds
    the dataset rows ``order[offsets[u]:offsets[u + 1]]``."""

    order: np.ndarray
    offsets: np.ndarray


def _offsets(sizes) -> np.ndarray:
    """``(len(sizes) + 1,)`` int64 running totals of ``sizes``, from 0."""
    offsets = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


class SyntheticCifar10:
    """A synthetic stand-in for CIFAR-10.

    Args:
        num_train: number of training samples.
        num_test: number of held-out test samples.
        num_classes: number of classes (10 for the CIFAR-10 analogue).
        feature_dim: dimensionality of the flat feature representation.
        class_separation: distance scale between class-cluster means; larger
            values make the task easier.  Combined with ``clusters_per_class``
            and ``label_noise``, the defaults give a task that the federated
            MLP takes on the order of a thousand asynchronous updates to
            approach its accuracy plateau, mirroring the slow LeNet-5 /
            CIFAR-10 convergence the paper observes over its 3-hour runs.
        noise_std: per-feature Gaussian noise.
        label_noise: probability of flipping a label to a random class.
        clusters_per_class: number of Gaussian clusters per class.  With a
            single cluster the task is linearly separable and converges in a
            handful of updates; multiple interleaved clusters force the MLP
            to learn a non-linear boundary and slow convergence down to the
            paper's operating regime.
        image_shape: optional ``(C, H, W)``; when set, samples are rendered
            by projecting the flat features into image space so the LeNet-5
            path can be exercised.
        seed: RNG seed.
    """

    def __init__(
        self,
        num_train: int = 5000,
        num_test: int = 1000,
        num_classes: int = 10,
        feature_dim: int = 64,
        class_separation: float = 2.2,
        noise_std: float = 1.0,
        label_noise: float = 0.05,
        clusters_per_class: int = 1,
        image_shape: Optional[Tuple[int, int, int]] = None,
        seed: int = 0,
    ) -> None:
        if num_train <= 0 or num_test <= 0:
            raise ValueError("dataset sizes must be positive")
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if not 0.0 <= label_noise < 1.0:
            raise ValueError("label_noise must be in [0, 1)")
        if clusters_per_class <= 0:
            raise ValueError("clusters_per_class must be positive")
        self.num_classes = num_classes
        self.feature_dim = feature_dim
        self.clusters_per_class = clusters_per_class
        self.image_shape = image_shape
        self._rng = np.random.default_rng(seed)

        self._class_means = self._rng.normal(
            0.0, class_separation, size=(num_classes, clusters_per_class, feature_dim)
        )
        self.x_train, self.y_train = self._sample(num_train, noise_std, label_noise)
        self.x_test, self.y_test = self._sample(num_test, noise_std, label_noise)
        if image_shape is not None:
            channels, height, width = image_shape
            projection_dim = channels * height * width
            self._projection = self._rng.normal(
                0.0, 1.0 / np.sqrt(feature_dim), size=(feature_dim, projection_dim)
            )
            self.x_train = self._to_images(self.x_train)
            self.x_test = self._to_images(self.x_test)

    # -- generation --------------------------------------------------------------

    def _sample(
        self, count: int, noise_std: float, label_noise: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        labels = self._rng.integers(0, self.num_classes, size=count)
        clusters = self._rng.integers(0, self.clusters_per_class, size=count)
        features = self._class_means[labels, clusters] + self._rng.normal(
            0.0, noise_std, size=(count, self.feature_dim)
        )
        if label_noise > 0.0:
            flip = self._rng.random(count) < label_noise
            labels = labels.copy()
            labels[flip] = self._rng.integers(0, self.num_classes, size=int(flip.sum()))
        return features.astype(np.float64, copy=False), labels.astype(np.int64, copy=False)

    def _to_images(self, flat: np.ndarray) -> np.ndarray:
        channels, height, width = self.image_shape
        projected = flat @ self._projection
        return projected.reshape(flat.shape[0], channels, height, width)

    # -- accessors ----------------------------------------------------------------

    def train_set(self) -> Tuple[np.ndarray, np.ndarray]:
        """The full training set ``(x, y)``."""
        return self.x_train, self.y_train

    def test_set(self) -> Tuple[np.ndarray, np.ndarray]:
        """The held-out test set ``(x, y)``."""
        return self.x_test, self.y_test

    def input_dim(self) -> int:
        """Flat input dimensionality seen by an MLP."""
        if self.image_shape is not None:
            channels, height, width = self.image_shape
            return channels * height * width
        return self.feature_dim


def partition_iid(
    x: np.ndarray, y: np.ndarray, num_users: int, rng: np.random.Generator
) -> Partition:
    """Equal random partition of the dataset across users (the paper's setup):
    one shuffle, cut into ``num_users`` runs the way ``np.array_split`` cuts."""
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    if x.shape[0] < num_users:
        raise ValueError("not enough samples to give every user at least one")
    indices = np.arange(x.shape[0], dtype=np.int64)
    rng.shuffle(indices)
    each, extra = divmod(x.shape[0], num_users)
    sizes = np.full(num_users, each, dtype=np.int64)
    sizes[:extra] += 1
    return Partition(indices, _offsets(sizes))


def _partition_by_class_proportions(
    y: np.ndarray,
    num_users: int,
    rng: np.random.Generator,
    num_classes: Optional[int],
    draw_proportions,
) -> Partition:
    """Shared label-skew partitioning loop.

    Per class: shuffle the class pool, obtain one per-user proportion vector
    from ``draw_proportions()`` (called after the shuffle, preserving the
    historical RNG draw order of :func:`partition_dirichlet`), split the
    pool by those proportions with the rounding remainder distributed
    round-robin, then donate samples so every user ends up non-empty: each
    empty user takes one from the next donor in descending initial size, or
    from the largest remaining one when that donor would be left empty.
    Each user's samples are in ascending dataset order.
    """
    num_classes = int(num_classes if num_classes is not None else y.max() + 1)
    if np.count_nonzero(y < num_classes) < num_users:
        raise ValueError("not enough samples to give every user at least one")
    user_indices: Dict[int, List[int]] = {u: [] for u in range(num_users)}
    for cls in range(num_classes):
        cls_idx = np.where(y == cls)[0]
        rng.shuffle(cls_idx)
        proportions = draw_proportions()
        counts = (proportions * len(cls_idx)).astype(int)
        # Distribute the rounding remainder.
        remainder = len(cls_idx) - counts.sum()
        for i in range(remainder):
            counts[i % num_users] += 1
        start = 0
        for user, count in enumerate(counts):
            user_indices[user].extend(cls_idx[start : start + count].tolist())
            start += count
    # Guarantee non-empty shards.
    empty = [u for u, idx in user_indices.items() if not idx]
    donors = sorted(user_indices, key=lambda u: -len(user_indices[u]))
    for i, user in enumerate(empty):
        donor = donors[i % len(donors)]
        if len(user_indices[donor]) < 2:
            donor = max(donors, key=lambda u: len(user_indices[u]))
        user_indices[user].append(user_indices[donor].pop())
    shards = [sorted(user_indices[user]) for user in range(num_users)]
    offsets = _offsets([len(shard) for shard in shards])
    order = np.fromiter(
        (index for shard in shards for index in shard), dtype=np.int64, count=offsets[-1]
    )
    return Partition(order, offsets)


def partition_dirichlet(
    x: np.ndarray,
    y: np.ndarray,
    num_users: int,
    rng: np.random.Generator,
    alpha: float = 0.5,
    num_classes: Optional[int] = None,
) -> Partition:
    """Dirichlet(label-skew) non-IID partition, for heterogeneity ablations.

    Smaller ``alpha`` concentrates each class on fewer users.  Every user is
    guaranteed at least one sample, so fewer samples than users are refused.
    """
    if num_users <= 0:
        raise ValueError("num_users must be positive")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return _partition_by_class_proportions(
        y, num_users, rng, num_classes,
        lambda: rng.dirichlet([alpha] * num_users),
    )


def partition_mixed(
    x: np.ndarray,
    y: np.ndarray,
    alphas: Sequence[Optional[float]],
    rng: np.random.Generator,
    num_classes: Optional[int] = None,
) -> Partition:
    """Per-user label-skew partition with heterogeneous Dirichlet concentrations.

    The scenario subsystem's cohorts may mix skewed and unskewed data: each
    user carries its own concentration ``alphas[u]`` (``None`` means "no
    skew", realised as the near-uniform :data:`IID_EQUIVALENT_ALPHA`).

    The per-class proportions are *mean-normalised* Gamma draws: user ``u``
    receives weight ``Gamma(alpha_u, 1) / alpha_u`` (mean 1, variance
    ``1/alpha_u``), and the weights are normalised per class.  Every user
    therefore holds an equal share of the data *in expectation* regardless
    of its alpha — a skewed user differs in label *composition* (high
    per-class variance), not in sample count.  A naive joint
    ``Dirichlet(alphas)`` would instead allocate mass proportionally to the
    alphas and starve the low-alpha users of data entirely.  When every
    alpha is equal the scale factors cancel and the per-class draw is
    distributed exactly as :func:`partition_dirichlet`'s symmetric
    Dirichlet.

    Every user is guaranteed at least one sample, so fewer samples than
    users are refused.
    """
    num_users = len(alphas)
    if num_users <= 0:
        raise ValueError("alphas must name at least one user")
    resolved = np.array(
        [IID_EQUIVALENT_ALPHA if alpha is None else float(alpha) for alpha in alphas]
    )
    if np.any(resolved <= 0):
        raise ValueError("every alpha must be positive (or None for no skew)")

    def draw_proportions() -> np.ndarray:
        weights = rng.gamma(shape=resolved, scale=1.0) / resolved
        total = float(weights.sum())
        if total <= 0:  # every draw underflowed (only for extreme alphas)
            weights = np.full(num_users, 1.0 / num_users)
            total = 1.0
        return weights / total

    return _partition_by_class_proportions(
        y, num_users, rng, num_classes, draw_proportions
    )
