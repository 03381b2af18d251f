"""Tests for the Sequential container, model builders and the synthetic dataset."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import DataPartition, flat_grads, frozen_class_partition, partition_batches, user_partitions
from repro.fl.dataset import (
    SyntheticCifar10,
    partition_dirichlet,
    partition_iid,
    partition_mixed,
)
from repro.fl.metrics import evaluate_model
from repro.fl.model import Sequential, build_lenet5, build_mlp


class TestSequential:
    def test_mlp_forward_shape(self, rng):
        model = build_mlp(input_dim=16, hidden_dims=(8,), num_classes=4, seed=0)
        logits = model.forward(rng.normal(size=(5, 16)))
        assert logits.shape == (5, 4)

    def test_flat_params_round_trip(self, rng):
        model = build_mlp(input_dim=10, hidden_dims=(6,), num_classes=3, seed=1)
        flat = model.get_flat_params()
        assert flat.shape == (model.num_parameters(),)
        perturbed = flat + 0.5
        model.set_flat_params(perturbed)
        assert np.allclose(model.get_flat_params(), perturbed)

    def test_set_flat_params_wrong_length(self):
        model = build_mlp(input_dim=10, hidden_dims=(6,), num_classes=3)
        with pytest.raises(ValueError):
            model.set_flat_params(np.zeros(3))

    def test_flat_params_are_copies(self):
        model = build_mlp(input_dim=4, hidden_dims=(4,), num_classes=2)
        flat = model.get_flat_params()
        flat[:] = 0.0
        assert not np.allclose(model.get_flat_params(), 0.0)

    def test_train_step_populates_gradients(self, rng):
        model = build_mlp(input_dim=8, hidden_dims=(6,), num_classes=3, seed=2)
        x = rng.normal(size=(10, 8))
        y = rng.integers(0, 3, size=10)
        loss = model.train_step_gradients(x, y)
        assert loss > 0.0
        grads = flat_grads(model)
        assert grads.shape == model.get_flat_params().shape
        assert np.abs(grads).sum() > 0.0

    def test_loss_decreases_with_training(self, rng):
        model = build_mlp(input_dim=8, hidden_dims=(16,), num_classes=3, seed=3)
        x = rng.normal(size=(60, 8))
        y = rng.integers(0, 3, size=60)
        first_loss = model.train_step_gradients(x, y)
        from repro.fl.optimizer import MomentumSGD

        optimizer = MomentumSGD(learning_rate=0.1, momentum=0.9)
        for _ in range(60):
            model.train_step_gradients(x, y)
            optimizer.step(model)
        final_loss = model.loss(x, y)
        assert final_loss < first_loss * 0.7

    def test_predict_returns_classes(self, rng):
        """Evaluation scores the argmax of the logits against the labels."""
        model = build_mlp(input_dim=8, hidden_dims=(6,), num_classes=5, seed=4)
        x = rng.normal(size=(7, 8))
        predictions = model.forward(x).argmax(axis=1)
        assert evaluate_model(model, x, predictions)[0] == 1.0
        assert evaluate_model(model, x, (predictions + 1) % 5)[0] == 0.0
        hits = np.array([True, False, True, True, False, False, True])
        labels = np.where(hits, predictions, (predictions + 1) % 5)
        assert evaluate_model(model, x, labels, batch_size=3)[0] == pytest.approx(4 / 7)

    def test_empty_layer_list_rejected(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_lenet5_shapes(self, rng):
        model = build_lenet5(in_channels=3, image_size=32, num_classes=10, seed=0)
        logits = model.forward(rng.normal(size=(2, 3, 32, 32)))
        assert logits.shape == (2, 10)
        assert model.num_parameters() > 50_000

    def test_lenet5_rejects_tiny_images(self):
        with pytest.raises(ValueError):
            build_lenet5(image_size=8)


class TestSyntheticDataset:
    def test_shapes_and_labels(self):
        dataset = SyntheticCifar10(num_train=200, num_test=50, seed=0)
        x_train, y_train = dataset.train_set()
        x_test, y_test = dataset.test_set()
        assert x_train.shape == (200, dataset.feature_dim)
        assert x_test.shape == (50, dataset.feature_dim)
        assert y_train.min() >= 0 and y_train.max() < 10
        assert y_test.dtype == np.int64

    def test_reproducible_per_seed(self):
        a = SyntheticCifar10(num_train=100, num_test=20, seed=5)
        b = SyntheticCifar10(num_train=100, num_test=20, seed=5)
        assert np.allclose(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)

    def test_different_seeds_differ(self):
        a = SyntheticCifar10(num_train=100, num_test=20, seed=1)
        b = SyntheticCifar10(num_train=100, num_test=20, seed=2)
        assert not np.allclose(a.x_train, b.x_train)

    def test_image_shape_option(self):
        dataset = SyntheticCifar10(
            num_train=20, num_test=10, image_shape=(3, 32, 32), seed=0
        )
        assert dataset.x_train.shape == (20, 3, 32, 32)
        assert dataset.input_dim() == 3 * 32 * 32

    def test_easier_task_is_more_separable(self):
        """Larger class separation should give a linear probe higher accuracy."""

        def linear_probe_accuracy(dataset):
            x, y = dataset.train_set()
            means = np.stack([x[y == c].mean(axis=0) for c in range(10)])
            xt, yt = dataset.test_set()
            distances = ((xt[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
            return float((distances.argmin(axis=1) == yt).mean())

        easy = SyntheticCifar10(num_train=2000, num_test=500, class_separation=3.0,
                                clusters_per_class=1, label_noise=0.0, seed=0)
        hard = SyntheticCifar10(num_train=2000, num_test=500, class_separation=0.8,
                                clusters_per_class=6, label_noise=0.1, seed=0)
        assert linear_probe_accuracy(easy) > linear_probe_accuracy(hard) + 0.2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SyntheticCifar10(num_train=0)
        with pytest.raises(ValueError):
            SyntheticCifar10(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticCifar10(label_noise=1.0)
        with pytest.raises(ValueError):
            SyntheticCifar10(clusters_per_class=0)


class TestPartitioning:
    def test_iid_partition_covers_everything(self, rng):
        dataset = SyntheticCifar10(num_train=250, num_test=20, seed=0)
        order, offsets = partition_iid(dataset.x_train, dataset.y_train, 25, rng)
        assert offsets.dtype == order.dtype == np.int64
        assert offsets.tolist() == list(range(0, 251, 10))
        assert sorted(order.tolist()) == list(range(250))

    def test_iid_partition_cuts_as_array_split_does(self):
        dataset = SyntheticCifar10(num_train=233, num_test=20, seed=0)
        x, y = dataset.train_set()
        parts = user_partitions(x, y, partition_iid(x, y, 7, np.random.default_rng(4)))
        indices = np.arange(233)
        np.random.default_rng(4).shuffle(indices)
        for part, shard in zip(parts, np.array_split(indices, 7)):
            assert part.x.tobytes() == x[shard].tobytes()
            assert part.y.tobytes() == y[shard].tobytes()

    def test_iid_partition_requires_enough_samples(self, rng):
        dataset = SyntheticCifar10(num_train=10, num_test=5, seed=0)
        with pytest.raises(ValueError):
            partition_iid(dataset.x_train, dataset.y_train, 20, rng)

    def test_dirichlet_partition_covers_everything(self, rng):
        dataset = SyntheticCifar10(num_train=400, num_test=20, seed=0)
        order, offsets = partition_dirichlet(
            dataset.x_train, dataset.y_train, 10, rng, alpha=0.5
        )
        assert len(offsets) == 11 and offsets[-1] == 400
        assert all(np.diff(offsets) >= 1)
        assert sorted(order.tolist()) == list(range(400))

    def test_dirichlet_small_alpha_is_more_skewed(self, rng):
        dataset = SyntheticCifar10(num_train=2000, num_test=20, seed=0)

        def mean_skew(parts):
            skews = []
            for part in parts:
                dist = part.label_distribution(10)
                dist = dist / dist.sum()
                skews.append(dist.max())
            return float(np.mean(skews))

        x, y = dataset.train_set()
        skewed = user_partitions(
            x, y, partition_dirichlet(x, y, 10, np.random.default_rng(0), alpha=0.1)
        )
        uniform = user_partitions(
            x, y, partition_dirichlet(x, y, 10, np.random.default_rng(0), alpha=100.0)
        )
        assert mean_skew(skewed) > mean_skew(uniform)

    def test_partition_batches(self, rng):
        dataset = SyntheticCifar10(num_train=100, num_test=20, seed=0)
        x, y = dataset.train_set()
        part = user_partitions(x, y, partition_iid(x, y, 5, rng))[0]
        batches = partition_batches(part, 8, rng=rng)
        assert sum(x.shape[0] for x, _ in batches) == len(part)
        assert all(x.shape[0] <= 8 for x, _ in batches)

    def test_partition_validation(self):
        with pytest.raises(ValueError):
            DataPartition(user_id=0, x=np.zeros((3, 2)), y=np.zeros(2, dtype=int))
        part = DataPartition(user_id=0, x=np.zeros((4, 2)), y=np.zeros(4, dtype=int))
        with pytest.raises(ValueError):
            partition_batches(part, 0)

    def test_invalid_dirichlet_parameters(self, rng):
        dataset = SyntheticCifar10(num_train=100, num_test=20, seed=0)
        with pytest.raises(ValueError):
            partition_dirichlet(dataset.x_train, dataset.y_train, 0, rng)
        with pytest.raises(ValueError):
            partition_dirichlet(dataset.x_train, dataset.y_train, 5, rng, alpha=0.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda x, y, users, rng: partition_dirichlet(x, y, users, rng, alpha=0.01),
            lambda x, y, users, rng: partition_mixed(x, y, [0.01] * users, rng),
        ],
        ids=["dirichlet", "mixed"],
    )
    def test_fewer_samples_than_users_are_refused(self, make):
        dataset = SyntheticCifar10(num_train=5, num_test=5, seed=0)
        with pytest.raises(ValueError, match="at least one"):
            make(dataset.x_train, dataset.y_train, 8, np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.integers(1, 60),
        extra_users=st.integers(0, 30),
        alpha=st.sampled_from([0.005, 0.05, 0.5, 5.0]),
        classes=st.integers(2, 10),
        seed=st.integers(0, 2**16),
        mixed=st.booleans(),
    )
    def test_label_skew_leaves_no_user_empty(
        self, samples, extra_users, alpha, classes, seed, mixed
    ):
        """Every user gets at least one sample and every sample one user;
        wherever the loop before the fix left nobody empty, the partition
        is exactly its partition."""
        users = max(1, samples - extra_users)
        y = np.random.default_rng(seed).integers(0, classes, samples)
        x = np.zeros((samples, 1))

        def run(rng):
            if mixed:
                return partition_mixed(x, y, [alpha] * users, rng, num_classes=classes)
            return partition_dirichlet(x, y, users, rng, alpha=alpha, num_classes=classes)

        order, offsets = run(np.random.default_rng(seed))
        sizes = np.diff(offsets)
        assert len(sizes) == users and (sizes >= 1).all()
        assert sorted(order.tolist()) == list(range(samples))
        shards = np.split(order, offsets[1:-1])
        assert all((np.diff(shard) > 0).all() for shard in shards)  # ascending

        rng = np.random.default_rng(seed)
        if mixed:
            def draw():
                weights = rng.gamma(shape=np.full(users, alpha), scale=1.0) / alpha
                total = float(weights.sum())
                if total <= 0:
                    return np.full(users, 1.0 / users)
                return weights / total
        else:
            def draw():
                return rng.dirichlet([alpha] * users)
        before = frozen_class_partition(y, users, rng, classes, draw)
        if all(len(shard) for shard in before):
            assert [shard.tolist() for shard in shards] == [s.tolist() for s in before]
