"""The client plane: one column store per user range instead of per-user
training objects (``src/repro/fl/client.py``, ``build_clients`` in
``src/repro/sim/engine.py``).

* A user's shuffling generator is made on its first draw.  Rounds, uploads
  and the checkpointed ``rng_state`` dicts equal those of eager per-user
  generators (the frozen round), whether a snapshot is taken before the
  generator exists or after.
* The Python allocations of ``repro/fl/client.py`` and ``repro/fl/dataset.py``
  at build do not grow with the user count.
"""

from __future__ import annotations

import copy
import gc
import tracemalloc

import numpy as np
import pytest

from oracle import DataPartition, FrozenLocalTrainer, client_plane, upload_bits
from repro.device.models import build_device_fleet
from repro.energy.measurements import MeasurementTable
from repro.fl.client import FLClient
from repro.fl.model import build_mlp
from repro.sim.config import SimulationConfig
from repro.sim.engine import build_dataset, build_population, build_rngs

USERS = 3
LO = 5
SEED = 70


def _parts(size: int) -> list:
    rng = np.random.default_rng(size)
    return [
        DataPartition(user, rng.normal(size=(size, 12)), rng.integers(0, 10, size))
        for user in range(USERS)
    ]


class TestLazyGenerators:
    @pytest.mark.parametrize("size", [1, 2, 20])
    @pytest.mark.parametrize("snapshot", ["before_first_draw", "after_first_draw"])
    def test_the_plane_is_the_eager_per_user_generators(self, size, snapshot):
        parts = _parts(size)
        model = build_mlp(input_dim=12, hidden_dims=(8,), seed=2)
        knobs = dict(lo=LO, batch_size=4, seed=SEED)
        plane = client_plane(parts, model, **knobs)
        eager = [
            FrozenLocalTrainer(copy.deepcopy(model), part, batch_size=4, seed=SEED + LO + user)
            for user, part in enumerate(parts)
        ]
        base = model.get_flat_params()
        rounds = [0] * USERS

        def train(plane, users):
            updates = FLClient.local_train(plane, users, [base] * len(users), [7] * len(users))
            for user, update in zip(users, updates):
                want = eager[user].local_train(base)
                rounds[user] += 1
                assert update.user_id == LO + user
                assert update.num_samples == size
                assert update.delta.tobytes() == want.delta.tobytes()
                assert update.params.tobytes() == want.params.tobytes()
                assert update.train_loss == want.train_loss
                assert update.momentum_norm == want.momentum_norm
                assert plane.velocities[user].tobytes() == eager[user].velocity.tobytes()

        def checkpoint(plane):
            clients, velocities = plane.checkpoint_state()
            for user, client in enumerate(clients):
                assert client == {
                    "rng_state": eager[user].rng.bit_generator.state,
                    "rounds_completed": rounds[user],
                }
                assert type(client["rounds_completed"]) is int
            return clients, velocities

        if snapshot == "after_first_draw":
            train(plane, [0, 1])
        state = checkpoint(plane)
        plane = client_plane(parts, model, **knobs)
        plane.restore_state(*state)
        # Restored users that never drew are left to their first draw.
        drew = [0, 1] if snapshot == "after_first_draw" and size > 1 else []
        assert sorted(plane._generators) == drew
        if snapshot == "before_first_draw":
            train(plane, [0, 1])
        train(plane, [1, 0])
        train(plane, [0])
        checkpoint(plane)
        assert plane.rounds_completed.tolist() == rounds == [3, 2, 0]
        # One sample never shuffles; otherwise exactly the users that trained.
        assert sorted(plane._generators) == ([] if size == 1 else [0, 1])

    def test_a_snapshot_reports_the_seeded_state_computed_once(self):
        plane = client_plane(_parts(2), build_mlp(input_dim=12, hidden_dims=(8,)), seed=SEED)
        first, _ = plane.checkpoint_state()
        words = plane._seeded_words
        second, _ = plane.checkpoint_state()
        assert plane._seeded_words is words and words.shape == (USERS, 4)
        assert first == second
        assert [client["rng_state"] for client in first] == [
            np.random.default_rng(SEED + user).bit_generator.state for user in range(USERS)
        ]

    def test_uploads_do_not_depend_on_when_generators_are_made(self):
        """A plane that made every generator up front (the eager build)
        uploads the bits of one that makes them on first draw."""
        parts = _parts(20)
        model = build_mlp(input_dim=12, hidden_dims=(8,), seed=2)
        lazy, eager = client_plane(parts, model), client_plane(parts, model)
        for user in range(USERS):
            eager._generators[user] = np.random.default_rng(user)
        base = model.get_flat_params()
        for users in ([2, 0], [0, 1, 2], [1]):
            got = FLClient.local_train(lazy, users, [base] * len(users), [0] * len(users))
            want = FLClient.local_train(eager, users, [base] * len(users), [0] * len(users))
            assert [upload_bits(u) for u in got] == [upload_bits(u) for u in want]
        assert [lazy.rng_state(u) for u in range(USERS)] == [
            eager.rng_state(u) for u in range(USERS)
        ]


def _client_blocks(users: int) -> dict:
    """Live tracemalloc blocks of the two client-side modules after building
    ``users`` users in the megafleet shape (one sample each, hidden [16]) and
    taking, then dropping, one snapshot of their plane."""
    config = SimulationConfig(
        num_users=users,
        total_slots=10,
        num_train_samples=users,
        num_test_samples=50,
        hidden_dims=(16,),
    )
    rngs = build_rngs(config)
    specs = build_device_fleet(users, rngs["devices"])
    dataset = build_dataset(config)
    # A list made while the interpreter's free list holds a spare one costs
    # one block less, so what earlier tests left there moved the count by
    # one: empty the free list first and keep the collector from refilling
    # it during the build.
    gc.collect()
    spares = [[] for _ in range(100)]
    gc.disable()
    tracemalloc.start()
    try:
        built = build_population(config, MeasurementTable(), specs, dataset, rngs["dataset"])
        built[2].checkpoint_state()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        gc.enable()
    del spares
    counts = {"repro/fl/client.py": 0, "repro/fl/dataset.py": 0}
    for stat in snapshot.statistics("filename"):
        for module in counts:
            if stat.traceback[0].filename.endswith(module):
                counts[module] += stat.count
    del built
    return counts


class TestNoPerUserObjects:
    def test_client_module_blocks_do_not_grow_with_users(self):
        small, large = _client_blocks(200), _client_blocks(2_000)
        for module in small:
            assert large[module] <= small[module], (module, small, large)
