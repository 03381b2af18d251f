"""Static inputs held once: a dataset and an arrival schedule per content.

``build_dataset`` and ``build_arrival_schedule`` (``src/repro/sim/engine.py``)
hand every engine of the process whose configuration gives the same builder
inputs one read-only object, kept while some engine holds it.  The client
plane reads the dataset's own arrays through the partition order and holds
no gathered copy.

* engines of one configuration share their dataset and arrival schedule,
  and a write into a shared array raises;
* configurations that differ in any one field a builder reads never share
  that input, and a field no builder reads does not stop the sharing;
* an entry dies with the last engine that holds it;
* two threads building one configuration get one object;
* a second engine allocates no dataset, and no engine a gathered copy.
"""

from __future__ import annotations

import dataclasses
import gc
import inspect
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.policies import ImmediatePolicy
from repro.device.apps import APP_CATALOG
from repro.energy.measurements import TABLE_II, MeasurementTable
from repro.sim import engine as engine_module
from repro.sim.config import SimulationConfig
from repro.sim.engine import (
    Coordinator,
    SimulationEngine,
    build_arrival_schedule,
    build_dataset,
    build_engine,
)
from repro.sim.shard import ShardedEngine

BASE = SimulationConfig(
    num_users=3,
    total_slots=40,
    app_arrival_prob=0.05,
    seed=3,
    num_train_samples=12,
    num_test_samples=6,
    feature_dim=4,
    hidden_dims=(4,),
)
TABLE = MeasurementTable()
DEVICES = ("pixel2", "nexus6", "hikey970")

#: Per field a builder reads, the values it may take on a 3-user ``BASE``.
DATASET_FIELDS = {
    "num_train_samples": st.integers(3, 40),
    "num_test_samples": st.integers(1, 20),
    "num_classes": st.integers(2, 12),
    "feature_dim": st.integers(1, 16),
    "class_separation": st.floats(0.0, 5.0),
    "noise_std": st.floats(0.0, 5.0),
    "label_noise": st.floats(0.0, 0.9),
    "clusters_per_class": st.integers(1, 4),
    "seed": st.integers(0, 2**31),
}
ARRIVAL_FIELDS = {
    "seed": st.integers(0, 2**31),
    "num_users": st.integers(1, 12),
    "total_slots": st.integers(1, 80),
    "slot_seconds": st.floats(0.5, 3.0),
    "app_arrival_prob": st.floats(0.0, 1.0),
    "diurnal_arrivals": st.booleans(),
    "app_weights": st.lists(
        st.floats(0.1, 5.0), min_size=len(APP_CATALOG), max_size=len(APP_CATALOG)
    ),
    "user_arrivals": st.lists(
        st.builds(lambda p: {"kind": "bernoulli", "probability": p}, st.floats(0.0, 1.0)),
        min_size=3,
        max_size=3,
    ),
    "device_mix": st.floats(0.0, 1.0).map(lambda p: {"pixel2": p, "nexus6": 1.0 - p}),
    "device_names": st.lists(st.sampled_from(DEVICES), min_size=3, max_size=3),
}


def _engines(config, count=2):
    return [SimulationEngine(config, ImmediatePolicy()) for _ in range(count)]


class TestSharing:
    def test_engines_of_one_configuration_share_their_static_inputs(self):
        first, second = _engines(BASE)
        assert first.dataset is second.dataset
        assert first.dataset.x_train is second.dataset.x_train
        assert first.arrivals is second.arrivals
        # The client plane reads the dataset itself, not a copy of it.
        assert first.clients.x is first.dataset.x_train
        assert second.clients.y is first.dataset.y_train
        # A sharded coordinator (and its inline shards) shares them too.
        sharded = ShardedEngine(BASE, ImmediatePolicy(), shards=2, inline=True)
        assert sharded.dataset is first.dataset and sharded.arrivals is first.arrivals

    def test_a_write_into_a_shared_array_raises(self):
        (engine,) = _engines(BASE, 1)
        dataset = engine.dataset
        shared = [value for value in vars(dataset).values() if isinstance(value, np.ndarray)]
        assert {id(a) for a in dataset.train_set() + dataset.test_set()} <= {
            id(a) for a in shared
        }
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 0

    def test_a_field_no_builder_reads_keeps_the_sharing(self):
        other = dataclasses.replace(
            BASE, learning_rate=0.01, hidden_dims=(8,), wifi_probability=0.2
        )
        (first,), (second,) = _engines(BASE, 1), _engines(other, 1)
        assert first.dataset is second.dataset and first.arrivals is second.arrivals

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    @given(data=st.data())
    def test_configurations_differing_in_a_field_a_builder_reads_never_share(self, data):
        builder, fields = data.draw(
            st.sampled_from([("dataset", DATASET_FIELDS), ("arrivals", ARRIVAL_FIELDS)])
        )
        field = data.draw(st.sampled_from(sorted(fields)))
        value = data.draw(fields[field])
        assume(value != getattr(BASE, field))
        other = dataclasses.replace(BASE, **{field: value})
        if builder == "dataset":
            assert build_dataset(BASE) is not build_dataset(other)
        else:
            assert build_arrival_schedule(BASE, TABLE) is not build_arrival_schedule(other, TABLE)

    def test_another_measurement_table_never_shares_the_schedule(self):
        device = next(iter(TABLE_II))
        app = next(iter(TABLE_II[device]))
        rows = {d: dict(apps) for d, apps in TABLE_II.items()}
        rows[device][app] = dataclasses.replace(
            rows[device][app], corun_time_s=rows[device][app].corun_time_s + 1.0
        )
        schedule = build_arrival_schedule(BASE, TABLE)
        assert build_arrival_schedule(BASE, MeasurementTable()) is schedule
        assert build_arrival_schedule(BASE, MeasurementTable(table=rows)) is not schedule


class TestLifetime:
    def test_entries_die_with_the_last_engine(self):
        config = dataclasses.replace(BASE, seed=4242)
        gc.collect()
        before = set(engine_module._STATIC.keys())
        engines = _engines(config)
        assert len(set(engine_module._STATIC.keys()) - before) == 2
        del engines
        gc.collect()
        assert set(engine_module._STATIC.keys()) == before

    def test_two_threads_building_one_configuration_get_one_object(self, monkeypatch):
        config = dataclasses.replace(BASE, seed=4343)
        builds = []
        real = engine_module._read_only_dataset

        def slow(**arguments):
            builds.append(arguments)
            time.sleep(0.05)  # both threads are inside build_dataset by now
            return real(**arguments)

        monkeypatch.setattr(engine_module, "_read_only_dataset", slow)
        barrier = threading.Barrier(2)
        built = [None, None]

        def build(slot):
            barrier.wait()
            built[slot] = (build_dataset(config), build_arrival_schedule(config, TABLE))

        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert built[0][0] is built[1][0] and built[0][1] is built[1][1]


class TestFootprint:
    def test_no_second_dataset_and_no_gathered_copy(self):
        """A gathered copy or a second dataset is one ``x_train``-sized block."""
        config = SimulationConfig(
            num_users=4,
            total_slots=20,
            num_train_samples=20_000,
            num_test_samples=50,
            feature_dim=32,
            hidden_dims=(4,),
            seed=4444,
        )
        gc.collect()
        tracemalloc.start()
        try:
            first = SimulationEngine(config, ImmediatePolicy())
            after_first = tracemalloc.take_snapshot()
            second = SimulationEngine(config, ImmediatePolicy())
            after_second = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        x_bytes = first.dataset.x_train.nbytes
        outside_dataset = [
            stat.size
            for stat in after_first.statistics("lineno")
            if not stat.traceback[0].filename.endswith("repro/fl/dataset.py")
        ]
        assert max(outside_dataset) < x_bytes / 8
        grown = after_second.compare_to(after_first, "lineno")
        assert max(stat.size_diff for stat in grown) < x_bytes / 8
        assert second.dataset is first.dataset


class TestNoDatasetKnob:
    @pytest.mark.parametrize(
        "callable_",
        [SimulationEngine, ShardedEngine, Coordinator.build_coordinator],
        ids=lambda c: c.__qualname__,
    )
    def test_no_constructor_takes_a_dataset(self, callable_):
        assert "dataset" not in inspect.signature(callable_).parameters

    def test_a_dataset_keyword_is_refused(self):
        with pytest.raises(TypeError, match="dataset"):
            build_engine(BASE, ImmediatePolicy(), dataset=build_dataset(BASE))
