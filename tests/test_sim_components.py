"""Tests for the simulation components: RNG, config, arrivals and traces."""

import dataclasses
import itertools
import math
import pickle
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bench.check import digest
from bench.workloads import configs
from repro.columns import TAIL_ROWS, ColumnLog
from repro.core.online import OnlinePolicy
from repro.core.policies import SyncPolicy
from repro.device.models import DEVICE_CATALOG
from repro.fl.server import ServerUpdate
from repro.sim.arrivals import (
    ArrivalSchedule,
    BernoulliArrivalProcess,
    DiurnalArrivalProcess,
)
from repro.sim.config import SimulationConfig
from repro.sim.coupling import CouplingCore
from repro.sim.engine import RNG_STREAM_NAMES, SimulationEngine, build_rngs
from repro.sim.rng import spawn_generators
from repro.sim.trace import SimulationTrace, SlotSample

from oracle import FrozenLogs, FrozenUpdateSample, arrival_rate, server_updates, total_arrivals
from reference_loop import count_decision, launch_index


class TestSpawnGenerators:
    def test_generators_are_independent_and_reproducible(self):
        first = spawn_generators(42, ["a", "b"])
        second = spawn_generators(42, ["a", "b"])
        assert first["a"].random() == second["a"].random()
        assert first["a"].random() != first["b"].random()

    def test_different_seed_differs(self):
        a = spawn_generators(1, ["x"])["x"].random()
        b = spawn_generators(2, ["x"])["x"].random()
        assert a != b

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            spawn_generators(0, [])
        with pytest.raises(ValueError):
            spawn_generators(0, ["a", "a"])

    def test_the_retired_network_stream_keeps_its_slot(self):
        """Nothing draws from ``network`` any more, but children spawn by
        position: the streams after it are the ones earlier releases drew."""
        assert RNG_STREAM_NAMES == ("devices", "arrivals", "dataset", "clients", "network", "apps")
        rngs = build_rngs(SimulationConfig(seed=7))
        assert rngs["apps"].integers(0, 2**31, size=3).tolist() == [
            1029472635, 1348834135, 484674692,
        ]
        assert rngs["clients"].integers(0, 2**31, size=2).tolist() == [1029798310, 2109522148]


class TestSimulationConfig:
    def test_defaults_match_paper(self):
        config = SimulationConfig()
        assert config.num_users == 25
        assert config.total_slots == 10_800
        assert config.slot_seconds == 1.0
        assert config.app_arrival_prob == pytest.approx(0.001)
        assert config.batch_size == 20
        assert config.total_seconds() == pytest.approx(3 * 3600.0)

    def test_scaled_copy(self):
        config = SimulationConfig()
        scaled = config.scaled(total_slots=100, num_users=5)
        assert scaled.total_slots == 100 and scaled.num_users == 5
        assert config.total_slots == 10_800  # original untouched

    def test_validation(self):
        with pytest.raises(ValueError):
            SimulationConfig(num_users=0)
        with pytest.raises(ValueError):
            SimulationConfig(app_arrival_prob=1.5)
        with pytest.raises(ValueError):
            SimulationConfig(slot_seconds=0.0)
        with pytest.raises(ValueError):
            SimulationConfig(device_names=["pixel2"], num_users=2)
        with pytest.raises(ValueError):
            SimulationConfig(epsilon=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field",
        ["slot_seconds", "epsilon", "battery_capacity_j", "battery_charge_rate_w", "learning_rate"],
    )
    def test_non_finite_scalars_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("learning_rate", 0.0),
            ("learning_rate", -0.01),
            ("momentum", -0.1),
            ("momentum", 1.0),
            ("momentum", math.nan),
            ("batch_size", 0),
            ("batch_size", 2.5),
            ("local_epochs", 0),
            ("local_epochs", -1),
        ],
    )
    def test_training_knobs_are_refused_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,values",
        [
            ("noise_std", [math.nan, math.inf, -0.5]),
            ("class_separation", [math.nan, math.inf, -1.0]),
            ("label_noise", [-0.1, 1.0, math.nan]),
            ("mixing_alpha", [0.0, 1.5, math.nan]),
        ],
    )
    def test_dataset_and_merge_knobs_are_refused_at_construction(self, field, values):
        for value, rule in itertools.product(values, ["accumulate", "mixing"]):
            with pytest.raises(ValueError, match=field):
                SimulationConfig(async_rule=rule, **{field: value})
        # The closed ends stay open to use.
        SimulationConfig(noise_std=0.0, class_separation=0.0, label_noise=0.0, mixing_alpha=1.0)

    @pytest.mark.parametrize(
        "field,value",
        [("wifi_probability", 0.5), ("user_wifi", [True]), ("account_radio_energy", True)],
    )
    def test_the_retired_network_knobs_are_refused(self, field, value):
        """Transfers are counted, not timed: a caller still setting a
        network knob fails loudly instead of running without it."""
        with pytest.raises(TypeError, match=field):
            SimulationConfig(num_users=1, **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["user_battery_capacity_j", "user_charge_rate_w"])
    def test_non_finite_per_user_entries_are_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} entries must be finite"):
            SimulationConfig(num_users=2, **{field: [1.0, value]})


class TestArrivalProcesses:
    def test_bernoulli_constant(self):
        process = BernoulliArrivalProcess(0.01)
        assert process.probability_at(0, 1.0) == 0.01
        assert process.probability_at(9999, 1.0) == 0.01
        with pytest.raises(ValueError):
            BernoulliArrivalProcess(1.5)

    def test_diurnal_peaks_at_midday(self):
        process = DiurnalArrivalProcess(peak_probability=0.01, trough_probability=0.001,
                                        period_s=86_400.0)
        midnight = process.probability_at(0, 1.0)
        midday = process.probability_at(43_200, 1.0)
        assert midday == pytest.approx(0.01, rel=1e-6)
        assert midnight == pytest.approx(0.001, rel=1e-6)

    def test_diurnal_validation(self):
        with pytest.raises(ValueError):
            DiurnalArrivalProcess(peak_probability=0.001, trough_probability=0.01)
        with pytest.raises(ValueError):
            DiurnalArrivalProcess(period_s=0.0)


class TestArrivalSchedule:
    def _schedule(self, prob=0.01, slots=2000, users=4, seed=0):
        specs = [DEVICE_CATALOG["pixel2"]] * users
        return ArrivalSchedule.generate(
            num_users=users,
            total_slots=slots,
            slot_seconds=1.0,
            process=BernoulliArrivalProcess(prob),
            device_specs=specs,
            rng=np.random.default_rng(seed),
        )

    def test_empirical_rate_close_to_nominal(self):
        schedule = self._schedule(prob=0.005, slots=20_000, users=5, seed=1)
        rate = arrival_rate(schedule, 20_000, 5)
        # Arrivals are suppressed while an app runs, so the empirical rate is
        # a bit below the nominal per-slot probability but the same order.
        assert 0.001 < rate <= 0.005

    def test_no_overlapping_apps(self):
        schedule = self._schedule(prob=0.05, slots=5000, users=3, seed=2)
        for user in range(3):
            arrivals = schedule.arrivals_for(user)
            for earlier, later in zip(arrivals, arrivals[1:]):
                assert later.arrival_slot >= earlier.end_slot()

    def test_app_starting_at_round_trip(self):
        schedule = self._schedule(seed=3)
        launches = launch_index(schedule, 4)
        for user in range(4):
            for app in schedule.arrivals_for(user):
                assert launches[user][app.arrival_slot] is app
        assert launches[0].get(10**9) is None

    def test_next_arrival_oracle(self):
        schedule = self._schedule(prob=0.02, slots=3000, users=2, seed=4)
        arrivals = schedule.arrivals_for(0)
        if not arrivals:
            pytest.skip("no arrivals generated for this seed")
        first = arrivals[0]
        found = schedule.next_arrival(0, 0, first.arrival_slot + 1)
        assert found == (first.arrival_slot, first.name)
        assert schedule.next_arrival(0, first.arrival_slot + 1, first.arrival_slot + 2) != found

    def test_next_arrival_validation(self):
        schedule = self._schedule()
        with pytest.raises(ValueError):
            schedule.next_arrival(0, 10, 10)

    def test_zero_probability_produces_no_arrivals(self):
        schedule = self._schedule(prob=0.0)
        assert total_arrivals(schedule) == 0

    def test_durations_match_table(self, table):
        schedule = self._schedule(prob=0.05, slots=3000, users=2, seed=5)
        for user in range(2):
            for app in schedule.arrivals_for(user):
                expected = round(table.corun_time("pixel2", app.name))
                assert app.duration_slots == expected

    def test_spec_count_mismatch(self):
        with pytest.raises(ValueError):
            ArrivalSchedule.generate(
                num_users=3,
                total_slots=10,
                slot_seconds=1.0,
                process=BernoulliArrivalProcess(0.1),
                device_specs=[DEVICE_CATALOG["pixel2"]],
                rng=np.random.default_rng(0),
            )


class TestSimulationTrace:
    def _sample(self, slot, energy=100.0):
        return SlotSample(slot=slot, time_s=float(slot), cumulative_energy_j=energy,
                          queue_length=1.0, virtual_queue_length=2.0, gap_sum=3.0,
                          num_training=1, num_ready=2)

    def test_slot_sampling_interval(self):
        trace = SimulationTrace(trace_interval_slots=10)
        for slot in range(25):
            trace.maybe_record_slot(self._sample(slot))
        assert [s.slot for s in trace.slot_samples] == [0, 10, 20]
        assert trace.times() == [0.0, 10.0, 20.0]
        assert [s.cumulative_energy_j for s in trace.slot_samples] == [100.0] * 3

    def test_update_and_decision_records(self):
        trace = SimulationTrace()
        trace.record_update(ServerUpdate(time_s=5.0, user_id=1, version_before=0, lag=3,
                                         gradient_gap=0.4, train_loss=1.0, sync_round=False))
        count_decision(trace, scheduled=True, corun=True)
        count_decision(trace, scheduled=True, corun=False)
        count_decision(trace, scheduled=False)
        assert trace.update_lags() == [3]
        assert trace.update_gaps() == [0.4]
        assert trace.corun_jobs == 1 and trace.background_jobs == 1
        assert trace.schedule_fraction() == pytest.approx(2 / 3)

    def test_per_user_gap_traces_and_variance(self):
        trace = SimulationTrace()
        for t in range(5):
            trace.record_user_gaps(float(t), [1.0, float(t)])
        assert len(trace.per_user_gaps[0]) == 5
        assert 9 not in trace.per_user_gaps
        assert trace.gap_variance_across_users() > 0.0

    def test_empty_trace_defaults(self):
        trace = SimulationTrace()
        assert trace.schedule_fraction() == 0.0
        assert trace.gap_variance_across_users() == 0.0
        with pytest.raises(ValueError):
            SimulationTrace(trace_interval_slots=0)


class TestColumnLog:
    def test_rows_and_blocks_interleave_in_order(self):
        log = ColumnLog(slot=np.int64, gap=np.float64, name=object, flag=np.bool_)
        log.append((1, 0.5, "a", True))
        log.extend([2, 3], [1.5, 2.5], [None, "b"], [False, True])
        log.append((4, 3.5, "c", False))
        assert len(log) == 4
        assert log.rows() == [
            (1, 0.5, "a", True), (2, 1.5, None, False), (3, 2.5, "b", True), (4, 3.5, "c", False),
        ]
        assert [type(v) for v in log.rows()[0]] == [int, float, str, bool]
        assert log.column("slot").dtype == np.int64
        log.append((5, 4.5, None, True))
        assert log.column("gap").tolist() == [0.5, 1.5, 2.5, 3.5, 4.5]

    def test_block_values_are_copied(self):
        log = ColumnLog(user=np.int64)
        users = np.array([1, 2, 3])
        log.extend(users)
        users[:] = 9
        assert log.column("user").tolist() == [1, 2, 3]

    def test_pickle_round_trip_and_clear(self):
        log = ColumnLog(user=np.int64, name=object)
        log.extend([1, 2], ["x", None])
        log.append((3, "y"))
        copy = pickle.loads(pickle.dumps(log))
        assert copy.names == log.names and copy.rows() == log.rows()
        copy.append((4, None))
        assert len(copy) == 4 and len(log) == 3
        log.clear()
        assert len(log) == 0 and log.rows() == []
        assert log.column("user").dtype == np.int64

    def test_malformed_blocks_are_rejected(self):
        log = ColumnLog(a=np.int64, b=np.float64)
        with pytest.raises(ValueError):
            log.extend([1, 2])
        with pytest.raises(ValueError):
            log.extend([1, 2], [1.0])
        with pytest.raises(ValueError):
            ColumnLog()

    def test_append_costs_no_more_than_a_record_and_a_list_append(self):
        """The hot path of every workload: one row must stay as cheap as
        building the record object and appending it was (1.5x allowance)."""
        rows = [(float(i), i, i, 1, 0.25, 0.5, False) for i in range(20_000)]

        def records():
            out = []
            for row in rows:
                out.append(FrozenUpdateSample(*row[:2], *row[3:]))

        def columns():
            log = ColumnLog(
                time_s=np.float64, user_id=np.int64, version_before=np.int64,
                lag=np.int64, gradient_gap=np.float64, train_loss=np.float64,
                sync_round=np.bool_,
            )
            for row in rows:
                log.append(row)

        def best(fn):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        assert best(columns) <= 1.5 * best(records)


def _mixed_log():
    return ColumnLog(user=np.int64, gap=np.float64, flag=np.bool_, reason=object)


def _mixed_row(i):
    return (i, i / 7.0, i % 3 == 0, None if i % 5 else f"r{i % 4}")


class TestColumnLogTail:
    """Pending rows become a column block every ``TAIL_ROWS`` rows; the
    log reads, pickles and counts as one that converts only when read."""

    def test_ten_thousand_appends_leave_a_short_tail(self):
        log = _mixed_log()
        for i in range(10_000):
            log.append(_mixed_row(i))
            assert len(log._rows) < TAIL_ROWS
        assert len(log) == 10_000
        log.extend_rows(_mixed_row(i) for i in range(10_000, 20_000))
        assert len(log._rows) < TAIL_ROWS and len(log) == 20_000

    @settings(max_examples=25, deadline=None)
    @given(calls=st.lists(
        st.tuples(st.sampled_from(["append", "extend_rows", "extend"]),
                  st.integers(0, 3 * TAIL_ROWS)),
        min_size=1, max_size=8,
    ))
    def test_reads_equal_a_log_converted_once_at_the_end(self, calls):
        bounded, rows = _mixed_log(), []
        for kind, count in calls:
            block = [_mixed_row(len(rows) + i) for i in range(count)]
            if kind == "append":
                for row in block:
                    bounded.append(row)
            elif kind == "extend_rows":
                bounded.extend_rows(iter(block))
            elif block:
                bounded.extend(*zip(*block))
            rows.extend(block)
        # The reference holds every row pending until it is read.
        once = _mixed_log()
        once._rows.extend(rows)
        assert len(bounded) == len(once) == len(rows)
        for got, want in zip(bounded.columns(), once.columns()):
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        assert bounded.rows() == once.rows() == [
            (u, g, f, r) for u, g, f, r in rows
        ]
        if rows:
            assert [type(v) for v in bounded.rows()[0]] == [int, float, bool, type(rows[0][3])]
        copy = pickle.loads(pickle.dumps(bounded))
        assert copy.rows() == once.rows()
        assert pickle.dumps(bounded) == pickle.dumps(once)


def same_records(views, frozen):
    """Element for element, field for field, type for type."""
    assert len(views) == len(frozen)
    for view, reference in zip(views, frozen):
        for field in dataclasses.fields(reference):
            ours, theirs = getattr(view, field.name), getattr(reference, field.name)
            assert type(ours) is type(theirs) and ours == theirs, (field.name, view, reference)


def count_downloads(monkeypatch):
    """A list that ``CouplingCore.record_download`` extends with the users of
    every download block from now on."""
    downloads = []
    real = CouplingCore.record_download

    def record_download(core, users):
        downloads.extend(users)
        return real(core, users)

    monkeypatch.setattr(CouplingCore, "record_download", record_download)
    return downloads


def count_sync_uploads(monkeypatch):
    """A list that ``CouplingCore.buffer_sync_upload`` extends with the user
    of every synchronous-round upload from now on."""
    uploads = []
    real = CouplingCore.buffer_sync_upload

    def buffer_sync_upload(core, user, update):
        uploads.append(user)
        return real(core, user, update)

    monkeypatch.setattr(CouplingCore, "buffer_sync_upload", buffer_sync_upload)
    return uploads


class TestLogViewsEqualTheFrozenRecordLists:
    """The three column logs, read back as lists, against ``oracle.FrozenLogs``;
    the transfer count against the downloads plus the asynchronous uploads."""

    @pytest.fixture()
    def online(self, monkeypatch):
        logs = FrozenLogs().attach(monkeypatch)
        logs.downloads = count_downloads(monkeypatch)
        policy = OnlinePolicy(v=4000.0)
        engine = SimulationEngine(configs.midfleet_config(0, "smoke"), policy)
        return logs, engine, engine.run()

    def test_views_match_over_a_midfleet_smoke_run(self, online):
        logs, engine, result = online
        assert len(logs.update_log) > 20 and len(logs.decision_log) > 100
        same_records(server_updates(engine.server), logs.update_log)
        same_records(result.trace.update_samples, logs.update_samples)
        assert engine.core.transfers == len(logs.downloads) + len(logs.update_log)
        decisions = engine.policy.decision_log
        assert decisions == logs.decision_log
        assert all(
            type(slot) is int and type(user) is int for slot, user, _ in decisions
        )
        updates = engine.server.updates
        assert updates.column("lag").tolist() == [u.lag for u in logs.update_log]
        assert updates.column("gradient_gap").tolist() == [u.gradient_gap for u in logs.update_log]
        assert result.comm_bytes_mb == sum(2.5 for _ in range(engine.core.transfers))

    def test_views_survive_a_pickle_round_trip(self, online):
        logs, engine, result = online
        unit, _ = engine.core.checkpoint_unit()
        policy, server, transfers, trace = pickle.loads(pickle.dumps(unit))[:4]
        assert trace.updates is server.updates  # one set of rows, still shared
        same_records(server_updates(server), logs.update_log)
        same_records(trace.update_samples, logs.update_samples)
        assert transfers == engine.core.transfers
        assert policy.decision_log == logs.decision_log

    def test_digest_is_the_digest_of_the_record_lists(self, online):
        logs, _, result = online
        trace = result.trace
        frozen = dataclasses.replace(
            result,
            trace=SimpleNamespace(
                decisions=trace.decisions,
                corun_jobs=trace.corun_jobs,
                update_samples=logs.update_samples,
            ),
        )
        assert digest(result) == digest(frozen)

    def test_sync_rounds_log_the_round_gap_once(self, monkeypatch):
        """The one deliberate difference: a synchronous round's rows carry the
        round's gap in the server's view too (it was a 0.0 placeholder there,
        while the trace always reported the gap)."""
        logs = FrozenLogs().attach(monkeypatch)
        downloads = count_downloads(monkeypatch)
        uploads = count_sync_uploads(monkeypatch)
        engine = SimulationEngine(configs.midfleet_config(0, "smoke"), SyncPolicy())
        result = engine.run()
        assert logs.update_samples and all(s.sync_round for s in logs.update_samples)
        same_records(result.trace.update_samples, logs.update_samples)
        # Every upload of a round is a transfer, applied or still buffered.
        assert len(uploads) >= len(logs.update_samples)
        assert engine.core.transfers == len(downloads) + len(uploads)
        views = server_updates(engine.server)
        same_records(
            views,
            [
                dataclasses.replace(reference, gradient_gap=sample.gradient_gap)
                for reference, sample in zip(logs.update_log, logs.update_samples)
            ],
        )

    def test_trace_level_off_hides_the_rows_the_server_keeps(self, monkeypatch):
        logs = FrozenLogs("off").attach(monkeypatch)
        engine = SimulationEngine(
            configs.midfleet_config(0, "smoke"), OnlinePolicy(v=4000.0), trace_level="off"
        )
        result = engine.run()
        assert result.trace.update_samples == logs.update_samples == []
        same_records(server_updates(engine.server), logs.update_log)

    def test_an_engine_trace_refuses_direct_update_records(self, online):
        _, engine, _ = online
        with pytest.raises(RuntimeError, match="server records"):
            engine.trace.record_update(
                ServerUpdate(0.0, 0, 0, 0, 0.0, 0.0, False)
            )
