"""Application arrivals: the one-pass word walk against the scalar draws.

``ArrivalSchedule.generate`` reads the ``arrivals`` PCG64 stream as raw
words once, never rewound.  It must give the schedule — and leave the
generator state — of one ``rng.random()`` per non-busy slot and one
``Generator`` app draw per launch, the reference
``tests/oracle.py::dense_arrival_schedule``, bit for bit.  The cases cover
what the walk derives by hand: the word-to-double map, the candidate
filter, certain (trace) launches, the 32-bit half buffer behind
``integers``, Lemire's rejection threshold, the weighted cdf pick, chunk
boundaries and the final ``advance``.

Alongside: the process constructors refuse hostile specs, a fleet builds
one process per distinct spec, and the pass's memory does not grow with
users x slots.
"""

from __future__ import annotations

import dataclasses
import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device.apps import APP_CATALOG
from repro.device.models import build_device_fleet
from repro.energy.measurements import MeasurementTable
from repro.scenarios import compile_scenario, get_scenario
from repro.sim import arrivals as arrivals_mod
from repro.sim.arrivals import (
    ArrivalSchedule,
    BernoulliArrivalProcess,
    DiurnalArrivalProcess,
    TraceArrivalProcess,
    build_arrival_process,
    build_arrival_processes,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import build_arrival_schedule

from oracle import dense_arrival_schedule


def _launches(schedule, num_users):
    return [
        [(a.arrival_slot, a.name, a.duration_slots) for a in schedule.arrivals_for(user)]
        for user in range(num_users)
    ]


def _compare(process, num_users, total_slots, seed, slot_seconds=1.0, prime=None, **kwargs):
    """Generate with both generators from equal streams; return the schedule.

    ``prime`` is a callable run on both generators first (a buffered
    32-bit half, for one).
    """
    specs = build_device_fleet(num_users, np.random.default_rng(seed))
    dense_rng = np.random.default_rng(seed)
    walk_rng = np.random.default_rng(seed)
    if prime is not None:
        prime(dense_rng)
        prime(walk_rng)
    dense = dense_arrival_schedule(
        num_users=num_users, total_slots=total_slots, slot_seconds=slot_seconds,
        process=process, device_specs=specs, rng=dense_rng, **kwargs,
    )
    walked = ArrivalSchedule.generate(
        num_users=num_users, total_slots=total_slots, slot_seconds=slot_seconds,
        process=process, device_specs=specs, rng=walk_rng, **kwargs,
    )
    assert _launches(walked, num_users) == _launches(dense, num_users)
    # Equal stream positions: later components see the same generator state
    # whichever generator produced the schedule.
    assert walk_rng.bit_generator.state == dense_rng.bit_generator.state
    return walked


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1


def _forcing(word, at=0, half=None):
    """A ``prime`` after which raw word ``at`` of the stream is ``word``
    (and, when ``half`` is set, the 32-bit half ``half`` is buffered).

    PCG64 steps its 128-bit LCG, then outputs ``rotr64(hi ^ lo, hi >> 122)``
    of the new state: fix the high half, solve for the low one and step the
    LCG back ``at + 1`` times.
    """

    def prime(rng):
        state = rng.bit_generator.state
        increment = state["state"]["inc"]
        high = 0x0123456789ABCDEF
        rotation = high >> 58
        low = high ^ (((word << rotation) | (word >> (64 - rotation))) & _MASK64)
        lcg = (high << 64) | low
        inverse = pow(_PCG64_MULTIPLIER, -1, 1 << 128)
        for _ in range(at + 1):
            lcg = ((lcg - increment) * inverse) % (1 << 128)
        state["state"]["state"] = lcg
        if half is not None:
            state["has_uint32"], state["uinteger"] = 1, half
        rng.bit_generator.state = state

    return prime


class TestSparseArrivals:
    """The one-pass walk consumes the dense draw stream."""

    def _compare(self, process, num_users=8, total_slots=2000, seed=0, **kwargs):
        return _compare(process, num_users, total_slots, seed, **kwargs)

    def test_bernoulli_equivalence(self):
        schedule = self._compare(BernoulliArrivalProcess(0.01), seed=3)
        assert schedule.total_arrivals() > 0

    def test_diurnal_equivalence(self):
        self._compare(DiurnalArrivalProcess(peak_probability=0.02), seed=1)

    def test_trace_replay_equivalence(self):
        self._compare(TraceArrivalProcess([3, 50, 400], period_slots=500), seed=2)

    def test_per_user_process_mix_equivalence(self):
        processes = [
            BernoulliArrivalProcess(0.01)
            if user % 3 == 0
            else (
                DiurnalArrivalProcess(peak_probability=0.03)
                if user % 3 == 1
                else TraceArrivalProcess([5, 60, 200], period_slots=300)
            )
            for user in range(9)
        ]
        self._compare(processes, num_users=9, seed=4)

    def test_weighted_apps_equivalence(self):
        self._compare(
            BernoulliArrivalProcess(0.02),
            seed=5,
            app_weights=[1.0, 1.0, 0.5, 2.0, 2.0, 0.5, 6.0, 6.0],
        )

    def test_long_horizon_equivalence(self):
        # Dozens of word chunks per user (megafleet volume).
        self._compare(
            BernoulliArrivalProcess(0.005), num_users=4, total_slots=600_000, seed=0
        )


# -- the property -------------------------------------------------------------

_PROBABILITIES = st.sampled_from([0.0, 1e-4, 0.3, 1.0])


def _process():
    return st.one_of(
        _PROBABILITIES.map(BernoulliArrivalProcess),
        st.builds(
            DiurnalArrivalProcess,
            peak_probability=st.sampled_from([0.01, 0.3]),
            trough_probability=st.sampled_from([0.0, 1e-4]),
            period_s=st.sampled_from([60.0, 86_400.0]),
            phase_s=st.sampled_from([0.0, 17.5]),
        ),
        st.builds(
            TraceArrivalProcess,
            st.lists(st.integers(0, 39), max_size=4),
            period_slots=st.just(40),
        ),
        st.builds(TraceArrivalProcess, st.lists(st.integers(0, 300), max_size=4)),
    )


def _apps():
    """``(app_names, app_weights)``: every catalog app, 3 / 5 / 7 of them
    (a non-zero Lemire threshold), one, or weighted."""
    catalog = list(APP_CATALOG)
    subsets = st.sampled_from([None, catalog[:3], catalog[2:7], catalog[1:], ["zoom"]])
    weighted = st.lists(
        st.sampled_from([0.0, 0.5, 1.0, 6.0]), min_size=8, max_size=8
    ).filter(lambda w: sum(w) > 0)
    return st.one_of(
        st.tuples(subsets, st.none()),
        st.tuples(st.none(), weighted),
    )


class TestWalkProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        processes=st.one_of(_process(), st.lists(_process(), min_size=1, max_size=5)),
        num_users=st.integers(1, 5),
        total_slots=st.integers(1, 400),
        slot_seconds=st.sampled_from([1.0, 7.0]),
        apps=_apps(),
        buffered_half=st.sampled_from([None, "drawn", "rejected"]),
        chunk_words=st.sampled_from([3, 64, 1 << 16]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_schedule_and_state_equal_the_dense_draws(
        self, processes, num_users, total_slots, slot_seconds, apps, buffered_half,
        chunk_words, seed,
    ):
        """Durations of up to hundreds of slots run past short horizons;
        chunks of 3 or 64 words put app draws across chunk boundaries."""
        if isinstance(processes, list):
            processes = [processes[user % len(processes)] for user in range(num_users)]
        names, weights = apps
        prime = {
            None: None,
            "drawn": lambda rng: rng.integers(0, 8),
            "rejected": _forcing(seed, half=0),  # Lemire rejects it for 3, 5 and 7 apps
        }[buffered_half]
        with mock.patch.object(arrivals_mod, "_CHUNK_WORDS", chunk_words):
            _compare(
                processes, num_users, total_slots, seed, slot_seconds=slot_seconds,
                prime=prime, app_names=names, app_weights=weights,
            )

    def test_app_draw_straddling_a_chunk_boundary(self):
        """A certain launch on the last word of a chunk: its app draw is
        the first word of the next one."""
        chunk = 1 << 16
        processes = [
            TraceArrivalProcess([chunk - 1]),
            BernoulliArrivalProcess(1e-4),  # candidates: the walk reads chunk by chunk
        ]
        for names in (None, list(APP_CATALOG)[:3]):
            _compare(processes, 2, chunk + 500, seed=11, app_names=names)
        _compare(processes, 2, chunk + 500, seed=11, app_weights=[1.0] * 8)


class TestForcedWords:
    """The edges random streams reach with probability ~2**-30 or less."""

    def test_forcing_sets_the_word(self):
        rng = np.random.default_rng(0)
        _forcing(2**63 + 5, at=2)(rng)
        assert int(rng.bit_generator.random_raw(3)[2]) == 2**63 + 5

    def test_a_draw_equal_to_the_probability_does_not_launch(self):
        # random() == 0.25 exactly, a candidate under the other user's 0.5:
        # the scalar draw skips when u >= p.
        processes = [BernoulliArrivalProcess(0.25), BernoulliArrivalProcess(0.5)]
        schedule = _compare(processes, 2, 1, seed=0, prime=_forcing(1 << 62))
        assert schedule.arrivals_for(0) == []

    def test_a_weighted_draw_on_a_cdf_step_takes_the_next_app(self):
        # The app draw's double is exactly 1/8, the first cdf step of eight
        # equal weights: searchsorted(side="right") picks the second app.
        schedule = _compare(
            TraceArrivalProcess([0]), 1, 5, seed=0, prime=_forcing(1 << 61, at=1),
            app_weights=[1.0] * 8,
        )
        assert [a.name for a in schedule.arrivals_for(0)] == [list(APP_CATALOG)[1]]

    @pytest.mark.parametrize("apps", [3, 5, 7])
    def test_a_lemire_rejection_draws_again(self, apps):
        # A buffered half of 0 leaves 0 < 2**32 % n: integers() rejects it
        # and takes the next half, the low one of a fresh word.
        schedule = _compare(
            TraceArrivalProcess([0, 1, 2]), 1, 3, seed=0, prime=_forcing(12345, half=0),
            app_names=list(APP_CATALOG)[:apps],
        )
        assert schedule.total_arrivals() == 1


class TestRefusals:
    def test_other_bit_generators_are_refused(self):
        specs = build_device_fleet(2, np.random.default_rng(0))
        for bit_generator in (np.random.MT19937(0), np.random.Philox(0)):
            with pytest.raises(TypeError, match="PCG64"):
                ArrivalSchedule.generate(
                    num_users=2, total_slots=10, slot_seconds=1.0,
                    process=BernoulliArrivalProcess(0.5), device_specs=specs,
                    rng=np.random.Generator(bit_generator),
                )

    @pytest.mark.parametrize(
        "weights",
        [[1.0] * 7, [1.0] * 7 + [-0.5], [1.0] * 7 + [math.nan], [1.0] * 7 + [math.inf], [0.0] * 8],
    )
    def test_invalid_weights_are_refused_before_any_draw(self, weights):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="weights"):
            ArrivalSchedule.generate(
                num_users=2, total_slots=50, slot_seconds=1.0,
                process=BernoulliArrivalProcess(0.0),
                device_specs=build_device_fleet(2, np.random.default_rng(0)),
                rng=rng, app_weights=weights,
            )
        assert rng.bit_generator.state == before

    def test_nan_probabilities_are_refused(self):
        class NanProcess:
            def probability_at(self, slot, slot_seconds):
                return math.nan

        with pytest.raises(ValueError, match="NaN"):
            ArrivalSchedule.generate(
                num_users=1, total_slots=5, slot_seconds=1.0, process=NanProcess(),
                device_specs=build_device_fleet(1, np.random.default_rng(0)),
                rng=np.random.default_rng(0),
            )


class TestHostileSpecs:
    """Specs that used to pass and then never launch (NaN probabilities) or
    launch at a slot nobody wrote (a truncated trace slot)."""

    @pytest.mark.parametrize(
        "spec,match",
        [
            ({"kind": "diurnal", "phase_s": math.nan}, "phase_s"),
            ({"kind": "diurnal", "phase_s": math.inf}, "phase_s"),
            ({"kind": "diurnal", "phase_s": -math.inf}, "phase_s"),
            ({"kind": "diurnal", "period_s": math.inf}, "period_s"),
            ({"kind": "diurnal", "period_s": math.nan}, "period_s"),
            ({"kind": "diurnal", "period_s": 0.0}, "period_s"),
            ({"kind": "trace", "slots": [1.5, 2]}, "integers"),
            ({"kind": "trace", "slots": [2.0]}, "integers"),
            ({"kind": "trace", "slots": ["3"]}, "integers"),
        ],
    )
    def test_constructors_refuse(self, spec, match):
        with pytest.raises(ValueError, match=match):
            build_arrival_process(spec)
        with pytest.raises(ValueError, match=rf"user_arrivals\[1\] is invalid: .*{match}"):
            SimulationConfig(num_users=2, user_arrivals=[{"kind": "bernoulli"}, spec])

    def test_integer_trace_slots_are_kept(self):
        assert TraceArrivalProcess([np.int64(7), 3, 3]).slots == [3, 7]

    def test_the_first_offending_user_is_named(self):
        good = {"kind": "bernoulli", "probability": 0.01}
        bad = {"kind": "diurnal", "phase_s": math.nan}
        specs = [good, dict(good), good, bad, dict(bad), bad]
        with pytest.raises(ValueError, match=r"user_arrivals\[3\]"):
            build_arrival_processes(specs)
        # A refused spec equal to an accepted one up to type (2.0 for 2).
        specs = [{"kind": "trace", "slots": [2]}, {"kind": "trace", "slots": [2.0]}]
        with pytest.raises(ValueError, match=r"user_arrivals\[1\]"):
            build_arrival_processes(specs)


class TestOneProcessPerSpec:
    def test_equal_specs_share_a_process(self):
        specs = [
            {"kind": "bernoulli", "probability": 0.01},
            {"kind": "trace", "slots": [1, 2]},
            {"probability": 0.01, "kind": "bernoulli"},  # another object, other order
            {"kind": "trace", "slots": [1, 2]},
        ]
        processes = build_arrival_processes(specs)
        assert processes[0] is processes[2] and processes[1] is processes[3]
        assert processes[0] is not processes[1]

    @staticmethod
    def _count_builds(num_users):
        spec = dataclasses.replace(
            get_scenario("megafleet-100k"), num_users=num_users, total_slots=60
        )
        calls = []
        real = arrivals_mod.build_arrival_process

        def counting(spec):
            calls.append(spec)
            return real(spec)

        with mock.patch.object(arrivals_mod, "build_arrival_process", counting):
            config = compile_scenario(spec).build_config()
            build_arrival_schedule(config, MeasurementTable())
        return len(calls)

    def test_process_count_does_not_grow_with_the_fleet(self):
        assert self._count_builds(200) == self._count_builds(2_000) > 0


class TestFootprint:
    def test_generate_memory_does_not_grow_with_users_times_slots(self):
        """500 users x 21 600 slots is 86 MB of words if drawn at once."""
        num_users, total_slots = 500, 21_600
        specs = build_device_fleet(num_users, np.random.default_rng(0))
        process = BernoulliArrivalProcess(0.0005)
        tracemalloc.start()
        try:
            schedule = ArrivalSchedule.generate(
                num_users=num_users, total_slots=total_slots, slot_seconds=1.0,
                process=process, device_specs=specs, rng=np.random.default_rng(1),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert schedule.total_arrivals() > 0
        assert peak < 8 * 2**20, peak

    def test_a_pickled_schedule_keeps_its_attributes(self):
        schedule = _compare(BernoulliArrivalProcess(0.02), 3, 500, seed=2)
        schedule.launch_slots()
        loaded = pickle.loads(pickle.dumps(schedule))
        assert set(vars(loaded)) == {"_arrivals", "_launch_slots"}
        assert sorted(loaded._arrivals) == [0, 1, 2]
        assert _launches(loaded, 3) == _launches(schedule, 3)
        assert loaded.launch_slots() == schedule.launch_slots()
