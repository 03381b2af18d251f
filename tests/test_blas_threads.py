"""The thread policy of the compute plane: one BLAS thread per process.

:mod:`repro.fl.blas` sets the count at run time through the C entry point of
whatever BLAS is mapped into the process, and every engine / shard build
applies it.  Two halves: symbol selection against stand-in libraries (so
the Fortran-convention setters, which would segfault, can be shown never to
be picked), and the effective count read back from inside every kind of
process the program starts.  Where no known BLAS library is mapped the
policy is a no-op returning ``None`` and the read-back tests skip.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.runner import ExperimentSuite, RunSpec
from repro.core.online import OnlinePolicy
from repro.fl import blas
from repro.fl.blas import BLAS_THREADS, blas_threads, pin_blas_threads, thread_entry_points
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine
from repro.sim.shard import ShardedEngine

from oracle import make_engine

#: Small fleet, the paper's 128-64 MLP (the config default): its 17 226-element
#: momentum ``ddot`` is above OpenBLAS's threading threshold.
CONFIG = dict(
    num_users=6,
    total_slots=300,
    app_arrival_prob=0.01,
    seed=5,
    num_train_samples=600,
    num_test_samples=500,
    eval_interval_slots=150,
)

needs_blas = pytest.mark.skipif(
    blas_threads() is None, reason="no known BLAS library mapped into this process"
)


def _unpin(count: int = 2) -> None:
    """Raise the process's BLAS thread count, as a foreign caller or an
    inherited environment would, so a later read of 1 proves the pin ran."""
    for setter, _ in blas._entry_points():
        setter(count)
    assert blas_threads() == count


@pytest.fixture
def mapped(monkeypatch):
    """Stand in for ``/proc/self/maps``: ``mapped(paths)`` makes the module
    discover exactly ``paths`` (discovery is cached per process)."""

    def install(paths):
        monkeypatch.setattr(blas, "_mapped_blas_libraries", lambda: list(paths))
        blas._entry_points.cache_clear()

    yield install
    monkeypatch.undo()
    blas._entry_points.cache_clear()


def _fingerprint(engine, result) -> tuple:
    """Includes the per-user gap traces: they carry the momentum norms, the
    first floats to differ between one and two BLAS threads."""
    params = hashlib.sha256(engine.server.global_params().tobytes()).hexdigest()
    gaps = [result.trace.user_gap_trace(user) for user in range(engine.config.num_users)]
    return params, gaps, result.total_energy_j(), result.num_updates, result.final_accuracy()


class _FakeLibrary:
    """Resolves exactly ``symbols`` by attribute access, like a CDLL."""

    def __init__(self, *symbols: str) -> None:
        for name in symbols:
            setattr(self, name, object())


class TestEntryPointSelection:
    @pytest.mark.parametrize(
        "prefix, suffix",
        [("", ""), ("scipy_", ""), ("", "64_"), ("scipy_", "64_"), ("", "_64"), ("scipy_", "_64")],
    )
    def test_openblas_variants(self, prefix, suffix):
        setter = f"{prefix}openblas_set_num_threads{suffix}"
        getter = f"{prefix}openblas_get_num_threads{suffix}"
        # The Fortran-convention twins (pointer argument) sit beside the C
        # ones in a real library; they must never be the ones chosen.
        fortran = [
            f"{prefix}openblas_set_num_threads_",
            f"{prefix}openblas_set_num_threads_64_",
            f"{prefix}openblas_get_num_threads_64_",
        ]
        assert thread_entry_points(_FakeLibrary(setter, getter, *fortran)) == (setter, getter)

    def test_mkl_and_blis(self):
        mkl = _FakeLibrary("MKL_Set_Num_Threads", "MKL_Get_Max_Threads", "mkl_set_num_threads_")
        assert thread_entry_points(mkl) == ("MKL_Set_Num_Threads", "MKL_Get_Max_Threads")
        blis = _FakeLibrary("bli_thread_set_num_threads", "bli_thread_get_num_threads")
        assert thread_entry_points(blis) == (
            "bli_thread_set_num_threads",
            "bli_thread_get_num_threads",
        )

    def test_fortran_only_library_is_left_alone(self):
        library = _FakeLibrary(
            "openblas_set_num_threads_",
            "openblas_set_num_threads_64_",
            "scipy_openblas_set_num_threads_64_",
            "scipy_openblas_get_num_threads_64_",
            "mkl_set_num_threads_",
        )
        assert thread_entry_points(library) is None

    def test_setter_without_getter_is_left_alone(self):
        assert thread_entry_points(_FakeLibrary("openblas_set_num_threads")) is None

    def test_no_library_is_a_silent_no_op(self, mapped):
        mapped([])
        assert pin_blas_threads() is None
        assert blas_threads() is None

    def test_unloadable_library_is_skipped(self, mapped, tmp_path):
        mapped([str(tmp_path / "libopenblas.so")])
        assert pin_blas_threads() is None

    def test_no_proc_is_a_silent_no_op(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        monkeypatch.setattr("builtins.open", refuse)
        assert blas._mapped_blas_libraries() == []

    def test_pin_leaves_a_pinned_library_alone(self, monkeypatch):
        # OpenBLAS restarts its thread pool on any setter call after a fork,
        # so a forked worker of a pinned coordinator must not make one.
        count, calls = [2], []

        def setter(value):
            calls.append(value)
            count[0] = value

        monkeypatch.setattr(blas, "_entry_points", lambda: ((setter, lambda: count[0]),))
        assert pin_blas_threads() == 1
        assert pin_blas_threads() == 1
        assert calls == [1]

    def test_library_names(self):
        names = [
            "/x/numpy.libs/libscipy_openblas64_-32a4b2a6.so",
            "/usr/lib/libopenblas.so.0",
            "/opt/intel/libmkl_rt.so.2",
            "/usr/lib/libblis.so.4",
        ]
        others = ["/usr/lib/libc.so.6", "/x/_multiarray_umath.cpython-311.so", "[heap]"]
        for path in names:
            assert blas._LIBRARY_NAME.match(os.path.basename(path))
        for path in others:
            assert not blas._LIBRARY_NAME.match(os.path.basename(path))


@needs_blas
class TestEveryProcessRunsOneThread:
    def test_pin_wins_over_a_raised_count(self):
        _unpin()
        assert pin_blas_threads() == BLAS_THREADS == 1
        assert blas_threads() == 1

    @pytest.mark.parametrize(
        "build",
        [
            lambda config: SimulationEngine(config, OnlinePolicy()),
            lambda config: make_engine("loop", config, OnlinePolicy()),
            lambda config: ShardedEngine(config, OnlinePolicy(), shards=2, inline=True),
        ],
        ids=["engine", "reference-loop", "inline-shards"],
    )
    def test_engine_build_pins_the_process(self, build):
        _unpin()
        engine = build(SimulationConfig(**CONFIG))
        assert blas_threads() == 1
        assert engine.timers.blas_threads == 1

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_process_shards_pin_inside_the_worker(self, start_method, monkeypatch):
        # A spawned worker loads its BLAS under the exported count; a forked
        # one inherits whatever the coordinator holds at fork time.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        engine = ShardedEngine(
            SimulationConfig(**CONFIG),
            OnlinePolicy(),
            shards=2,
            start_method=start_method,
            profile=True,
        )
        _unpin()  # after the coordinator's own pin, before run() starts workers
        try:
            result = engine.run()
        finally:
            pin_blas_threads()
        assert result.timers.worker_blas_threads == [1, 1]
        assert len(result.timers.worker_training_s) == 2
        assert "BLAS threads: 1" in result.timers.report().splitlines()[-1]

    def test_modes_agree_at_the_papers_model_size(self):
        config = SimulationConfig(**CONFIG)
        prints = []
        for kwargs in (
            None,
            dict(inline=True),
            dict(start_method="fork"),
            dict(start_method="spawn"),
        ):
            if kwargs is None:
                engine = SimulationEngine(config, OnlinePolicy())
            else:
                engine = ShardedEngine(config, OnlinePolicy(), shards=2, **kwargs)
            prints.append(_fingerprint(engine, engine.run()))
        assert prints[0] == prints[1] == prints[2] == prints[3]

    def test_suite_workers_pin(self):
        specs = [
            RunSpec(policy="online", policy_kwargs={"v": v}, config=dict(CONFIG, total_slots=120))
            for v in (0.0, 4000.0)
        ]
        _unpin()  # forked pool workers start from this count
        try:
            results = ExperimentSuite(jobs=2).map_results(specs)
        finally:
            pin_blas_threads()
        assert [result.timers.blas_threads for result in results] == [1, 1]

    def test_profile_reports_the_count(self):
        engine = SimulationEngine(SimulationConfig(**CONFIG), OnlinePolicy(), profile=True)
        assert "BLAS threads: 1" in engine.run().timers.report().splitlines()[0]


_SCRIPT = textwrap.dedent(
    """
    import hashlib
    import numpy  # maps the BLAS library, under the environment's count
    from repro.core.online import OnlinePolicy
    from repro.fl.blas import blas_threads
    from repro.sim.config import SimulationConfig
    from repro.sim.engine import SimulationEngine

    engine = SimulationEngine(SimulationConfig(**{config!r}), OnlinePolicy())
    result = engine.run()
    floats = [engine.server.global_params().tolist(), result.total_energy_j()]
    floats += [result.trace.user_gap_trace(user) for user in range(engine.config.num_users)]
    print(blas_threads(), hashlib.sha256(repr(floats).encode()).hexdigest(), result.num_updates)
    """
)


@needs_blas
def test_exported_thread_count_changes_nothing():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outputs = []
    for exported in (None, "2"):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if exported is not None:
            env.update(OPENBLAS_NUM_THREADS=exported, OMP_NUM_THREADS=exported)
        done = subprocess.run(
            [sys.executable, "-c", _SCRIPT.format(config=CONFIG)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        outputs.append(done.stdout.split())
    assert outputs[0][0] == outputs[1][0] == "1"
    assert outputs[0] == outputs[1]
