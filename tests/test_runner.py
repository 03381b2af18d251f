"""Tests for the parallel experiment suite (``repro.analysis.runner``).

Covers the three properties the orchestration layer promises:

* **cache** — a finished spec's summary lands on disk under its config
  hash; rerunning the grid serves it from cache without simulating;
* **determinism across workers** — ``jobs=1`` and ``jobs=2`` produce the
  same summaries for the same specs (workers rebuild the seed-determined
  dataset, so parallelism changes wall-clock only);
* **spec hashing** — the hash depends on what is simulated (policy,
  config, execution switches), not on presentation details like the label.
"""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro.analysis.runner import (
    ExperimentSuite,
    RunSpec,
    RunSummary,
    make_policy,
    run_spec,
    summarize_result,
    sweep_grid,
)
from repro.core.online import OnlinePolicy
from repro.core.policies import ImmediatePolicy

#: A seconds-scale configuration for every runner test.
SMOKE_CONFIG = dict(
    num_users=6,
    total_slots=150,
    app_arrival_prob=0.01,
    seed=0,
    num_train_samples=300,
    num_test_samples=150,
    eval_interval_slots=150,
)


def _smoke_spec(policy="online", v=4000.0, seed=0, label=None) -> RunSpec:
    config = dict(SMOKE_CONFIG, seed=seed)
    kwargs = {"v": v, "staleness_bound": 500.0} if policy == "online" else {}
    return RunSpec(policy=policy, policy_kwargs=kwargs, config=config, label=label)


class TestRunSpec:
    def test_hash_is_stable_and_label_independent(self):
        a = _smoke_spec(label="pretty name")
        b = _smoke_spec(label=None)
        assert a.config_hash() == b.config_hash()
        assert len(a.config_hash()) == 16

    def test_hash_changes_with_simulated_content(self):
        base = _smoke_spec()
        assert base.config_hash() != _smoke_spec(v=0.0).config_hash()
        assert base.config_hash() != _smoke_spec(seed=1).config_hash()
        assert base.config_hash() != _smoke_spec(policy="immediate").config_hash()

    def test_build_helpers(self):
        spec = _smoke_spec()
        assert isinstance(spec.build_policy(), OnlinePolicy)
        assert spec.build_config().num_users == SMOKE_CONFIG["num_users"]
        assert isinstance(_smoke_spec(policy="immediate").build_policy(), ImmediatePolicy)
        assert spec.display_name() == "online(staleness_bound=500.0,v=4000.0)"

    def test_make_policy_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            make_policy("round-robin")


class TestExperimentSuiteCache:
    def test_miss_then_hit(self, tmp_path, monkeypatch):
        cache_dir = str(tmp_path / "cache")
        spec = _smoke_spec()
        suite = ExperimentSuite(cache_dir=cache_dir, jobs=1)

        first = suite.run([spec])[0]
        assert not first.from_cache
        assert os.path.exists(os.path.join(cache_dir, f"{spec.config_hash()}.json"))

        # A second suite must serve the summary from disk without simulating.
        def _boom(_spec):
            raise AssertionError("cache hit should not re-run the simulation")

        monkeypatch.setattr("repro.analysis.runner._execute_summary", _boom)
        second = ExperimentSuite(cache_dir=cache_dir, jobs=1).run([spec])[0]
        assert second.from_cache
        assert second.energy_j == first.energy_j
        assert second.spec_hash == first.spec_hash

    def test_refresh_overrides_cache(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = _smoke_spec()
        suite = ExperimentSuite(cache_dir=cache_dir, jobs=1)
        first = suite.run([spec])[0]
        refreshed = suite.run([spec], refresh=True)[0]
        assert not refreshed.from_cache
        assert refreshed.energy_j == first.energy_j

    def test_corrupt_cache_entry_falls_back_to_running(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        spec = _smoke_spec()
        os.makedirs(cache_dir)
        with open(os.path.join(cache_dir, f"{spec.config_hash()}.json"), "w") as handle:
            handle.write("{not json")
        summary = ExperimentSuite(cache_dir=cache_dir, jobs=1).run([spec])[0]
        assert not summary.from_cache
        assert summary.energy_j > 0.0

    def test_summary_json_roundtrip(self):
        spec = _smoke_spec(policy="immediate")
        summary = summarize_result(spec, run_spec(spec), wall_time_s=1.5)
        assert RunSummary.from_json(summary.to_json()) == summary


class TestExperimentSuiteDeterminism:
    def test_same_summaries_across_worker_counts(self):
        """jobs=1 and jobs=2 must agree field-for-field on every summary."""
        specs = [
            _smoke_spec(policy="immediate"),
            _smoke_spec(v=0.0),
            _smoke_spec(v=4000.0),
        ]
        sequential = ExperimentSuite(jobs=1).run(specs)
        parallel = ExperimentSuite(jobs=2).run(specs)
        for seq, par in zip(sequential, parallel):
            # Wall time (and the derived timing shares) legitimately
            # differs between processes.
            seq = RunSummary(**{**seq.__dict__, "wall_time_s": 0.0, "timing_shares": None})
            par = RunSummary(**{**par.__dict__, "wall_time_s": 0.0, "timing_shares": None})
            assert seq == par

    def test_map_results_preserves_order_and_determinism(self):
        specs = [_smoke_spec(v=0.0), _smoke_spec(v=4000.0)]
        sequential = ExperimentSuite(jobs=1).map_results(specs)
        parallel = ExperimentSuite(jobs=2).map_results(specs)
        for seq, par in zip(sequential, parallel):
            assert seq.total_energy_j() == par.total_energy_j()
            assert seq.trace.slot_samples == par.trace.slot_samples
            assert seq.num_updates == par.num_updates
        # Order: V=0 schedules everything it can, V=4000 defers — the first
        # result must belong to the eager run.
        assert sequential[0].total_energy_j() >= sequential[1].total_energy_j()


class TestSweepGrid:
    def test_grid_shape(self):
        specs = sweep_grid(
            v_values=(0.0, 4000.0),
            policies=("online", "immediate"),
            seeds=(0, 1),
            arrival_probs=(None, 0.01),
            base_config=SMOKE_CONFIG,
        )
        # online: 2 V x 2 seeds x 2 probs = 8; immediate: 2 seeds x 2 probs = 4.
        assert len(specs) == 12
        online = [s for s in specs if s.policy == "online"]
        assert len(online) == 8
        assert all(s.config["num_users"] == SMOKE_CONFIG["num_users"] for s in specs)
        # ``None`` keeps the base arrival probability; explicit values override.
        probs = {s.config["app_arrival_prob"] for s in specs}
        assert probs == {SMOKE_CONFIG["app_arrival_prob"], 0.01}

    def test_all_specs_unique(self):
        specs = sweep_grid(v_values=(0.0, 4000.0), seeds=(0, 1), base_config=SMOKE_CONFIG)
        hashes = [s.config_hash() for s in specs]
        assert len(set(hashes)) == len(hashes)


class TestCacheInvalidation:
    """The disk cache must not serve summaries simulated by different code."""

    def test_hash_changes_with_package_version(self, monkeypatch):
        spec = _smoke_spec()
        before = spec.config_hash()
        monkeypatch.setattr("repro.analysis.runner.REPRO_VERSION", "999.0.0-test")
        assert spec.config_hash() != before

    def test_hash_changes_with_backend_and_fast_forward(self):
        """Every execution switch reaches the cache key — and ``backend`` is no
        longer one of them: config, policy, the three switches and the two
        versions are all the canonical form holds."""
        spec = _smoke_spec()
        assert set(json.loads(spec.canonical())) == {
            "cache_version", "repro_version", "policy", "policy_kwargs", "config",
            "fast_forward", "shards", "trace_level",
        }
        variants = [
            dataclasses.replace(spec, **change)
            for change in (
                {"fast_forward": False},
                {"shards": 2},
                {"trace_level": "summary"},
            )
        ]
        hashes = {spec.config_hash(), *(v.config_hash() for v in variants)}
        assert len(hashes) == 4

    def test_version_bump_invalidates_disk_entries(self, tmp_path, monkeypatch):
        """A cached summary from an older package version is never served."""
        suite = ExperimentSuite(cache_dir=str(tmp_path), jobs=1)
        spec = _smoke_spec()
        first = suite.run([spec])[0]
        assert not first.from_cache
        assert suite.run([spec])[0].from_cache
        # Simulate upgrading the package: same spec, new code.
        monkeypatch.setattr("repro.analysis.runner.REPRO_VERSION", "999.0.0-test")
        refreshed = suite.run([spec])[0]
        assert not refreshed.from_cache
        assert refreshed.spec_hash != first.spec_hash

    def test_execution_modes_agree_on_summaries(self, tmp_path):
        """Backend/fast-forward keys differ but simulate identical systems."""
        suite = ExperimentSuite(cache_dir=str(tmp_path), jobs=1)
        ff_spec = _smoke_spec()
        slot_spec = RunSpec(
            policy=ff_spec.policy,
            policy_kwargs=ff_spec.policy_kwargs,
            config=ff_spec.config,
            fast_forward=False,
        )
        ff, slot = suite.run([ff_spec, slot_spec])
        assert ff.energy_j == slot.energy_j
        assert ff.num_updates == slot.num_updates
        assert ff.mean_virtual_queue_length == slot.mean_virtual_queue_length

    def test_hash_changes_with_shards_and_trace_level(self):
        """Shard count and telemetry level are cache keys (never silently
        serve a summary simulated by a different engine/telemetry mode)."""
        base = _smoke_spec()
        sharded = RunSpec(
            policy=base.policy,
            policy_kwargs=base.policy_kwargs,
            config=base.config,
            shards=2,
        )
        summary_level = RunSpec(
            policy=base.policy,
            policy_kwargs=base.policy_kwargs,
            config=base.config,
            trace_level="summary",
        )
        hashes = {
            base.config_hash(),
            sharded.config_hash(),
            summary_level.config_hash(),
        }
        assert len(hashes) == 3

    def test_sharded_spec_summary_matches_single_process(self, tmp_path):
        """shards=2 through the suite yields the single-process summary."""
        suite = ExperimentSuite(cache_dir=str(tmp_path), jobs=1)
        single = _smoke_spec()
        sharded = RunSpec(
            policy=single.policy,
            policy_kwargs=single.policy_kwargs,
            config=single.config,
            shards=2,
        )
        a, b = suite.run([single, sharded])
        assert a.energy_j == b.energy_j
        assert a.num_updates == b.num_updates
        assert a.final_accuracy == b.final_accuracy
        assert a.mean_queue_length == b.mean_queue_length
        assert a.mean_virtual_queue_length == b.mean_virtual_queue_length
        assert a.schedule_fraction == b.schedule_fraction
        assert a.comm_bytes_mb == b.comm_bytes_mb
        # Both cached under their own keys afterwards.
        assert all(s.from_cache for s in suite.run([single, sharded]))

    def test_sharded_spec_rejects_loop_backend(self):
        """There is no backend to ask for: the field is gone, not deprecated."""
        for backend in ("loop", "fleet"):
            with pytest.raises(TypeError, match="backend"):
                RunSpec(policy="immediate", config=dict(SMOKE_CONFIG),
                        backend=backend, shards=2)
