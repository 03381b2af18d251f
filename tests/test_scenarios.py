"""Scenario subsystem: spec DSL, cohort compiler, registry, runner, CLI.

Covers the subsystem's contracts:

* compilation is deterministic (same spec + seed → identical per-user
  assignments) and lowers homogeneous specs to pure global knobs;
* the canonical spec hash is stable under dict-ordering noise and changes
  with any cohort parameter;
* scenario runs cache under the compiled content hash and invalidate when
  the spec changes;
* ``paper-baseline`` reproduces the default-config run bit for bit;
* heterogeneous per-user configs keep the loop/fleet/fast-forward backends
  bitwise-equivalent.
"""

from __future__ import annotations

import dataclasses

import json
import os

import pytest

from repro.core.policies import ImmediatePolicy
from repro.core.online import OnlinePolicy
from repro.scenarios import (
    BUILTIN_SCENARIO_NAMES,
    CHARGING_PERSONAS,
    CohortSpec,
    ScenarioRunner,
    ScenarioSpec,
    cohort_sizes,
    compile_scenario,
    get_scenario,
    list_scenarios,
    load_scenario_file,
    scenario_run_spec,
)
from repro.sim.config import SimulationConfig
from repro.sim.engine import SimulationEngine

from oracle import make_engine


def _two_cohort_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="test-duo",
        num_users=10,
        total_slots=400,
        cohorts=(
            CohortSpec(
                name="flagship",
                fraction=0.6,
                device_mix={"pixel2": 1.0},
                wifi_fraction=1.0,
                battery={"persona": "overnight-charger"},
            ),
            CohortSpec(
                name="budget",
                fraction=0.4,
                device_mix={"nexus6": 1.0},
                arrival={"kind": "bernoulli", "probability": 0.004},
                data_alpha=0.2,
            ),
        ),
        seed=5,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestCohortSizes:
    def test_largest_remainder_exact(self):
        assert cohort_sizes([0.5, 0.5], 10) == [5, 5]
        assert cohort_sizes([0.6, 0.4], 10) == [6, 4]
        assert sum(cohort_sizes([0.55, 0.25, 0.15, 0.05], 1000)) == 1000

    def test_every_cohort_gets_a_user(self):
        sizes = cohort_sizes([0.97, 0.01, 0.01, 0.01], 5)
        assert sum(sizes) == 5
        assert all(size >= 1 for size in sizes)

    def test_more_cohorts_than_users_rejected(self):
        with pytest.raises(ValueError):
            cohort_sizes([0.5, 0.3, 0.2], 2)


class TestSpecValidation:
    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError, match="unknown devices"):
            CohortSpec(name="x", fraction=1.0, device_mix={"iphone15": 1.0})

    def test_bad_arrival_kind_rejected(self):
        with pytest.raises(ValueError, match="arrival"):
            CohortSpec(name="x", fraction=1.0, arrival={"kind": "poisson"})

    def test_unknown_persona_rejected(self):
        with pytest.raises(ValueError, match="persona"):
            CohortSpec(name="x", fraction=1.0, battery={"persona": "solar"})

    def test_duplicate_cohort_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            ScenarioSpec(
                name="dup",
                cohorts=(
                    CohortSpec(name="a", fraction=0.5),
                    CohortSpec(name="a", fraction=0.5),
                ),
            )

    def test_reserved_base_overrides_rejected(self):
        with pytest.raises(ValueError, match="owned by the scenario"):
            ScenarioSpec(
                name="bad",
                cohorts=(CohortSpec(name="a", fraction=1.0),),
                base={"num_users": 99},
            )

    def test_a_base_naming_a_retired_network_knob_is_refused(self):
        """Transfers are counted, not timed: a spec whose base still sets the
        Wi-Fi share fails when built instead of running without it."""
        spec = ScenarioSpec(
            name="wifi-base",
            num_users=4,
            total_slots=10,
            cohorts=(CohortSpec(name="a", fraction=1.0),),
            base={"wifi_probability": 0.5},
        )
        with pytest.raises(TypeError, match="wifi_probability"):
            compile_scenario(spec).build_config()

    def test_personas_resolve(self):
        for persona in CHARGING_PERSONAS:
            cohort = CohortSpec(name="x", fraction=1.0, battery={"persona": persona})
            assert cohort.battery is not None


class TestSpecHash:
    def test_equal_specs_hash_equally(self):
        assert _two_cohort_spec().spec_hash() == _two_cohort_spec().spec_hash()

    def test_hash_survives_dict_round_trip(self):
        spec = _two_cohort_spec()
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.spec_hash() == spec.spec_hash()
        assert rebuilt == spec

    def test_any_cohort_change_changes_hash(self):
        base = _two_cohort_spec().spec_hash()
        assert _two_cohort_spec(seed=6).spec_hash() != base
        assert _two_cohort_spec(total_slots=500).spec_hash() != base
        changed = _two_cohort_spec()
        cohorts = list(changed.cohorts)
        cohorts[1] = CohortSpec(
            name="budget",
            fraction=0.4,
            device_mix={"nexus6": 1.0},
            arrival={"kind": "bernoulli", "probability": 0.005},  # 0.004 -> 0.005
            data_alpha=0.2,
        )
        assert changed.scaled(cohorts=tuple(cohorts)).spec_hash() != base

    def test_rewording_keeps_the_hash_and_a_cohort_change_moves_it(self):
        """Only what compiles into engine inputs is hashed: the free text
        (names, description, tags) is not, a cohort's data skew is."""
        spec = _two_cohort_spec()
        reworded = spec.scaled(
            name="renamed-duo",
            description="the same fleet, described anew",
            tags=("reworded", "tags"),
            cohorts=tuple(
                dataclasses.replace(cohort, name=f"{cohort.name}-renamed")
                for cohort in spec.cohorts
            ),
        )
        assert reworded.spec_hash() == spec.spec_hash()
        assert (
            compile_scenario(reworded).overrides == compile_scenario(spec).overrides
        )
        moved = spec.scaled(
            cohorts=(spec.cohorts[0], dataclasses.replace(spec.cohorts[1], data_alpha=0.5))
        )
        assert moved.spec_hash() != spec.spec_hash()
        assert compile_scenario(moved).overrides != compile_scenario(spec).overrides


class TestCompiler:
    def test_compilation_is_deterministic(self):
        first = compile_scenario(_two_cohort_spec())
        second = compile_scenario(_two_cohort_spec())
        assert first.overrides == second.overrides
        assert first.sizes == second.sizes
        assert first.cohort_of == second.cohort_of

    def test_cohort_blocks_are_contiguous(self):
        compiled = compile_scenario(_two_cohort_spec())
        assert compiled.sizes == [6, 4]
        assert compiled.users_of("flagship") == list(range(6))
        assert compiled.users_of("budget") == list(range(6, 10))
        assert compiled.device_names[:6] == ["pixel2"] * 6
        assert compiled.device_names[6:] == ["nexus6"] * 4

    def test_dimension_lowering(self):
        compiled = compile_scenario(_two_cohort_spec())
        overrides = compiled.overrides
        # Arrivals: only budget pins them; flagship inherits the default.
        assert overrides["user_arrivals"][0] == {
            "kind": "bernoulli",
            "probability": 0.001,
        }
        assert overrides["user_arrivals"][6] == {
            "kind": "bernoulli",
            "probability": 0.004,
        }
        # Battery: flagship has the persona, budget has none.
        capacity, rate = CHARGING_PERSONAS["overnight-charger"]
        assert overrides["user_battery_capacity_j"][0] == capacity
        assert overrides["user_charge_rate_w"][0] == rate
        assert overrides["user_battery_capacity_j"][6] is None
        # Data skew: only budget is skewed.
        assert overrides["user_data_alpha"][0] is None
        assert overrides["user_data_alpha"][6] == 0.2

    def test_wifi_fraction_is_inert_but_keeps_its_draw(self):
        """A wifi_fraction compiles to nothing, whatever its value, yet still
        takes its per-cohort draw from the compiler's stream: the later
        cohorts' devices are the ones every earlier release assigned."""
        mix = {"pixel2": 0.5, "nexus6": 0.5}

        def compiled(*fractions):
            cohorts = tuple(
                CohortSpec(name=f"c{i}", fraction=0.5, wifi_fraction=f, device_mix=mix)
                for i, f in enumerate(fractions)
            )
            spec = ScenarioSpec(name="wifi-draw", num_users=12, total_slots=100, cohorts=cohorts)
            return compile_scenario(spec)

        drawn = compiled(0.7, 0.1)
        assert drawn.overrides == compiled(0.0, 1.0).overrides
        assert drawn.device_names == [
            "nexus6", "nexus6", "pixel2", "nexus6", "nexus6", "pixel2",
            "nexus6", "nexus6", "nexus6", "pixel2", "nexus6", "nexus6",
        ]
        # Without any wifi_fraction the second cohort draws from earlier in the stream.
        assert compiled(None, None).device_names[6:] != drawn.device_names[6:]

    def test_default_cohort_inherits_base_diurnal_arrivals(self):
        """base diurnal_arrivals=True must survive per-user arrival lowering."""
        spec = ScenarioSpec(
            name="diurnal-base",
            num_users=8,
            total_slots=100,
            cohorts=(
                CohortSpec(
                    name="pinned",
                    fraction=0.5,
                    arrival={"kind": "trace", "slots": [3]},
                ),
                CohortSpec(name="inherits", fraction=0.5),
            ),
            base={"diurnal_arrivals": True, "app_arrival_prob": 0.002},
        )
        compiled = compile_scenario(spec)
        inherited = compiled.user_arrivals[-1]
        assert inherited["kind"] == "diurnal"
        assert inherited["peak_probability"] == pytest.approx(0.004)
        assert "diurnal_arrivals" not in compiled.overrides

    def test_negative_cohort_device_mix_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CohortSpec(
                name="x", fraction=1.0, device_mix={"pixel2": 1.5, "nexus6": -0.5}
            )

    def test_homogeneous_spec_lowers_to_global_knobs(self):
        spec = ScenarioSpec(
            name="plain",
            num_users=7,
            total_slots=123,
            cohorts=(CohortSpec(name="all", fraction=1.0),),
            seed=3,
        )
        compiled = compile_scenario(spec)
        assert compiled.overrides == {
            "num_users": 7,
            "total_slots": 123,
            "seed": 3,
        }
        assert compiled.device_names is None
        assert compiled.user_arrivals is None

    def test_overrides_are_json_serialisable(self):
        for name in BUILTIN_SCENARIO_NAMES:
            compiled = compile_scenario(get_scenario(name))
            rebuilt = json.loads(json.dumps(compiled.overrides))
            assert SimulationConfig(**rebuilt) == compiled.build_config()


class TestRegistry:
    def test_gallery_size_and_required_names(self):
        assert len(BUILTIN_SCENARIO_NAMES) >= 8
        for required in ("paper-baseline", "megafleet-1k"):
            assert required in BUILTIN_SCENARIO_NAMES

    def test_every_builtin_compiles(self):
        for spec in list_scenarios():
            compiled = compile_scenario(spec)
            assert sum(compiled.sizes) == spec.num_users
            compiled.build_config()  # must be a valid SimulationConfig

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("no-such-scenario")

    def test_json_file_round_trip(self, tmp_path):
        spec = _two_cohort_spec()
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert load_scenario_file(str(path)) == spec

    def test_toml_file_loads(self, tmp_path):
        pytest.importorskip("tomllib")
        path = tmp_path / "spec.toml"
        path.write_text(
            "\n".join(
                [
                    'name = "toml-fleet"',
                    "num_users = 6",
                    "total_slots = 200",
                    "[[cohorts]]",
                    'name = "all"',
                    "fraction = 1.0",
                    "wifi_fraction = 0.5",
                ]
            )
        )
        spec = load_scenario_file(str(path))
        assert spec.name == "toml-fleet"
        assert spec.cohorts[0].wifi_fraction == 0.5

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "x", "cohortz": []}))
        with pytest.raises(ValueError):
            load_scenario_file(str(path))


class TestPaperBaselineBitwise:
    def test_baseline_reproduces_default_config(self):
        """The acceptance contract: paper-baseline == hand-built default run."""
        spec = get_scenario("paper-baseline").scaled(total_slots=1200)
        compiled = compile_scenario(spec)
        scenario_result = SimulationEngine(
            compiled.build_config(), OnlinePolicy(v=4000.0, staleness_bound=500.0)
        ).run()
        default_result = SimulationEngine(
            SimulationConfig(total_slots=1200),
            OnlinePolicy(v=4000.0, staleness_bound=500.0),
        ).run()
        assert scenario_result.total_energy_j() == default_result.total_energy_j()
        assert scenario_result.num_updates == default_result.num_updates
        assert scenario_result.device_names == default_result.device_names
        assert scenario_result.queue_history == default_result.queue_history
        assert (
            scenario_result.accuracy.accuracies()
            == default_result.accuracy.accuracies()
        )
        assert [s.gap_sum for s in scenario_result.trace.slot_samples] == [
            s.gap_sum for s in default_result.trace.slot_samples
        ]
        assert [
            (s.time_s, s.user_id, s.lag, s.gradient_gap)
            for s in scenario_result.trace.update_samples
        ] == [
            (s.time_s, s.user_id, s.lag, s.gradient_gap)
            for s in default_result.trace.update_samples
        ]


#: ``comm_bytes_mb`` of every registry scenario shrunk as in
#: :func:`_shrunk`, under ``immediate`` and ``online``, as the timed Wi-Fi /
#: LTE transport computed them (a sum of 2.5 MB per logged transfer).
TIMED_TRANSPORT_COMM_MB = {
    "paper-baseline": (100.0, 80.0),
    "diurnal-commuters": (100.0, 75.0),
    "overnight-chargers": (100.0, 75.0),
    "flagship-vs-budget": (100.0, 75.0),
    "non-iid-pathological": (100.0, 80.0),
    "churny-fleet": (100.0, 85.0),
    "megafleet-1k": (100.0, 80.0),
    "megafleet-100k": (100.0, 85.0),
    "megafleet-1M": (60.0, 55.0),
    "weekend-gamers": (100.0, 80.0),
}


def _shrunk(name: str) -> ScenarioSpec:
    """A registry scenario at 8 users and 600 slots, cohort structure intact."""
    spec = get_scenario(name)
    base = dict(spec.base, num_train_samples=300, num_test_samples=100, eval_interval_slots=200)
    return spec.scaled(
        num_users=min(spec.num_users, 8), total_slots=min(spec.total_slots, 600), base=base
    )


class TestRegistryTransfers:
    def test_the_table_covers_the_registry(self):
        assert sorted(TIMED_TRANSPORT_COMM_MB) == sorted(BUILTIN_SCENARIO_NAMES)

    @pytest.mark.parametrize("name", sorted(TIMED_TRANSPORT_COMM_MB))
    def test_comm_bytes_are_those_of_the_timed_transport(self, name):
        """Counting transfers reports, bit for bit, the megabytes the
        retired per-transfer log summed, whatever cohorts a scenario pins."""
        config = compile_scenario(_shrunk(name)).build_config()
        policies = (ImmediatePolicy(), OnlinePolicy(v=4000.0))
        for policy, want in zip(policies, TIMED_TRANSPORT_COMM_MB[name]):
            engine = SimulationEngine(config, policy)
            result = engine.run()
            assert result.comm_bytes_mb == want, (name, policy.name)
            assert result.comm_bytes_mb == sum(2.5 for _ in range(engine.core.transfers))


class TestHeterogeneousBackendEquivalence:
    def test_loop_fleet_fastforward_bitwise(self):
        """Per-user heterogeneity preserves the oracle/engine contract."""
        spec = _two_cohort_spec()
        config = compile_scenario(spec).build_config()
        results = {}
        for mode in ("loop", "slots", "fleet"):
            results[mode] = make_engine(
                mode, config, OnlinePolicy(v=4000.0, staleness_bound=500.0)
            ).run()
        reference = results["loop"]
        for key, result in results.items():
            assert result.total_energy_j() == reference.total_energy_j(), key
            assert result.num_updates == reference.num_updates, key
            assert result.queue_history == reference.queue_history, key
            assert result.final_battery_soc == reference.final_battery_soc, key


class TestScenarioRunnerCache:
    def _runner(self, tmp_path) -> ScenarioRunner:
        return ScenarioRunner(cache_dir=str(tmp_path / "cache"), jobs=1)

    def test_second_run_served_from_cache(self, tmp_path):
        runner = self._runner(tmp_path)
        spec = _two_cohort_spec()
        first = runner.run([spec], "immediate")[0]
        second = runner.run([spec], "immediate")[0]
        assert not first.from_cache
        assert second.from_cache
        assert second.energy_j == first.energy_j

    def test_spec_change_invalidates_cache(self, tmp_path):
        """Any cohort-parameter change must miss the cache (new content hash)."""
        runner = self._runner(tmp_path)
        spec = _two_cohort_spec()
        runner.run([spec], "immediate")
        cohorts = list(spec.cohorts)
        cohorts[1] = CohortSpec(
            name="budget",
            fraction=0.4,
            device_mix={"nexus6": 1.0},
            arrival={"kind": "bernoulli", "probability": 0.008},
            data_alpha=0.2,
        )
        changed = spec.scaled(cohorts=tuple(cohorts))
        assert changed.spec_hash() != spec.spec_hash()
        rerun = runner.run([changed], "immediate")[0]
        assert not rerun.from_cache

    def test_run_spec_hash_tracks_scenario_content(self):
        spec = _two_cohort_spec()
        assert (
            scenario_run_spec(spec, policy="online").config_hash()
            == scenario_run_spec(spec, policy="online").config_hash()
        )
        assert (
            scenario_run_spec(spec, policy="online").config_hash()
            != scenario_run_spec(spec.scaled(seed=9), policy="online").config_hash()
        )

    def test_every_builtin_runs_then_replays_from_cache(self, tmp_path):
        """Each registry scenario, shrunk with its cohort structure intact,
        runs end to end and a re-run serves the same energy from the cache."""
        runner = self._runner(tmp_path)
        for name in BUILTIN_SCENARIO_NAMES:
            spec = get_scenario(name)
            base = dict(spec.base, num_train_samples=300, num_test_samples=100,
                        eval_interval_slots=200)
            spec = spec.scaled(num_users=min(spec.num_users, 8),
                               total_slots=min(spec.total_slots, 600), base=base)
            first = runner.run([spec], "immediate")[0]
            replay = runner.run([spec], "immediate")[0]
            assert not first.from_cache and replay.from_cache, name
            assert first.num_updates > 0, name
            assert replay.energy_j == first.energy_j, name

    def test_cache_files_exist_on_disk(self, tmp_path):
        runner = self._runner(tmp_path)
        spec = _two_cohort_spec()
        summary = runner.run([spec], "immediate")[0]
        path = os.path.join(str(tmp_path / "cache"), f"{summary.spec_hash}.json")
        assert os.path.exists(path)


class TestMixedPartitionBalance:
    def test_skewed_users_keep_their_data_share(self):
        """Low-alpha users get skewed *labels*, not starved shards."""
        import numpy as np

        from oracle import user_partitions
        from repro.fl.dataset import SyntheticCifar10, partition_mixed

        dataset = SyntheticCifar10(num_train=2000, num_test=100, seed=0)
        x, y = dataset.train_set()
        alphas = [0.05] * 12 + [None] * 12
        parts = user_partitions(
            x, y, partition_mixed(x, y, alphas, np.random.default_rng(0), num_classes=10)
        )
        sizes = [len(p) for p in parts]
        # No starvation: every skewed user holds a real shard, and the two
        # halves hold the same share of the data in expectation.
        assert min(sizes[:12]) >= 5
        assert sum(sizes[:12]) >= 0.15 * 2000
        # The skew is in the label composition: entropy collapses for the
        # low-alpha users and stays near-uniform for the IID ones.
        def entropy(part):
            dist = part.label_distribution(10)
            dist = dist / dist.sum()
            nonzero = dist[dist > 0]
            return float(-(nonzero * np.log(nonzero)).sum())

        skewed = np.mean([entropy(p) for p in parts[:12]])
        balanced = np.mean([entropy(p) for p in parts[12:]])
        assert skewed < balanced - 0.5

    def test_uniform_alphas_match_dirichlet_family(self):
        import numpy as np

        from repro.fl.dataset import SyntheticCifar10, partition_mixed

        dataset = SyntheticCifar10(num_train=500, num_test=50, seed=1)
        x, y = dataset.train_set()
        order, offsets = partition_mixed(x, y, [0.5] * 8, np.random.default_rng(2))
        sizes = np.diff(offsets)
        assert len(sizes) == 8 and sizes.sum() == 500
        assert all(sizes >= 1)
        assert sorted(order.tolist()) == list(range(500))


class TestCarbonReporting:
    def test_annotate_carbon_from_summary(self, tmp_path):
        from repro.analysis.runner import annotate_carbon

        runner = ScenarioRunner(cache_dir=None, jobs=1)
        summary = runner.run([_two_cohort_spec()], "immediate")[0]
        assert summary.carbon_g is None  # off by default
        annotate_carbon([summary], "world_average")
        expected = summary.energy_j / 3.6e6 * 475.0
        assert summary.carbon_g == pytest.approx(expected)
        annotate_carbon([summary], 100.0)
        assert summary.carbon_g == pytest.approx(summary.energy_j / 3.6e6 * 100.0)


class TestScenarioCli:
    def test_scenario_list(self, capsys):
        from repro.cli import main

        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_SCENARIO_NAMES:
            assert name in out

    def test_scenario_show(self, capsys):
        from repro.cli import main

        assert main(["scenario", "show", "overnight-chargers"]) == 0
        out = capsys.readouterr().out
        assert "chargers" in out and "spec_hash" in out

    def test_scenario_run_with_file_spec(self, capsys, tmp_path):
        from repro.cli import main

        spec = _two_cohort_spec(name="cli-file-test", total_slots=200, num_users=6)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "--spec-file",
                    str(path),
                    "--policy",
                    "immediate",
                    "--carbon-intensity",
                    "hydro",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cli-file-test" in out and "CO2 (g)" in out

    def test_scenario_requires_name_or_file(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["scenario", "run"])


class TestConfigValidation:
    def test_unknown_device_in_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown devices"):
            SimulationConfig(device_mix={"iphone15": 1.0})

    def test_mix_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            SimulationConfig(device_mix={"pixel2": 0.7, "nexus6": 0.1})

    def test_negative_mix_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            SimulationConfig(device_mix={"pixel2": 1.5, "nexus6": -0.5})

    def test_near_one_mix_accepted(self):
        thirds = {"pixel2": 1.0 / 3, "nexus6": 1.0 / 3, "nexus6p": 1.0 / 3}
        assert SimulationConfig(device_mix=thirds).device_mix == thirds

    def test_app_weights_length_checked(self):
        with pytest.raises(ValueError, match="one entry per catalog app"):
            SimulationConfig(app_weights=[1.0, 2.0])

    def test_app_weights_sign_checked(self):
        from repro.device.apps import APP_CATALOG

        weights = [1.0] * len(APP_CATALOG)
        weights[0] = -1.0
        with pytest.raises(ValueError, match="non-negative"):
            SimulationConfig(app_weights=weights)
        with pytest.raises(ValueError, match="positive"):
            SimulationConfig(app_weights=[0.0] * len(APP_CATALOG))

    def test_per_user_field_lengths_checked(self):
        with pytest.raises(ValueError, match="one entry per user"):
            SimulationConfig(num_users=3, user_charge_rate_w=[0.0, 0.0])
        with pytest.raises(ValueError, match="one entry per user"):
            SimulationConfig(num_users=2, user_data_alpha=[0.5])

    def test_bad_user_arrival_spec_rejected(self):
        with pytest.raises(ValueError, match="user_arrivals"):
            SimulationConfig(num_users=1, user_arrivals=[{"kind": "weird"}])
