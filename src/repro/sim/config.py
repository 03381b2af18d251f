"""Simulation configuration.

Defaults follow the evaluation settings of Section VII.B: 25 users, 1-second
slots, a 3-hour horizon (10 800 slots), application arrival probability
0.001 per slot, uniform device mix over the four testbed devices, equal
(IID) partition of the dataset, batch size 20 and one local epoch per round.

For interactive use and CI-sized experiments the horizon and dataset can be
scaled down — the benchmark suite does exactly that and documents the
scaling in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.fl.server import AsyncUpdateRule

__all__ = ["SimulationConfig"]

#: Tolerance when checking that a probability mix sums to one.
_MIX_SUM_TOLERANCE = 1e-6


def _check_count(name: str, value: Any, least: int = 1) -> None:
    """Refuse a count that is not an integer (a ``bool`` is not) of at least ``least``."""
    try:
        operator.index(value)
    except TypeError:
        integral = False
    else:
        integral = not isinstance(value, bool)
    if not integral:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(
            f"{name} must be positive" if least == 1 else f"{name} must be at least {least}"
        )


@dataclass
class SimulationConfig:
    """All knobs of one simulation run.

    Attributes:
        num_users: number of participants (25 in the paper).
        total_slots: simulation horizon in slots (10 800 = 3 h in the paper).
        slot_seconds: wall-clock length of one slot (1 s in the paper).
        app_arrival_prob: per-slot probability that a user launches an
            application when none is running (0.001 in the paper).
        device_mix: probability of each device model when sampling the fleet;
            ``None`` means uniform over the four testbed devices.
        device_names: explicit device assignment (overrides ``device_mix``).
        seed: master seed for all randomness.
        learning_rate: client learning rate ``eta``.
        momentum: client momentum coefficient ``beta``.
        batch_size: client mini-batch size (20 in the paper).
        local_epochs: local epochs per round (1 in the paper).
        epsilon: idle-slot gradient-gap increment of Eq. (12).
        async_rule: server merge rule for asynchronous uploads.
        mixing_alpha: mixing weight when ``async_rule`` is not ``REPLACE``.
        num_train_samples: synthetic training-set size.
        num_test_samples: synthetic test-set size.
        num_classes: number of classes.
        feature_dim: flat feature dimensionality of the synthetic dataset.
        class_separation: synthetic-task difficulty knob (cluster spread).
        noise_std: per-feature Gaussian noise of the synthetic dataset.
        label_noise: synthetic label-noise probability.
        clusters_per_class: Gaussian clusters per class; together with the
            separation/noise defaults this places the learning curve in the
            paper's slow-convergence regime (hundreds of updates to plateau).
        hidden_dims: hidden-layer widths of the MLP model.
        non_iid_alpha: Dirichlet concentration; ``None`` keeps the IID
            partition used in the paper.
        eval_interval_slots: how often (in slots) the global model is
            evaluated on the test set.
        trace_interval_slots: how often per-slot series are recorded.
        include_scheduler_overhead: account the Table III decision-rule
            power for idle devices that evaluated a decision in the slot.
        wifi_probability: fraction of users on Wi-Fi (communication model).
        account_radio_energy: include radio energy of model transfers in the
            (separately reported) communication statistics.
        app_weights: optional non-uniform application popularity (aligned
            with ``repro.device.apps.APP_CATALOG`` order).
        diurnal_arrivals: use the diurnal arrival process instead of the
            uniform Bernoulli process.
        battery_capacity_j: when set, every phone gets a battery of this
            usable capacity (J) and the Android JobScheduler battery
            condition is enforced: a device below ``min_battery_soc`` state
            of charge is not offered to the scheduler (Section III.B / VI).
            ``None`` (default) reproduces the paper's evaluation, which does
            not gate participation on charge level.  The HiKey970 board is
            bench-powered and never gated.
        min_battery_soc: participation threshold when batteries are enabled.
        battery_charge_rate_w: charging power while the device idles (0 means
            the devices run on battery for the whole horizon).
        user_arrivals: per-user arrival-process specs as plain dicts (see
            :func:`repro.sim.arrivals.build_arrival_process`); overrides the
            global ``app_arrival_prob`` / ``diurnal_arrivals`` knobs.  The
            scenario compiler emits this for heterogeneous fleets; ``None``
            (default) keeps the paper's single shared process.
        user_wifi: explicit per-user home-network assignment (``True`` =
            Wi-Fi, ``False`` = LTE); overrides the stochastic
            ``wifi_probability`` assignment.
        user_battery_capacity_j: per-user battery capacity in joules, with
            ``None`` entries meaning "no battery" for that user; overrides
            the global ``battery_capacity_j``.  Dev boards remain
            bench-powered regardless.
        user_charge_rate_w: per-user idle charging power; only meaningful
            together with per-user or global battery capacities.
        user_data_alpha: per-user Dirichlet concentration for the data
            partition (``None`` entries mean no skew); overrides the global
            ``non_iid_alpha`` and is realised by
            :func:`repro.fl.dataset.partition_mixed`.
    """

    num_users: int = 25
    total_slots: int = 10_800
    slot_seconds: float = 1.0
    app_arrival_prob: float = 0.001
    device_mix: Optional[Dict[str, float]] = None
    device_names: Optional[Sequence[str]] = None
    seed: int = 0

    learning_rate: float = 0.004
    momentum: float = 0.9
    batch_size: int = 20
    local_epochs: int = 1
    epsilon: float = 0.01
    async_rule: AsyncUpdateRule = AsyncUpdateRule.ACCUMULATE
    mixing_alpha: float = 0.6

    num_train_samples: int = 2500
    num_test_samples: int = 1000
    num_classes: int = 10
    feature_dim: int = 64
    class_separation: float = 1.0
    noise_std: float = 1.2
    label_noise: float = 0.1
    clusters_per_class: int = 6
    hidden_dims: Tuple[int, ...] = (128, 64)
    non_iid_alpha: Optional[float] = None

    eval_interval_slots: int = 120
    trace_interval_slots: int = 10
    include_scheduler_overhead: bool = False
    wifi_probability: float = 0.7
    account_radio_energy: bool = False
    app_weights: Optional[Sequence[float]] = None
    diurnal_arrivals: bool = False
    battery_capacity_j: Optional[float] = None
    min_battery_soc: float = 0.2
    battery_charge_rate_w: float = 0.0
    user_arrivals: Optional[Sequence[Dict[str, Any]]] = None
    user_wifi: Optional[Sequence[bool]] = None
    user_battery_capacity_j: Optional[Sequence[Optional[float]]] = None
    user_charge_rate_w: Optional[Sequence[float]] = None
    user_data_alpha: Optional[Sequence[Optional[float]]] = None

    def __post_init__(self) -> None:
        for name, least in (
            ("num_users", 1), ("total_slots", 1), ("batch_size", 1), ("local_epochs", 1),
            ("eval_interval_slots", 1), ("trace_interval_slots", 1),
            # The model's and the synthetic task's shapes, refused here, not
            # at engine build after a job was accepted: every user holds a
            # sample, and a classifier tells two classes apart at least.
            ("feature_dim", 1), ("num_classes", 2), ("num_test_samples", 1),
            ("clusters_per_class", 1), ("num_train_samples", self.num_users),
        ):
            _check_count(name, getattr(self, name), least)
        try:
            widths = list(self.hidden_dims)
        except TypeError:
            raise ValueError(
                f"hidden_dims must be a list of widths, got {self.hidden_dims!r}"
            ) from None
        for layer, width in enumerate(widths):
            _check_count(f"hidden_dims[{layer}]", width)
        if not (math.isfinite(self.slot_seconds) and self.slot_seconds > 0):
            raise ValueError("slot_seconds must be finite and positive")
        if not 0.0 <= self.app_arrival_prob <= 1.0:
            raise ValueError("app_arrival_prob must be in [0, 1]")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError("epsilon must be finite and non-negative")
        # Refused here, not at engine build (or, for a NaN rate, never: the
        # run would train to chance level without a word).
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        # The synthetic task's knobs and the merge weight, refused here: a
        # NaN or infinite scale would train to chance level without a word.
        for name in ("class_separation", "noise_std"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0.0 <= self.label_noise < 1.0:
            raise ValueError("label_noise must be in [0, 1)")
        if not 0.0 < self.mixing_alpha <= 1.0:
            raise ValueError("mixing_alpha must be in (0, 1]")
        # A JSON spec names the rule by its value ("replace"); anything that
        # names no rule is refused here, not at the first upload.
        try:
            self.async_rule = AsyncUpdateRule(self.async_rule)
        except ValueError:
            raise ValueError(
                f"async_rule must be one of {[r.value for r in AsyncUpdateRule]}, "
                f"got {self.async_rule!r}"
            ) from None
        self._validate_device_names()
        capacity = self.battery_capacity_j
        if capacity is not None and not (math.isfinite(capacity) and capacity > 0):
            raise ValueError("battery_capacity_j must be finite and positive when set")
        if not 0.0 <= self.min_battery_soc <= 1.0:
            raise ValueError("min_battery_soc must be within [0, 1]")
        if not (math.isfinite(self.battery_charge_rate_w) and self.battery_charge_rate_w >= 0):
            raise ValueError("battery_charge_rate_w must be finite and non-negative")
        self._validate_device_mix()
        self._validate_app_weights()
        self._validate_per_user_fields()

    def _validate_device_names(self) -> None:
        """An explicit assignment names one catalog device per user."""
        if self.device_names is None:
            return
        from repro.device.models import DEVICE_CATALOG

        if len(self.device_names) != self.num_users:
            raise ValueError("device_names must have one entry per user")
        unknown = sorted({repr(n) for n in self.device_names if n not in DEVICE_CATALOG})
        if unknown:
            raise ValueError(
                f"device_names holds unknown devices {unknown}; "
                f"known: {sorted(DEVICE_CATALOG)}"
            )

    def _validate_device_mix(self) -> None:
        """Catch malformed device mixes here, not as downstream sampling surprises."""
        if self.device_mix is None:
            return
        from repro.device.models import DEVICE_CATALOG

        if not isinstance(self.device_mix, dict) or not self.device_mix:
            raise ValueError("device_mix must map at least one device to a probability")
        unknown = sorted(set(self.device_mix) - set(DEVICE_CATALOG))
        if unknown:
            raise ValueError(
                f"device_mix names unknown devices {unknown}; "
                f"known: {sorted(DEVICE_CATALOG)}"
            )
        if not all(math.isfinite(p) and p >= 0 for p in self.device_mix.values()):
            raise ValueError("device_mix probabilities must be finite and non-negative")
        total = float(sum(self.device_mix.values()))
        if abs(total - 1.0) > _MIX_SUM_TOLERANCE:
            raise ValueError(
                f"device_mix probabilities must sum to 1 (got {total:.6g}); "
                "normalise the mix before building the configuration"
            )

    def _validate_app_weights(self) -> None:
        """Application-popularity weights must align with the app catalog."""
        if self.app_weights is None:
            return
        from repro.device.apps import APP_CATALOG

        if len(self.app_weights) != len(APP_CATALOG):
            raise ValueError(
                f"app_weights must have one entry per catalog app "
                f"({len(APP_CATALOG)}; order of {sorted(APP_CATALOG)}), "
                f"got {len(self.app_weights)}"
            )
        if not all(math.isfinite(w) and w >= 0 for w in self.app_weights):
            raise ValueError("app_weights must be finite and non-negative")
        if sum(self.app_weights) <= 0:
            raise ValueError("app_weights must sum to a positive value")

    def _validate_per_user_fields(self) -> None:
        """Per-user heterogeneity arrays must cover the fleet exactly."""
        for name in (
            "user_arrivals",
            "user_wifi",
            "user_battery_capacity_j",
            "user_charge_rate_w",
            "user_data_alpha",
        ):
            value = getattr(self, name)
            if value is not None and len(value) != self.num_users:
                raise ValueError(f"{name} must have one entry per user")
        if self.user_arrivals is not None:
            from repro.sim.arrivals import build_arrival_processes

            build_arrival_processes(self.user_arrivals)
        if self.user_battery_capacity_j is not None and any(
            c is not None and not (math.isfinite(c) and c > 0)
            for c in self.user_battery_capacity_j
        ):
            raise ValueError(
                "user_battery_capacity_j entries must be finite and positive, or None"
            )
        if self.user_charge_rate_w is not None and any(
            not (math.isfinite(r) and r >= 0) for r in self.user_charge_rate_w
        ):
            raise ValueError("user_charge_rate_w entries must be finite and non-negative")
        if self.user_data_alpha is not None and any(
            a is not None and a <= 0 for a in self.user_data_alpha
        ):
            raise ValueError("user_data_alpha entries must be positive or None")

    def total_seconds(self) -> float:
        """Simulated wall-clock horizon in seconds."""
        return self.total_slots * self.slot_seconds

    def scaled(self, **overrides) -> "SimulationConfig":
        """Return a copy of the configuration with the given overrides."""
        from dataclasses import replace

        return replace(self, **overrides)
