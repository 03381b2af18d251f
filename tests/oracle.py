"""The suite's reference oracles.

:func:`make_engine` is the one entry point through which the suite reaches
the per-user reference loop.  Equivalence matrices name their execution
modes ``"loop"`` (that loop, :class:`reference_loop.ReferenceLoopEngine`),
``"slots"`` (:class:`SlotBySlotEngine`, the product engine with every quiet
horizon forced to zero, so each slot runs the slot path) and ``"fleet"``
(the product engine, fast-forwarding its quiet regions); the helper turns a
mode name into an engine while the product engine itself has no mode
switch.

:class:`FrozenLocalTrainer` is the local training round exactly as it ran
before the flat training plane (ISSUE 15): the reference the in-place
``FLClient.local_train`` must match bit for bit.

:func:`partition_batches` is the mini-batch generator that frozen round
draws from, the product's ``DataPartition.batches`` before the round took
one gather per epoch.  :class:`DataPartition` is the per-user shard copy the
partition functions returned before the client plane;
:func:`user_partitions` cuts a :class:`repro.fl.dataset.Partition` into
them, :func:`client_plane` builds an ``FLClient`` plane over them, and
:func:`frozen_class_partition` is the label-skew partition loop as it ran
before it refused to leave a user empty.  :func:`apply_to_vector`,
:func:`zero_grads`, :func:`flat_grads` and :func:`evaluate_local` are
diagnostics the product no longer has.

:func:`dense_arrival_schedule` is the per-slot arrival generator — one
scalar uniform per non-busy slot, one :func:`sample_app` per launch — that
the product's one-pass word walk (``ArrivalSchedule.generate``) must
reproduce bit for bit, generator state included.  :func:`arrival_rate` and
:func:`is_running` are schedule and app diagnostics the product no longer
has.

:class:`FrozenLogs` keeps the run's three append-only logs as lists of record
objects, the way the program itself did before the column logs (ISSUE 19):
the reference the list views of :class:`repro.columns.ColumnLog` must equal
element for element and type for type.

:func:`frozen_online_decide_all`, :func:`frozen_generic_decide_all` and
:func:`frozen_schedule_walk` are the schedule path exactly as it ran before
the slot blocks (ISSUE 24): a dict rescan per lag estimate
(:func:`frozen_coupled_lag`), a materialised :class:`DeviceObservation` and a
scalar decision per repaired scheduler, one registration and one gap per
scheduled user.

:class:`DeviceObservation`, :func:`frozen_evaluate` (Eq. 21) and
:func:`frozen_decide` (each policy's per-user ``decide``) are the scalar
decision plane the product no longer has; :func:`decide_one` and
:func:`rowwise_decide_all` run the product's ``decide_all`` on batches of
one.  :func:`run_digest` is every simulated statistic of a run,
:func:`upload_bits` every field of one upload.

:func:`energy_breakdowns`, :func:`server_updates`, :func:`inflight_count`,
:func:`total_arrivals` and :func:`retained_slots` read what the product
holds in columns (the accountant's state rows, the server's update log and
in-flight index, a schedule's launches, a store's manifest) the way the
suite compares it; the product has no caller for such views.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import astuple, dataclass, fields, replace
from types import SimpleNamespace
from typing import NamedTuple
from unittest import mock

import numpy as np

from repro.core.granularity import DecisionIntervalPolicy
from repro.core.offline import _CORUN, _IMMEDIATE, _NO_PLAN, _PLANNING_FIELDS, OfflinePolicy
from repro.core.online import OnlinePolicy
from repro.core.policies import Decision, ImmediatePolicy, ObservationBatch, SyncPolicy
from repro.core.staleness import gradient_gap, gradient_gap_from_params
from repro.device.apps import ForegroundApp, app_pool
from repro.energy.measurements import MeasurementTable
from repro.fl.client import FLClient
from repro.fl.layers import Conv2D, Linear, _col2im
from repro.fl.server import AsyncUpdateRule, ParameterServer, ServerUpdate
from repro.sim.arrivals import ArrivalSchedule
from repro.sim.engine import SimulationEngine
from repro.sim.fleet import FleetEnergyAccountant, FleetState
from reference_loop import ReferenceLoopEngine


@contextmanager
def slot_by_slot():
    """Within the block, every quiet horizon is zero: no region starts, and
    each slot of a run takes the slot path."""
    with mock.patch.object(FleetState, "quiet_horizon", lambda self, slot, total_slots: 0):
        yield


class SlotBySlotEngine(SimulationEngine):
    """The product engine run under :func:`slot_by_slot`: the slot-by-slot
    execution its fast-forwarded regions are held bitwise equal to."""

    def run(self, checkpointer=None):
        with slot_by_slot():
            return super().run(checkpointer)


def make_engine(mode: str, config, policy, **kwargs):
    """An engine for ``mode``: ``loop``, ``slots`` or ``fleet``."""
    if mode == "loop":
        return ReferenceLoopEngine(config, policy, **kwargs)
    if mode == "slots":
        return SlotBySlotEngine(config, policy, **kwargs)
    if mode == "fleet":
        return SimulationEngine(config, policy, **kwargs)
    raise ValueError(f"unknown execution mode {mode!r}")


# ---------------------------------------------------------------------------
# Dense arrival generation
# ---------------------------------------------------------------------------


def sample_app(rng, names=None, weights=None):
    """Pick an application uniformly (or with ``weights``) by ``Generator`` calls."""
    pool, probabilities = app_pool(names, weights)
    if probabilities is not None:
        index = int(rng.choice(len(pool), p=probabilities))
    else:
        index = int(rng.integers(0, len(pool)))
    return pool[index]


def arrival_rate(schedule, total_slots, num_users):
    """Empirical per-user, per-slot arrival rate of ``schedule``."""
    if total_slots <= 0 or num_users <= 0:
        raise ValueError("total_slots and num_users must be positive")
    return total_arrivals(schedule) / (total_slots * num_users)


def total_arrivals(schedule):
    """Number of application launches in ``schedule``, across all users."""
    return sum(len(apps) for apps in schedule._arrivals.values())


def is_running(app, slot):
    """Whether ``app`` occupies the foreground during ``slot``."""
    return app.arrival_slot <= slot < app.end_slot()


def dense_arrival_schedule(
    num_users,
    total_slots,
    slot_seconds,
    process,
    device_specs,
    rng,
    table=None,
    app_names=None,
    app_weights=None,
):
    """``ArrivalSchedule.generate`` by one scalar draw per non-busy slot."""
    processes = list(process) if isinstance(process, (list, tuple)) else [process] * num_users
    table = table or MeasurementTable()
    arrivals = {user: [] for user in range(num_users)}
    for user in range(num_users):
        busy_until = -1
        for slot in range(total_slots):
            if slot <= busy_until:
                continue
            if rng.random() >= processes[user].probability_at(slot, slot_seconds):
                continue
            spec = sample_app(rng, names=app_names, weights=app_weights)
            duration_s = table.corun_time(device_specs[user].name, spec.name)
            duration_slots = max(1, int(round(duration_s / slot_seconds)))
            app = ForegroundApp(spec=spec, arrival_slot=slot, duration_slots=duration_slots)
            arrivals[user].append(app)
            busy_until = app.end_slot() - 1
    return ArrivalSchedule(arrivals)


# ---------------------------------------------------------------------------
# Frozen training step
# ---------------------------------------------------------------------------


@dataclass
class DataPartition:
    """One user's local shard of the dataset, as a copy (before the client plane)."""

    user_id: int
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.shape[0] != self.y.shape[0]:
            raise ValueError("x and y must have the same number of samples")

    def __len__(self):
        return int(self.x.shape[0])

    def epoch_indices(self, rng=None):
        """The (shuffled) sample order of one epoch: one ``rng.shuffle`` draw."""
        indices = np.arange(len(self))
        if rng is not None:
            rng.shuffle(indices)
        return indices

    def label_distribution(self, num_classes):
        """Histogram of labels, useful for checking non-IID skew."""
        return np.bincount(self.y, minlength=num_classes).astype(float)


def user_partitions(x, y, partition):
    """``partition`` (order + offsets) as one :class:`DataPartition` per user."""
    shards = np.split(partition.order, partition.offsets[1:-1])
    return [DataPartition(user, x[shard], y[shard]) for user, shard in enumerate(shards)]


def client_plane(partitions, model, lo=0, **knobs):
    """An ``FLClient`` plane holding ``partitions`` as users ``lo, lo + 1, ...``."""
    sizes = [len(part) for part in partitions]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    x = np.concatenate([part.x for part in partitions])
    y = np.concatenate([part.y for part in partitions])
    return FLClient(x, y, np.arange(len(x)), offsets, model, lo=lo, **knobs)


def frozen_class_partition(y, num_users, rng, num_classes, draw_proportions):
    """The label-skew partition loop before the empty-user fix, as per-user
    sorted index arrays: a donor with fewer than two samples could leave its
    recipient or itself empty."""
    num_classes = int(num_classes if num_classes is not None else y.max() + 1)
    user_indices = {u: [] for u in range(num_users)}
    for cls in range(num_classes):
        cls_idx = np.where(y == cls)[0]
        rng.shuffle(cls_idx)
        proportions = draw_proportions()
        counts = (proportions * len(cls_idx)).astype(int)
        remainder = len(cls_idx) - counts.sum()
        for i in range(remainder):
            counts[i % num_users] += 1
        start = 0
        for user, count in enumerate(counts):
            user_indices[user].extend(cls_idx[start : start + count].tolist())
            start += count
    empty = [u for u, idx in user_indices.items() if not idx]
    donors = sorted(user_indices, key=lambda u: -len(user_indices[u]))
    for i, user in enumerate(empty):
        donor = donors[i % len(donors)]
        if user_indices[donor]:
            user_indices[user].append(user_indices[donor].pop())
    return [np.array(sorted(user_indices[user]), dtype=int) for user in range(num_users)]


def apply_to_vector(optimizer, params, grads):
    """``MomentumSGD.apply_to_vector``: one Eq. (1) step on a bare vector."""
    return params - optimizer._advance(params, grads)


def zero_grads(model):
    """``Sequential.zero_grads``: reset every parameter gradient."""
    model.flat_grads.fill(0.0)


def flat_grads(model):
    """``Sequential.get_flat_grads``: a copy of the flat gradient vector."""
    return model.flat_grads.copy()


def evaluate_local(model, partition, params):
    """``FLClient.evaluate_local``: accuracy of ``params`` on a user's own shard."""
    model.set_flat_params(params)
    return float(np.mean(model.forward(partition.x).argmax(axis=-1) == partition.y))


def partition_batches(partition, batch_size, rng=None):
    """The shard split into shuffled mini-batches of ``batch_size``, one
    ``epoch_indices`` draw per call."""
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    indices = partition.epoch_indices(rng)
    chunks = (
        indices[start : start + batch_size] for start in range(0, len(partition), batch_size)
    )
    return [(partition.x[chunk], partition.y[chunk]) for chunk in chunks]


def _frozen_backward(layer, grad_out):
    """``backward`` of the parameterised layers as of PR 14: fresh arrays,
    rebinding ``layer.grads``; parameter-free layers are unchanged."""
    if isinstance(layer, Linear):
        x = layer._cache_x
        layer.grads["w"] = x.T @ grad_out
        layer.grads["b"] = grad_out.sum(axis=0)
        return grad_out @ layer.params["w"].T
    if isinstance(layer, Conv2D):
        cols, x_shape, out_h, out_w = layer._cache
        grad_flat = grad_out.transpose(0, 2, 3, 1).reshape(-1, layer.out_channels)
        w_col = layer.params["w"].reshape(layer.out_channels, -1)
        layer.grads["w"] = (grad_flat.T @ cols).reshape(layer.params["w"].shape)
        layer.grads["b"] = grad_flat.sum(axis=0)
        return _col2im(grad_flat @ w_col, x_shape, layer.kernel_size, layer.stride, out_h, out_w)
    return layer.backward(grad_out)


def _frozen_forward(model, x):
    """``Sequential.forward`` with ``Linear`` as of PR 20: ``x @ w + b`` in
    one expression (two fresh arrays)."""
    for layer in model.layers:
        if isinstance(layer, Linear):
            layer._cache_x = x
            x = x @ layer.params["w"] + layer.params["b"]
        else:
            x = layer.forward(x)
    return x


def _frozen_softmax_loss(logits, labels):
    """``SoftmaxCrossEntropy`` as of PR 20, through ``np.mean`` / ``np.clip``
    and fresh arrays: ``(loss, gradient with respect to the logits)``."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    batch = logits.shape[0]
    correct = probs[np.arange(batch), labels]
    loss = float(-np.mean(np.log(np.clip(correct, 1e-12, None))))
    grad = probs.copy()
    grad[np.arange(batch), labels] -= 1.0
    return loss, grad / batch


class FrozenLocalTrainer:
    """``FLClient.local_train`` as of PR 14, kept as the bitwise reference.

    Every mini-batch step allocates zeroed gradients, lets each layer rebind
    fresh gradient arrays, concatenates all tensors into new flat vectors,
    applies Eq. (1) out of place and copies the result back tensor by tensor
    -- the flatten/unflatten step the flat training plane replaced -- from
    one gather per mini-batch, through the ``Linear`` forward, the loss and
    the ``np.mean`` / ``np.linalg.norm`` reductions as of PR 20.  It
    needs a private ``model``: the first load detaches every tensor from the
    model's flat buffers.
    """

    def __init__(
        self,
        model,
        partition,
        learning_rate=0.05,
        momentum=0.9,
        weight_decay=0.0,
        batch_size=20,
        local_epochs=1,
        seed=0,
    ):
        self.model = model
        self.partition = partition
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.batch_size = batch_size
        self.local_epochs = local_epochs
        self.velocity = None
        self.rng = np.random.default_rng(seed)
        self._tensors = [(layer, name) for layer in model.layers for name in layer.params]

    def _flat(self, which):
        return np.concatenate(
            [getattr(layer, which)[name].ravel().copy() for layer, name in self._tensors]
        )

    def _set_flat_params(self, flat):
        offset = 0
        for layer, name in self._tensors:
            value = layer.params[name]
            layer.params[name] = flat[offset : offset + value.size].reshape(value.shape).copy()
            offset += value.size

    def local_train(self, global_params):
        """One local round; returns ``delta``, ``params``, ``train_loss``, ``momentum_norm``."""
        self._set_flat_params(global_params)
        losses = []
        for _ in range(self.local_epochs):
            for xb, yb in partition_batches(self.partition, self.batch_size, rng=self.rng):
                for layer, name in self._tensors:
                    layer.grads[name] = np.zeros_like(layer.params[name])
                loss, grad = _frozen_softmax_loss(_frozen_forward(self.model, xb), yb)
                losses.append(loss)
                for layer in reversed(self.model.layers):
                    grad = _frozen_backward(layer, grad)
                params = self._flat("params")
                grads = self._flat("grads")
                if self.weight_decay > 0.0:
                    grads = grads + self.weight_decay * params
                if self.velocity is None:
                    self.velocity = np.zeros_like(params)
                self.velocity = self.momentum * self.velocity + (1.0 - self.momentum) * grads
                params = params - self.learning_rate * self.velocity
                self._set_flat_params(params)
        new_params = self._flat("params")
        return SimpleNamespace(
            delta=new_params - global_params,
            params=new_params,
            train_loss=float(np.mean(losses)) if losses else 0.0,
            momentum_norm=0.0 if self.velocity is None else float(np.linalg.norm(self.velocity)),
        )


# ---------------------------------------------------------------------------
# Frozen record-list logs
# ---------------------------------------------------------------------------


@dataclass
class FrozenServerUpdate:
    """``repro.fl.server.ServerUpdate`` as of PR 18."""

    time_s: float
    user_id: int
    version_before: int
    lag: int
    gradient_gap: float
    train_loss: float
    sync_round: bool = False


@dataclass(frozen=True)
class FrozenUpdateSample:
    """``repro.sim.trace.UpdateSample`` as of PR 18 (the type is gone: the
    trace now reads the server's rows)."""

    time_s: float
    user_id: int
    lag: int
    gradient_gap: float
    train_loss: float
    sync_round: bool


class FrozenLogs:
    """The three append-only logs of one run, kept as lists of record objects.

    ``attach(monkeypatch)`` wraps the producers at class level (so the
    objects of the run stay picklable) and appends one record object per
    event to a plain list — ``ParameterServer.update_log``, the trace's
    ``update_samples`` and ``OnlinePolicy.decision_log`` as they were built
    then.  The block producer ``async_update_block`` is replayed one event
    at a time on shadow state — the merge rules as they were then — before
    the real block runs.  Run exactly one engine while attached.
    """

    def __init__(self, trace_level: str = "full") -> None:
        self.trace_level = trace_level
        self.update_log = []
        self.update_samples = []
        self.decision_log = []

    def _sample(self, *fields) -> None:
        if self.trace_level != "off":
            self.update_samples.append(FrozenUpdateSample(*fields))

    def attach(self, monkeypatch) -> "FrozenLogs":
        logs = self
        real_async = ParameterServer.async_update
        real_sync = ParameterServer.sync_round
        real_async_block = ParameterServer.async_update_block
        real_decide_all = OnlinePolicy.decide_all
        real_record_idle = OnlinePolicy.record_idle

        def async_update(server, update, time_s, gradient_gap=0.0):
            version, lag = server.version, server.lag_of(update.base_version)
            logs.update_log.append(
                FrozenServerUpdate(
                    time_s, update.user_id, version, lag, gradient_gap, update.train_loss
                )
            )
            logs._sample(
                time_s, update.user_id, lag, gradient_gap, update.train_loss, False
            )
            return real_async(server, update, time_s, gradient_gap)

        def sync_round(server, updates, time_s):
            version, before = server.version, server.global_params()
            records = real_sync(server, updates, time_s)
            round_gap = gradient_gap_from_params(before, server.global_params())
            for offset, update in enumerate(updates):
                logs.update_log.append(
                    FrozenServerUpdate(
                        time_s, update.user_id, version + offset, 0, 0.0,
                        update.train_loss, True,
                    )
                )
                logs._sample(
                    time_s, update.user_id, 0, round_gap, update.train_loss, True
                )
            return records

        def async_update_block(server, updates, bases, time_s):
            version, params = server.version, server.global_params()
            for offset, (update, base) in enumerate(zip(updates, bases)):
                lag = version + offset - update.base_version
                gap = gradient_gap_from_params(base, params)
                logs.update_log.append(
                    FrozenServerUpdate(
                        time_s, update.user_id, version + offset, lag, gap, update.train_loss
                    )
                )
                logs._sample(time_s, update.user_id, lag, gap, update.train_loss, False)
                if server.async_rule is AsyncUpdateRule.ACCUMULATE:
                    params = params + update.delta
                elif server.async_rule is AsyncUpdateRule.REPLACE:
                    params = update.params
                else:
                    alpha = server.mixing_alpha
                    if server.async_rule is AsyncUpdateRule.STALENESS_WEIGHTED:
                        alpha = alpha / (1.0 + lag)
                    params = (1.0 - alpha) * params + alpha * update.params
            return real_async_block(server, updates, bases, time_s)

        def decide_all(policy, batch):
            schedule = real_decide_all(policy, batch)
            logs.decision_log.extend(
                (batch.slot, user, Decision.SCHEDULE if flag else Decision.IDLE)
                for user, flag in zip(batch.user_ids.tolist(), schedule.tolist())
            )
            return schedule

        def record_idle(policy, batch, first_slot, slots):
            # A certified-idle region: one all-idle decide_all per slot.
            logs.decision_log.extend(
                (slot, user, Decision.IDLE)
                for slot in range(first_slot, first_slot + slots)
                for user in batch.user_ids.tolist()
            )
            return real_record_idle(policy, batch, first_slot, slots)

        monkeypatch.setattr(ParameterServer, "async_update", async_update)
        monkeypatch.setattr(ParameterServer, "sync_round", sync_round)
        monkeypatch.setattr(ParameterServer, "async_update_block", async_update_block)
        monkeypatch.setattr(OnlinePolicy, "decide_all", decide_all)
        monkeypatch.setattr(OnlinePolicy, "record_idle", record_idle)
        return self


# ---------------------------------------------------------------------------
# Frozen schedule path
# ---------------------------------------------------------------------------


def frozen_coupled_lag(batch, index, scheduled_counts):
    """``ObservationBatch.coupled_lag`` as of PR 21: the start-of-slot
    estimate plus every earlier same-slot schedule (``{duration: count}``)
    whose finish falls inside this user's window, rescanned per call."""
    lag = int(batch.estimated_lag[index])
    if not scheduled_counts:
        return lag
    now_s = batch.slot * batch.slot_seconds
    horizon = now_s + batch.training_duration_slots[index] * batch.slot_seconds
    for duration, count in scheduled_counts.items():
        finish = (batch.slot + duration) * batch.slot_seconds
        if now_s <= finish <= horizon:
            lag += count
    return lag


class FrozenSameSlotCoupling:
    """``repro.core.policies.SameSlotCoupling`` as of PR 21."""

    def __init__(self, batch):
        self.batch = batch
        self._scheduled_counts = {}

    def lag(self, index):
        return frozen_coupled_lag(self.batch, index, self._scheduled_counts)

    def record(self, index):
        duration = int(self.batch.training_duration_slots[index])
        self._scheduled_counts[duration] = self._scheduled_counts.get(duration, 0) + 1


def frozen_generic_decide_all(policy, batch):
    """``SchedulingPolicy.decide_all``'s per-entry fallback, as it ran until
    the product kept only array rules: one :func:`frozen_decide` per entry,
    each seeing the earlier same-slot schedules in its lag."""
    decisions = np.zeros(len(batch), dtype=bool)
    coupling = FrozenSameSlotCoupling(batch)
    for index in range(len(batch)):
        observation = batch_row(batch, index, lag=coupling.lag(index))
        if frozen_decide(policy, observation) is Decision.SCHEDULE:
            decisions[index] = True
            coupling.record(index)
    return decisions


def frozen_online_decide_all(policy, batch):
    """``OnlinePolicy.decide_all`` before the slot blocks: the speculative
    batch, then every speculative scheduler whose lag an earlier one raised
    re-decided through :func:`batch_row` + :func:`frozen_evaluate`.  Returns the
    schedule and the positions the repair flipped to idle."""
    n = len(batch)
    policy._decision_evaluations += n
    q_length = policy.task_queue.length
    h_length = policy.virtual_queue.length
    schedule = policy.controller.evaluate_batch(batch, q_length, h_length).best()
    coupling = FrozenSameSlotCoupling(batch)
    flipped = []
    for index in np.nonzero(schedule)[0]:
        index = int(index)
        lag = coupling.lag(index)
        if lag != int(batch.estimated_lag[index]):
            observation = batch_row(batch, index, lag=lag)
            costs = frozen_evaluate(policy.controller, observation, q_length, h_length)
            if costs.best() is Decision.IDLE:
                schedule[index] = False
                flipped.append(index)
                continue
        coupling.record(index)
    policy._decision_log.extend(np.full(n, batch.slot), batch.user_ids, schedule)
    return schedule, flipped


def frozen_schedule_walk(batch, schedule):
    """What ``drive_fleet_loop`` did per scheduled user at PR 21: the
    ``(user, expected_finish_s, lag, gap)`` it registered and stamped."""
    coupling = FrozenSameSlotCoupling(batch)
    walked = []
    for index in np.nonzero(schedule)[0]:
        index = int(index)
        duration = int(batch.training_duration_slots[index])
        lag = coupling.lag(index)
        coupling.record(index)
        gap = gradient_gap(
            float(batch.momentum_norm[index]),
            float(batch.learning_rate[index]),
            float(batch.momentum_coeff[index]),
            lag,
        )
        finish = (batch.slot + duration) * batch.slot_seconds
        walked.append((int(batch.user_ids[index]), finish, lag, gap))
    return walked


# ---------------------------------------------------------------------------
# Frozen scalar decision plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceObservation:
    """One ready device in one slot, as a per-user rule sees it; Pixel 2
    defaults."""

    user_id: int = 0
    slot: int = 10
    slot_seconds: float = 1.0
    app_running: bool = False
    power_corun_w: float = 2.5
    power_app_w: float = 2.1
    power_training_w: float = 1.35
    power_idle_w: float = 0.689
    estimated_lag: int = 2
    momentum_norm: float = 1.0
    learning_rate: float = 0.01
    momentum_coeff: float = 0.9
    training_duration_slots: int = 223
    waiting_slots: int = 0
    current_gap: float = 0.0


#: The per-user columns: named alike on the observation and the batch.
_ROW_FIELDS = [f.name for f in fields(DeviceObservation)[3:]]


def batch_row(batch, index, lag=None) -> DeviceObservation:
    """Entry ``index`` of ``batch`` as Python scalars; ``lag`` replaces its
    estimate (the same-slot coupling)."""
    row = {name: getattr(batch, name)[index].item() for name in _ROW_FIELDS}
    if lag is not None:
        row["estimated_lag"] = lag
    return DeviceObservation(int(batch.user_ids[index]), batch.slot, batch.slot_seconds, **row)


def observation_batch(observations) -> ObservationBatch:
    """``observations`` (one slot, ascending users) as an :class:`ObservationBatch`."""
    first = observations[0]
    return ObservationBatch(
        slot=first.slot,
        slot_seconds=first.slot_seconds,
        user_ids=np.array([o.user_id for o in observations], dtype=np.int64),
        **{name: np.array([getattr(o, name) for o in observations]) for name in _ROW_FIELDS},
    )


def pool_batch(slot, users, app_running, slot_seconds=1.0, **columns) -> ObservationBatch:
    """A hand-built ready pool over ``users``; a column not given holds the
    :class:`DeviceObservation` default, but lags are 0 and jobs 7 slots."""
    users = np.asarray(users, dtype=np.int64)
    given = {"estimated_lag": 0, "training_duration_slots": 7, **columns}
    given["app_running"] = app_running
    batch = {}
    for f in fields(DeviceObservation)[3:]:
        value = np.asarray(given.get(f.name, f.default), dtype=type(f.default))
        batch[f.name] = np.array(np.broadcast_to(value, users.shape))
    return ObservationBatch(slot=slot, slot_seconds=slot_seconds, user_ids=users, **batch)


def decide_one(policy, observation) -> Decision:
    """The product's decision for one device: ``decide_all`` on a batch of one."""
    schedule = policy.decide_all(observation_batch([observation]))
    return Decision.SCHEDULE if schedule[0] else Decision.IDLE


def rowwise_decide_all(policy, batch):
    """The reference loop's walk: entry by entry, each through the product's
    ``decide_all`` on a batch of one whose lag counts earlier schedules."""
    decisions = np.zeros(len(batch), dtype=bool)
    coupling = FrozenSameSlotCoupling(batch)
    for index in range(len(batch)):
        row = replace(batch.select([index]), estimated_lag=np.array([coupling.lag(index)]))
        if policy.decide_all(row)[0]:
            decisions[index] = True
            coupling.record(index)
    return decisions


class FrozenDecisionCosts(NamedTuple):
    """The two Eq. (21) objective values of one device."""

    schedule_cost: float
    idle_cost: float
    schedule_gap: float
    idle_gap: float

    def best(self) -> Decision:
        """The minimising decision; a tie schedules."""
        return Decision.SCHEDULE if self.schedule_cost <= self.idle_cost else Decision.IDLE


def frozen_evaluate(controller, observation, q_length, h_length) -> FrozenDecisionCosts:
    """``OnlineController.evaluate``: both branches of Eq. (21) for one
    device (energies in kJ), on Python floats and the scalar Eq. (4) gap."""
    o = observation
    schedule_w, idle_w = (
        (o.power_corun_w, o.power_app_w) if o.app_running else (o.power_training_w, o.power_idle_w)
    )
    schedule_gap = gradient_gap(o.momentum_norm, o.learning_rate, o.momentum_coeff, o.estimated_lag)
    idle_gap = o.current_gap + controller.epsilon
    return FrozenDecisionCosts(
        controller.v * (schedule_w * o.slot_seconds / 1000.0) - q_length + h_length * schedule_gap,
        controller.v * (idle_w * o.slot_seconds / 1000.0) + h_length * idle_gap,
        schedule_gap,
        idle_gap,
    )


def frozen_decide(policy, observation) -> Decision:
    """``policy.decide(observation)``: each product policy's per-user rule —
    the interval wrapper's rate limiter, Eq. (21) with its counters and
    log, the offline plan lookup — mutating ``policy`` as it did."""
    o = observation
    if isinstance(policy, DecisionIntervalPolicy):
        counter = o.waiting_slots if policy.align_to_arrival else o.slot
        if policy.interval_slots != 1 and counter % policy.interval_slots != 0:
            return Decision.IDLE
        return frozen_decide(policy.inner, o)
    if isinstance(policy, OnlinePolicy):
        policy._decision_evaluations += 1
        decision = frozen_evaluate(
            policy.controller, o, policy.task_queue.length, policy.virtual_queue.length
        ).best()
        policy._decision_log.append((o.slot, o.user_id, decision is Decision.SCHEDULE))
        return decision
    if isinstance(policy, OfflinePolicy):
        policy._decision_evaluations += 1
        policy._reserve(o.user_id + 1)
        policy._pending[o.user_id] = True
        policy._planning_inputs[:, o.user_id] = [getattr(o, n) for n in _PLANNING_FIELDS]
        action = policy._plan_action[o.user_id]
        if action == _IMMEDIATE or (
            o.app_running and (action != _CORUN or o.slot >= policy._plan_corun_slot[o.user_id])
        ):
            policy._plan_action[o.user_id] = _NO_PLAN
            policy._pending[o.user_id] = False
            return Decision.SCHEDULE
        return Decision.IDLE
    if isinstance(policy, (ImmediatePolicy, SyncPolicy)):
        return Decision.SCHEDULE
    raise TypeError(f"no frozen per-user rule for {type(policy).__name__}")


def energy_breakdowns(accountant, num_users):
    """Per-user ``(idle, app, training, corunning, overhead)`` joules, from
    either accountant (the fleet's state rows or the reference loop's
    per-user :class:`reference_loop.EnergyBreakdown` objects)."""
    if isinstance(accountant, FleetEnergyAccountant):
        rows = (
            accountant.idle_j, accountant.app_j, accountant.training_j,
            accountant.corunning_j, accountant.overhead_j,
        )
        return list(zip(*(row.tolist() for row in rows)))
    return [astuple(accountant.user_breakdown(user)) for user in range(num_users)]


def server_updates(server):
    """Every update ``server`` applied, as record objects, in application order."""
    return [ServerUpdate(*row) for row in server.updates.rows()]


def inflight_count(server):
    """Number of training jobs ``server`` holds in flight."""
    return len(server._inflight)


def retained_slots(store):
    """Slots of the snapshots ``store``'s manifest retains."""
    if not store.exists():
        return []
    manifest = json.loads((store.root / store.MANIFEST).read_text())
    return [entry["slot"] for entry in manifest.get("retained", [])]


def run_digest(result) -> str:
    """sha256 over every simulated statistic of one run, floats bit-exact."""
    parts = [
        result.total_energy_j().hex(),
        [
            [float(value).hex() for value in breakdown]
            for breakdown in energy_breakdowns(result.accountant, len(result.device_names))
        ],
        sorted(result.trace.decisions.items()),
        result.trace.corun_jobs,
        result.trace.background_jobs,
        [
            (u.user_id, u.lag, float(u.gradient_gap).hex(), float(u.time_s).hex())
            for u in result.trace.update_samples
        ],
        [float(value).hex() for value in result.queue_history],
        [float(value).hex() for value in result.virtual_queue_history],
        [float(s.gap_sum).hex() for s in result.trace.slot_samples],
        [(float(s.accuracy).hex(), float(s.loss).hex(), s.num_updates) for s in result.accuracy.samples],
    ]
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def upload_bits(update) -> tuple:
    """Every field of one :class:`~repro.fl.client.LocalUpdate`, ``==``-comparable
    bit for bit (vectors as bytes, floats as hex)."""
    return (
        update.user_id,
        update.delta.tobytes(),
        None if update.params is None else update.params.tobytes(),
        update.base_version,
        update.num_samples,
        update.num_batches,
        float(update.train_loss).hex(),
        float(update.momentum_norm).hex(),
    )
