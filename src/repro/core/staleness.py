"""Staleness metrics: lag and gradient gap.

The paper quantifies asynchronous staleness with two metrics:

* **Lag** (Definition 1): the number of updates other users applied to the
  global model between this user's download (time ``t``) and its upload
  (time ``t + tau``).  Lag is a simple count and is maintained by the
  parameter server's version counter.

* **Gradient gap** (Definition 2): the norm difference between the model
  parameters the user trained from and the parameters at upload time,
  ``g(t, t+tau) = || theta_{t+tau} - theta_t ||_2`` (Eq. 2).  Because the
  future parameters are unknown at decision time, the paper estimates them
  with *linear weight prediction* (Eq. 3), which extrapolates the momentum
  vector ``lag`` steps forward, giving the closed form of Eq. (4)::

      g(t, t+tau) = || eta * (1 - beta**lag) / (1 - beta) * v_t ||_2

This module implements both metrics, scalar and batched.  The per-user gap
dynamics of Eq. (12) built on them (a scheduled user's gap takes the Eq. (4)
value for its expected lag, an idling user's gap grows by ``epsilon`` per
slot) are the ``gaps`` column of :class:`repro.sim.coupling.CouplingCore`.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

__all__ = [
    "momentum_lag_factor",
    "momentum_lag_factor_batch",
    "linear_weight_prediction",
    "gradient_gap",
    "gradient_gap_batch",
    "gradient_gap_from_params",
]


def momentum_lag_factor(momentum: float, lag: int) -> float:
    """The geometric-series factor ``(1 - beta**lag) / (1 - beta)``.

    This is the amount of additional movement the momentum vector will have
    produced after ``lag`` further updates.  For ``beta == 0`` it degenerates
    to ``1`` whenever ``lag >= 1`` and ``0`` for ``lag == 0``.
    """
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must be in [0, 1)")
    if lag < 0:
        raise ValueError("lag must be non-negative")
    if lag == 0:
        return 0.0
    if momentum == 0.0:
        return 1.0
    return (1.0 - momentum**lag) / (1.0 - momentum)


def momentum_lag_factor_batch(
    momentum: np.ndarray, lags: np.ndarray, tables: Dict[float, np.ndarray]
) -> np.ndarray:
    """Vectorized :func:`momentum_lag_factor` over per-user arrays.

    Evaluates ``(1 - beta**lag) / (1 - beta)`` for every (``beta``, ``lag``)
    pair.  ``beta**lag`` is deliberately computed with *scalar* Python
    exponentiation rather than ``np.power``: the two can round the last bit
    differently, and the fleet backend guarantees bitwise-identical
    decisions to the per-user loop path.  When the whole pool shares one
    ``beta`` (every fleet the engine builds), the factors are read from
    ``tables[beta]`` — entry ``l`` *is* ``momentum_lag_factor(beta, l)``,
    computed once by the scalar function and extended on demand — so a read
    is the scalar result bit for bit.  Heterogeneous ``beta`` falls back to
    one scalar call per user.

    Args:
        momentum: ``beta`` per user, shape ``(n,)``.
        lags: non-negative integer lag per user, shape ``(n,)``.
        tables: the caller's per-``beta`` factor tables, grown in place
            (:class:`~repro.core.online.OnlineController` keeps one dict for
            its lifetime).

    Returns:
        The Eq. (4) geometric-series factor per user, ``float64``.
    """
    momentum = np.asarray(momentum, dtype=np.float64)
    lags = np.asarray(lags)
    if not lags.size:
        return np.empty(lags.shape, dtype=np.float64)
    beta = float(momentum.flat[0])
    if (momentum == beta).all():
        if lags.min() < 0:
            raise ValueError("lag must be non-negative")
        table = tables.get(beta)
        top = int(lags.max())
        if table is None or top >= table.size:
            known = [] if table is None else table.tolist()
            size = max(64, 2 * len(known), top + 1)
            known.extend(momentum_lag_factor(beta, lag) for lag in range(len(known), size))
            table = tables[beta] = np.array(known, dtype=np.float64)
        return table[lags]
    momentum = np.broadcast_to(momentum, lags.shape)  # one row per slot ahead
    out = np.empty(lags.shape, dtype=np.float64)
    for index in range(lags.size):
        out.flat[index] = momentum_lag_factor(
            float(momentum.flat[index]), int(lags.flat[index])
        )
    return out


def linear_weight_prediction(
    params: np.ndarray,
    velocity: np.ndarray,
    learning_rate: float,
    momentum: float,
    lag: int,
) -> np.ndarray:
    """Predict the global parameters ``lag`` updates into the future (Eq. 3).

    ``theta_{t+tau} = theta_t - eta * (1 - beta**lag) / (1 - beta) * v_t``

    Args:
        params: current parameter vector ``theta_t``.
        velocity: momentum vector ``v_t`` (same shape as ``params``).
        learning_rate: ``eta``.
        momentum: ``beta``.
        lag: predicted number of intervening updates ``l_tau``.
    """
    if params.shape != velocity.shape:
        raise ValueError("params and velocity must have the same shape")
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    factor = momentum_lag_factor(momentum, lag)
    return params - learning_rate * factor * velocity


def gradient_gap(
    momentum_norm: float,
    learning_rate: float,
    momentum: float,
    lag: int,
) -> float:
    """Gradient gap of Eq. (4) from the momentum-vector norm.

    ``g = || eta * (1 - beta**lag)/(1 - beta) * v_t ||_2
       = eta * (1 - beta**lag)/(1 - beta) * ||v_t||_2``

    Args:
        momentum_norm: ``||v_t||_2`` of the user's momentum vector.
        learning_rate: ``eta``.
        momentum: ``beta``.
        lag: number of intervening updates.
    """
    if momentum_norm < 0:
        raise ValueError("momentum_norm must be non-negative")
    if learning_rate <= 0:
        raise ValueError("learning_rate must be positive")
    return learning_rate * momentum_lag_factor(momentum, lag) * momentum_norm


def gradient_gap_batch(
    momentum_norms: np.ndarray,
    learning_rates: np.ndarray,
    momentums: np.ndarray,
    lags: np.ndarray,
    factor_tables: Dict[float, np.ndarray],
) -> np.ndarray:
    """Vectorized gradient gap of Eq. (4) for a whole ready pool.

    Computes ``g = eta * (1 - beta**lag)/(1 - beta) * ||v_t||_2`` per user
    with the same multiplication order as the scalar :func:`gradient_gap`,
    so the batched Eq. (22)/(23) decision rule reproduces the per-user loop
    bit for bit.

    Args:
        momentum_norms: ``||v_t||_2`` per user.
        learning_rates: ``eta`` per user.
        momentums: ``beta`` per user.
        lags: predicted intervening updates ``l_tau`` per user (``int``).
        factor_tables: the caller's Eq. (4) factor tables
            (:func:`momentum_lag_factor_batch`).
    """
    momentum_norms = np.asarray(momentum_norms, dtype=np.float64)
    learning_rates = np.asarray(learning_rates, dtype=np.float64)
    if momentum_norms.size and momentum_norms.min() < 0:
        raise ValueError("momentum_norm must be non-negative")
    if learning_rates.size and learning_rates.min() <= 0:
        raise ValueError("learning_rate must be positive")
    factor = momentum_lag_factor_batch(momentums, lags, factor_tables)
    return learning_rates * factor * momentum_norms


def gradient_gap_from_params(theta_old: np.ndarray, theta_new: np.ndarray) -> float:
    """Exact gradient gap of Eq. (2): ``||theta_{t+tau} - theta_t||_2``.

    Used a-posteriori (once the upload actually happens) for the Fig. 5
    traces; the predictive Eq. (4) form is used at decision time.
    """
    if theta_old.shape != theta_new.shape:
        raise ValueError("parameter vectors must have the same shape")
    return float(np.linalg.norm(theta_new - theta_old))
