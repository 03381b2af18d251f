"""Momentum SGD exactly as Eq. (1) of the paper.

The update maintained per participant is::

    v_t     = beta * v_{t-1} + (1 - beta) * s_t
    theta_t = theta_{t-1} - eta * v_t

where ``s_t`` is the current (mini-batch) gradient vector, ``beta`` the
momentum coefficient and ``eta`` the learning rate.  The momentum vector
``v_t`` is also what the staleness machinery consumes: the linear weight
prediction of Eq. (3) extrapolates the global parameters ``lag`` updates into
the future along ``v_t``, and the gradient gap of Eq. (4) is the norm of that
extrapolation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.fl.model import Sequential

__all__ = ["MomentumSGD", "vector_norm"]


def vector_norm(vector: np.ndarray) -> float:
    """L2 norm of a real 1-D vector, what ``np.linalg.norm`` computes."""
    return math.sqrt(vector.dot(vector))


class MomentumSGD:
    """Flat-vector momentum SGD operating on a :class:`Sequential` model.

    The optimizer works on the model's flat parameter and gradient vectors,
    updating parameters and momentum in place, so its momentum state can be
    handed directly to the staleness estimators.  The update is elementwise,
    so the same code steps a ``(k, P)`` block of ``k`` stacked networks
    (:meth:`load_rows`), each row bit for bit its own 1-D step.

    :attr:`velocity` is the momentum vector ``v_t`` (``None`` before the
    first step).  It may be borrowed: a caller assigns a vector it keeps, and
    the steps write into it — unless it is read-only (a snapshot holds it),
    in which case the first step continues on a private copy
    (copy-on-write) and the held array keeps its bits.

    Args:
        learning_rate: ``eta`` in Eq. (1).
        momentum: ``beta`` in Eq. (1); 0 disables momentum.
        weight_decay: optional L2 regularisation coefficient.
    """

    def __init__(
        self,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if not (math.isfinite(learning_rate) and learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if not (math.isfinite(weight_decay) and weight_decay >= 0):
            raise ValueError("weight_decay must be finite and non-negative")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.velocity: Optional[np.ndarray] = None

    def load_rows(
        self, velocities: Sequence[Optional[np.ndarray]], block: Optional[np.ndarray]
    ) -> None:
        """Make :attr:`velocity` the momentum of ``k`` networks for their next
        steps: a stacked network's ``(k, P)`` rows, or one network's vector.

        With a ``block`` (a stacked network's ``flat_momentum``) the vectors
        are copied into it: row ``i`` starts as ``velocities[i]``, or at zero
        for ``None`` (what its own first step would start from), and the
        vectors themselves are only read, so a lent one stays untouched.
        Without one (a block of one is a network of its own) the single
        vector is borrowed and stepped in place, read-only and ``None``
        vectors as :attr:`velocity` always treats them.
        """
        if block is None:
            (self.velocity,) = velocities
            return
        for row, velocity in enumerate(velocities):
            if velocity is None:
                block[row] = 0.0
            else:
                block[row] = velocity
        self.velocity = block

    def velocity_norm(self) -> float:
        """L2 norm of the momentum vector (0 before the first step)."""
        return 0.0 if self.velocity is None else vector_norm(self.velocity)

    def step(self, model: Sequential) -> None:
        """Apply one update, in place, using the gradients stored in ``model``."""
        model.flat_params -= self._advance(model.flat_params, model.flat_grads)

    def _advance(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Update ``v_t`` in place; return the decrement ``eta * v_t`` (a fresh array).

        The same elementwise operations in the same order as the out-of-place
        ``beta * v + (1 - beta) * s``, so the bits do not depend on the form.
        """
        if grads.shape != params.shape:
            raise ValueError("gradient/parameter shape mismatch")
        if self.weight_decay > 0.0:
            grads = grads + self.weight_decay * params
        scratch = grads * (1.0 - self.momentum)
        if self.velocity is None:
            self.velocity = np.zeros_like(params)
        elif not self.velocity.flags.writeable:
            self.velocity = self.velocity.copy()
        self.velocity *= self.momentum
        self.velocity += scratch
        return np.multiply(self.velocity, self.learning_rate, out=scratch)
