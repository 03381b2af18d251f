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

__all__ = ["MomentumSGD"]


class MomentumSGD:
    """Flat-vector momentum SGD operating on a :class:`Sequential` model.

    The optimizer works on the model's flat parameter and gradient vectors,
    updating parameters and momentum in place, so its momentum state can be
    handed directly to the staleness estimators.  The update is elementwise,
    so the same code steps a ``(k, P)`` block of ``k`` stacked networks
    (:meth:`stacked`), each row bit for bit its own 1-D step.

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
        self._velocity: Optional[np.ndarray] = None
        #: A snapshot holds ``_velocity`` (:meth:`lend_velocity`): the next
        #: step must rebind it, not write into it.
        self._lent = False

    @classmethod
    def stacked(cls, optimizers: Sequence["MomentumSGD"], velocity: np.ndarray) -> "MomentumSGD":
        """One optimizer stepping the momentum of ``optimizers`` as the rows
        of ``velocity``, a ``(k, P)`` block it fills and then owns.

        All of them must share the hyper-parameters of the first.  Row ``i``
        starts as ``optimizers[i]``'s vector, or at zero when it has none
        (what its own first step would start from); the optimizers
        themselves are only read, so a lent vector stays untouched.
        """
        first = optimizers[0]
        block = cls(first.learning_rate, first.momentum, first.weight_decay)
        for row, optimizer in enumerate(optimizers):
            if optimizer._velocity is None:
                velocity[row] = 0.0
            else:
                velocity[row] = optimizer._velocity
        block._velocity = velocity
        return block

    @property
    def velocity(self) -> Optional[np.ndarray]:
        """The momentum vector ``v_t`` (``None`` before the first step)."""
        return self._velocity

    def velocity_norm(self) -> float:
        """L2 norm of the momentum vector (0 before the first step)."""
        velocity = self._velocity
        if velocity is None:
            return 0.0
        # What ``np.linalg.norm`` computes for a real 1-D vector.
        return math.sqrt(velocity.dot(velocity))

    def reset(self) -> None:
        """Clear the momentum state."""
        self._velocity = None
        self._lent = False

    def load_velocity(self, velocity: Optional[np.ndarray]) -> None:
        """Restore a previously-saved momentum vector (e.g. across rounds)."""
        self._velocity = None if velocity is None else velocity.copy()
        self._lent = False

    def lend_velocity(self) -> Optional[np.ndarray]:
        """The momentum vector itself, for a snapshot to keep without copying.

        The array is never written again: the next :meth:`step` continues on
        a private copy (copy-on-write), so the caller may hold it for as
        long as it likes.  It comes back read-only (a write raises).
        """
        velocity = self._velocity
        self._lent = velocity is not None
        if velocity is not None:
            velocity.flags.writeable = False
        return velocity

    def step(self, model: Sequential) -> None:
        """Apply one update, in place, using the gradients stored in ``model``."""
        model.flat_params -= self._advance(model.flat_params, model.flat_grads)

    def apply_to_vector(self, params: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Vector-space variant of :meth:`step` (no model object involved)."""
        return params - self._advance(params, grads)

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
        if self._velocity is None:
            self._velocity = np.zeros_like(params)
        elif self._lent:
            self._velocity = self._velocity.copy()
            self._lent = False
        self._velocity *= self.momentum
        self._velocity += scratch
        return np.multiply(self._velocity, self.learning_rate, out=scratch)
