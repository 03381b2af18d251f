"""Evaluation metrics and convergence-time extraction.

The evaluation of the paper reports, besides energy, (i) test accuracy over
wall-clock time for each scheduling policy (Fig. 5b), (ii) the wall-clock
time needed to reach fixed accuracy objectives 0.40-0.55 (Fig. 5c), and
(iii) accuracy under scarce application arrivals (Fig. 6b).  This module
holds the accuracy bookkeeping those figures need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.fl.model import Sequential

__all__ = ["evaluate_model", "AccuracyTracker", "time_to_accuracy"]


def evaluate_model(
    model: Sequential,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 256,
) -> Tuple[float, float]:
    """Return ``(accuracy, mean_loss)`` of ``model`` on ``(x, y)``.

    Evaluation runs in mini-batches so large test sets do not blow up
    memory.
    """
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    correct = 0
    losses: List[float] = []
    for start in range(0, x.shape[0], batch_size):
        xb = x[start : start + batch_size]
        yb = y[start : start + batch_size]
        logits = model.forward(xb)
        losses.append(model.loss_fn.forward(logits, yb))
        correct += int((logits.argmax(axis=1) == yb).sum())
    return correct / x.shape[0], float(np.mean(losses))


@dataclass
class AccuracySample:
    """One evaluation point on the convergence curve."""

    time_s: float
    accuracy: float
    loss: float
    num_updates: int


@dataclass
class AccuracyTracker:
    """Accuracy-versus-time curve for one simulation run."""

    samples: List[AccuracySample] = field(default_factory=list)

    def record(self, time_s: float, accuracy: float, loss: float, num_updates: int) -> None:
        """Append one evaluation sample (times must be non-decreasing)."""
        if self.samples and time_s < self.samples[-1].time_s:
            raise ValueError("evaluation times must be non-decreasing")
        self.samples.append(AccuracySample(time_s, accuracy, loss, num_updates))

    def times(self) -> List[float]:
        """Evaluation timestamps."""
        return [s.time_s for s in self.samples]

    def accuracies(self) -> List[float]:
        """Accuracy values aligned with :meth:`times`."""
        return [s.accuracy for s in self.samples]

    def final_accuracy(self) -> float:
        """Accuracy at the last evaluation point (0 if never evaluated)."""
        return self.samples[-1].accuracy if self.samples else 0.0

    def best_accuracy(self) -> float:
        """Best accuracy seen so far."""
        return max((s.accuracy for s in self.samples), default=0.0)

    def time_to_accuracy(self, target: float) -> Optional[float]:
        """First timestamp at which the accuracy reached ``target``."""
        return time_to_accuracy(self.times(), self.accuracies(), target)


def time_to_accuracy(
    times: Sequence[float], accuracies: Sequence[float], target: float
) -> Optional[float]:
    """Wall-clock time at which ``accuracies`` first reaches ``target``.

    Returns ``None`` when the target is never reached (the paper marks these
    cases as "never reaches 55% within the 3-hour frame" for Sync-SGD).
    """
    if len(times) != len(accuracies):
        raise ValueError("times and accuracies must have the same length")
    for t, acc in zip(times, accuracies):
        if acc >= target:
            return float(t)
    return None
