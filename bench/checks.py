"""Accuracy bookkeeping: every check is an error against a tolerance.

A check's margin is ``log10(tolerance / error)`` in decimal digits: positive
exactly when the error is below the tolerance.  A zero error scores
``ZERO_ERROR_DIGITS``.  A property check (a verdict, an equality, a bracket)
has no graded error; it scores ``ZERO_ERROR_DIGITS`` when it holds and
``-ZERO_ERROR_DIGITS`` when it does not.

The run's ``accuracy_margin_digits`` is the smallest margin of all its
checks, capped at ``METRIC_CAP_DIGITS``.  Beyond two digits of headroom
the smallest margin is rounding noise that moves with the seed (on the code this
benchmark was written against the smallest margins sit between 2.2 and 3.6
digits), so the cap makes the metric repeat exactly while every check keeps
two digits, and drop as soon as one check comes within a factor 100 of its
tolerance.  The uncapped margins are reported per check name.
"""

from __future__ import annotations

import math

import numpy as np

ZERO_ERROR_DIGITS = 6.0
METRIC_CAP_DIGITS = 2.0


class Checks:
    def __init__(self):
        self.count = 0
        self.margin = ZERO_ERROR_DIGITS
        self.worst = ""
        self.by_name: dict[str, float] = {}    # smallest margin per check name
        self.failures: list[str] = []

    def _record(self, name: str, margin: float, detail: str) -> None:
        self.count += 1
        if margin < self.by_name.get(name, math.inf):
            self.by_name[name] = margin
        if margin < self.margin:
            self.margin, self.worst = margin, name
        if margin <= 0.0 and len(self.failures) < 20:
            self.failures.append(f"{name}: {detail}")

    def close(self, name: str, error: float, tol: float) -> None:
        """Passes when ``error < tol``; ``error`` is an absolute value."""
        error = abs(float(error))
        if math.isnan(error):
            margin = -ZERO_ERROR_DIGITS
        elif error == 0.0:
            margin = ZERO_ERROR_DIGITS
        else:
            margin = max(-ZERO_ERROR_DIGITS, min(ZERO_ERROR_DIGITS, math.log10(tol / error)))
            if error > tol:          # keep a failure negative even after rounding
                margin = min(margin, -1e-12)
        self._record(name, margin, f"error {error:.3g} > tolerance {tol:.3g}")

    def holds(self, name: str, ok: bool, detail: str = "") -> None:
        self._record(name, ZERO_ERROR_DIGITS if ok else -ZERO_ERROR_DIGITS, detail or "does not hold")

    def relative(self, name: str, got, want, rtol: float) -> None:
        """Largest |got - want| / max(1, |want|) against ``rtol``."""
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.holds(name, False, f"shape {got.shape} != {want.shape}")
            return
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        self.close(name, float(np.max(err)) if err.size else 0.0, rtol)

    @property
    def passed(self) -> bool:
        return self.margin > 0.0

    @property
    def metric(self) -> float:
        """accuracy_margin_digits: the smallest margin, capped."""
        return min(METRIC_CAP_DIGITS, self.margin)
