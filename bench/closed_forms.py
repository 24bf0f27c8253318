"""The benchmark's own closed forms, derived from the paper and not from diffstop.

Every expected value the checks compare against comes from here.  Nothing in
this module imports the package under test.

Sticky Brownian motion with drift ``mu <= 0`` and stickiness ``c`` has
scale derivative ``S'(x) = exp(-2 mu x)`` and speed measure
``2 exp(2 mu x) dx + 2c delta_0``.  Off the origin the fundamental solutions
solve ``u''/2 + mu u' = alpha u``, with exponents ``r+ = theta - mu`` and
``r- = -(theta + mu)``, ``theta = sqrt(2 alpha + mu^2)``.  At the origin the
scale derivative jumps by the speed atom times ``alpha u(0)``:
``u_S'(0+) - u_S'(0-) = 2 c alpha u(0)``.  Hence, with ``gamma = c alpha / theta``,

    psi(x) = e^{r+ x}                                    x <= 0
           = (1 + gamma) e^{r+ x} - gamma e^{r- x}       x > 0

and phi the mirror image; the Wronskian in scale is ``2 theta + 2 c alpha``.

For the reward ``(1 + x)^+`` and ``mu = 0`` (``k = sqrt(2 alpha)``) the
threshold is ``x* = 1/k - 1`` for ``alpha > 1/2``, ``0`` for
``alpha1 <= alpha <= 1/2`` and the root of ``(1 + x) psi'(x) = psi(x)`` on
``x > 0`` below ``alpha1 = (sqrt(1 + 4c) - 1)^2 / (8 c^2)``; the value is
``(1 + x*) psi(x) / psi(x*)`` left of ``x*`` and the reward right of it.

For the symmetric reward ``(|x| - 1)^+`` the value is
``A (cosh kx + (c alpha / k) sinh k|x|)`` on ``|x| < b`` and the reward
outside, with ``b > 1`` and ``A`` fixed by smooth fit at ``b``.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# sticky Brownian motion with drift
# ---------------------------------------------------------------------------

class Sticky:
    """psi, phi and the Green kernel of BM with drift mu <= 0, sticky at 0."""

    def __init__(self, alpha: float, c: float, mu: float = 0.0):
        self.alpha, self.c, self.mu = alpha, c, mu
        self.theta = math.sqrt(2.0 * alpha + mu * mu)
        self.up = self.theta - mu          # r+
        self.dn = self.theta + mu          # -r-
        self.gamma = c * alpha / self.theta
        self.wronskian = 2.0 * self.theta + 2.0 * c * alpha

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        g = self.gamma
        return np.where(x <= 0.0, np.exp(self.up * np.minimum(x, 0.0)),
                        (1.0 + g) * np.exp(self.up * x) - g * np.exp(-self.dn * x))

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        g = self.gamma
        return np.where(x >= 0.0, np.exp(-self.dn * np.maximum(x, 0.0)),
                        (1.0 + g) * np.exp(-self.dn * x) - g * np.exp(self.up * x))

    def dpsi(self, x):
        """psi'(x), right limit at 0."""
        x = np.asarray(x, dtype=float)
        g = self.gamma
        return np.where(x < 0.0, self.up * np.exp(self.up * np.minimum(x, 0.0)),
                        (1.0 + g) * self.up * np.exp(self.up * x)
                        + g * self.dn * np.exp(-self.dn * x))

    def dphi(self, x):
        """phi'(x), right limit at 0."""
        x = np.asarray(x, dtype=float)
        g = self.gamma
        return np.where(x >= 0.0, -self.dn * np.exp(-self.dn * np.maximum(x, 0.0)),
                        -(1.0 + g) * self.dn * np.exp(-self.dn * x)
                        - g * self.up * np.exp(self.up * x))

    def green(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return self.psi(np.minimum(x, y)) * self.phi(np.maximum(x, y)) / self.wronskian


class ReflectedKilled:
    """BM on [0, 1), reflected at 0 and killed at 1."""

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.k = math.sqrt(2.0 * alpha)
        self.wronskian = self.k * math.cosh(self.k)

    def psi(self, x):
        return np.cosh(self.k * np.asarray(x, dtype=float))

    def phi(self, x):
        return np.sinh(self.k * (1.0 - np.asarray(x, dtype=float)))

    def green(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        return self.psi(np.minimum(x, y)) * self.phi(np.maximum(x, y)) / self.wronskian


# ---------------------------------------------------------------------------
# one-sided problem: reward (1 + x)^+, driftless sticky BM
# ---------------------------------------------------------------------------

def alpha1(c: float) -> float:
    return (math.sqrt(1.0 + 4.0 * c) - 1.0) ** 2 / (8.0 * c * c)


def _bisect(f, lo: float, hi: float) -> float:
    """Root of an increasing f on [lo, hi] with f(lo) < 0 < f(hi)."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _t_upper(alpha: float, c: float, x: float) -> float:
    """(1 + x) psi'(x) - psi(x) on x > 0: increasing, its root is x* > 0."""
    k = math.sqrt(2.0 * alpha)
    g = c * alpha / k
    psi = (1.0 + g) * math.exp(k * x) - g * math.exp(-k * x)
    dpsi = k * ((1.0 + g) * math.exp(k * x) + g * math.exp(-k * x))
    return (1.0 + x) * dpsi - psi


def threshold(alpha: float, c: float) -> float:
    """x* by regime."""
    k = math.sqrt(2.0 * alpha)
    if alpha > 0.5:
        return 1.0 / k - 1.0
    if alpha >= alpha1(c):
        return 0.0
    hi = 1.0
    while _t_upper(alpha, c, hi) < 0.0:
        hi *= 2.0
    return _bisect(lambda x: _t_upper(alpha, c, x), 0.0, hi)


def alpha_for_threshold(x_star: float, c: float) -> float:
    """The discount rate whose threshold is x_star (x_star != 0)."""
    if x_star < 0.0:
        return 0.5 / (1.0 + x_star) ** 2
    # on (0, alpha1) the threshold decreases from +inf to 0
    return _bisect(lambda a: x_star - threshold(a, c), 1e-9, alpha1(c) * (1.0 - 1e-12))


class OneSided:
    """Value of stopping driftless sticky BM with reward (1 + x)^+."""

    def __init__(self, alpha: float, c: float):
        self.alpha, self.c = alpha, c
        self.k = math.sqrt(2.0 * alpha)
        self.fs = Sticky(alpha, c)
        self.x_star = threshold(alpha, c)
        self.coef = (1.0 + self.x_star) / float(self.fs.psi(self.x_star))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x <= self.x_star, self.coef * self.fs.psi(x),
                        np.maximum(1.0 + x, 0.0))

    def kink_at_zero(self) -> float:
        """V'(0-) - V'(0+): -2 c alpha V(0) in the continuation region,
        k - 1 at x* = 0, and 0 inside the stopping region."""
        if self.x_star > 0.0:
            return -2.0 * self.c * self.alpha * float(self.value(0.0))
        if self.x_star == 0.0:
            return self.k - 1.0
        return 0.0

    def second_derivatives_at_zero(self) -> tuple[float, float]:
        """(V''(0-), V''(0+)): k^2 V on the psi branch, 0 on the reward."""
        v0 = float(self.value(0.0))
        left = self.k ** 2 * v0 if self.x_star >= 0.0 else 0.0
        right = self.k ** 2 * v0 if self.x_star > 0.0 else 0.0
        return left, right

    def third_derivatives_at_zero(self) -> tuple[float, float]:
        """(V'''(0-), V'''(0+)) on the same branches."""
        if self.x_star < 0.0:
            return 0.0, 0.0
        k3 = self.coef * self.k ** 3
        right = k3 * (1.0 + 2.0 * self.fs.gamma) if self.x_star > 0.0 else 0.0
        return k3, right

    def jump_at_threshold(self) -> float:
        """V'(x*-) - V'(x*+): k - 1 at the sticky point, 0 under smooth fit."""
        return self.k - 1.0 if self.x_star == 0.0 else 0.0

    def curvature_below_threshold(self) -> float:
        """V''(x*-) = k^2 (1 + x*); only meaningful off the sticky point."""
        return self.k ** 2 * (1.0 + self.x_star)

    def sigma_atoms(self) -> dict[float, float]:
        """Atoms of the Riesz measure of V (raw scale)."""
        if self.x_star > 0.0:
            return {}
        if self.x_star == 0.0:
            return {0.0: self.k - 1.0 + 2.0 * self.c * self.alpha}
        return {0.0: 2.0 * self.c * self.alpha}

    def sigma_ac_between(self, a: float, b: float) -> float:
        """Riesz AC mass of V on (a, b): density 2 alpha (1 + y) above x*."""
        lo = max(a, self.x_star)
        if b <= lo:
            return 0.0
        return self.alpha * ((1.0 + b) ** 2 - (1.0 + lo) ** 2)

    def verdict(self) -> str:
        return "Fails" if alpha1(self.c) <= self.alpha < 0.5 else "SmoothFit"


# ---------------------------------------------------------------------------
# two-sided problem: reward (|x| - 1)^+, driftless sticky BM
# ---------------------------------------------------------------------------

def two_sided_reward(x):
    return np.maximum(np.abs(np.asarray(x, dtype=float)) - 1.0, 0.0)


class TwoSided:
    """Value A (cosh kx + beta sinh k|x|) on |x| < b, reward outside."""

    def __init__(self, alpha: float, c: float):
        self.alpha, self.c = alpha, c
        k = self.k = math.sqrt(2.0 * alpha)
        beta = self.beta = c * alpha / k

        def fit(b):   # value/slope mismatch at b; increasing past its root
            ch, sh = math.cosh(k * b), math.sinh(k * b)
            return (b - 1.0) * k * (sh + beta * ch) - (ch + beta * sh)

        hi = 2.0
        while fit(hi) < 0.0:
            hi *= 2.0
        self.b = _bisect(fit, 1.0, hi)
        self.amp = 1.0 / (k * (math.sinh(k * self.b) + beta * math.cosh(k * self.b)))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        inside = self.amp * (np.cosh(self.k * np.minimum(ax, self.b))
                             + self.beta * np.sinh(self.k * np.minimum(ax, self.b)))
        return np.where(ax < self.b, inside, two_sided_reward(x))

    def kink_at_zero(self) -> float:
        return -2.0 * self.c * self.alpha * self.amp

    def second_derivatives_at_zero(self) -> tuple[float, float]:
        # V'' = k^2 V on both sides of 0
        v2 = self.k ** 2 * self.amp
        return v2, v2

    def third_derivatives_at_zero(self) -> tuple[float, float]:
        # cosh''' vanishes at 0; beta sinh k|x| contributes +-A beta k^3
        v3 = self.amp * self.beta * self.k ** 3
        return v3, v3

    def curvature_below_boundary(self) -> float:
        return self.k ** 2 * (self.b - 1.0)
