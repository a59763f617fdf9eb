"""Sampled paths: (t, θ, φ, R) samples under one piecewise cubic. The one
module the precessing physics does without, so it alone imports
``scipy.interpolate``, at its top: no timed call pays for that import."""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np
from scipy.interpolate import PPoly
from scipy.linalg import solve_banded

from .paths import GaugeSingularityError

# the 8-point Gauss-Legendre rule on [0, 1]; a column per node, ∫₀^σ of its Lagrange polynomial
_X = np.array([0.1834346424956498, 0.525532409916329, 0.7966664774136267, 0.9602898564975363])
_W = np.array([0.362683783378362, 0.31370664587788727, 0.22238103445337448, 0.10122853629037626])
_NODES, _WEIGHTS = np.r_[1 - _X[::-1], 1 + _X] / 2, np.r_[_W[::-1], _W] / 2
_OTHERS = [np.delete(_NODES, i) for i in range(8)]
_LAGRANGE = np.transpose([np.polyint(np.poly(o) / np.prod(s - o)) for s, o in zip(_NODES, _OTHERS)])


def _not_a_knot(x, y):
    """PPoly coefficients of the not-a-knot cubic spline of y's columns (θ, φ, R) at x, in
    CubicSpline's arithmetic (knot slopes from one banded solve, ValueError if not finite;
    Hermite cubics), then of the first two's rates θ̇, φ̇, with a zero cubic term."""
    h, d0, d1 = np.diff(x), x[2] - x[0], x[-1] - x[-3]
    hc, slope = h[:, None], np.diff(y, axis=0) / h[:, None]
    bands = [np.r_[0.0, d0, h[:-1]], np.r_[h[1], 2 * (h[:-1] + h[1:]), h[-2]], np.r_[h[1:], d1, 0]]
    first = ((hc[0] + 2 * d0) * hc[1] * slope[0] + hc[0] ** 2 * slope[1]) / d0
    inner = 3 * (hc[1:] * slope[:-1] + hc[:-1] * slope[1:])
    last = (hc[-1] ** 2 * slope[-2] + (2 * d1 + hc[-1]) * hc[-2] * slope[-1]) / d1
    s = solve_banded((1, 1), bands, np.vstack([first, inner, last]))
    t = (s[:-1] + s[1:] - 2 * slope) / hc
    c = np.stack([t / hc, (slope - s[:-1]) / hc - t, s[:-1], y[:-1]])
    rates = c[:3, :, :2] * [[[3.0]], [[2.0]], [[1.0]]]
    return np.concatenate([c, np.concatenate([np.zeros_like(rates[:1]), rates])], axis=2)


class SampledPath:
    """Path given as (t, θ, φ, R) samples with cubic interpolation.

    Time is measured from the first sample: ``self.t`` starts at 0 and every
    method takes window-relative times in [0, ``duration``] (``t_max``). Derivatives θ̇, φ̇
    come from the interpolant. Samples must be finite, with strictly increasing t, and the
    interpolant must keep R > 0 and θ strictly inside (0, π) between them as well.
    """

    def __init__(self, t, theta, phi, R):
        t = np.asarray(t, dtype=float)
        theta = np.asarray(theta, dtype=float)
        phi = np.asarray(phi, dtype=float)
        R = np.asarray(R, dtype=float)
        if t.ndim != 1 or len(t) < 4:
            raise ValueError("need at least 4 samples for cubic interpolation")
        if not (t.shape == theta.shape == phi.shape == R.shape):
            raise ValueError("t, theta, phi, R must have equal length")
        columns = np.column_stack([theta, phi, R])
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(columns))):
            raise ValueError("samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        if np.any(R <= 0):
            raise ValueError("R must stay positive along the path")
        if np.any(theta <= 0) or np.any(theta >= math.pi):
            raise GaugeSingularityError("sampled paths require theta strictly in (0, pi)")
        self.t = t - t[0]
        self.duration = self.t_max = float(self.t[-1])
        c = _not_a_knot(self.t, columns)  # one piecewise cubic over (θ, φ, R, θ̇, φ̇)
        c0, c1, c2, c3 = c[:, :, [0, 2]]  # θ's and R's, at the real roots of each p′ in its piece
        with np.errstate(all="ignore"):  # a root that is missing is NaN or ±inf: it goes to an end
            q = -(c1 + np.copysign(np.sqrt(c1 * c1 - 3 * c0 * c2), c1))
            s = np.fmin(np.fmax([q / (3 * c0), c2 / q], 0.0), np.diff(self.t)[:, None])
        values = ((c0 * s + c1) * s + c2) * s + c3
        bad = ~((values > 0) & (values < [math.pi, math.inf]))
        if np.any(bad):
            k, j, r = np.argwhere(bad.transpose(2, 1, 0))[0]  # θ first, then the earliest
            raise (GaugeSingularityError, ValueError)[k](
                f"{('theta', 'R')[k]}(t={self.t[j] + s[r, j, k]}) = {values[r, j, k]} is outside "
                f"{('(0, pi)', 'R > 0')[k]}: the spline leaves it between samples")
        self._spline = PPoly.construct_fast(c, self.t)

    def state(self, t):
        """(θ, φ, R, θ̇, φ̇) in the shape of t, from one spline evaluation."""
        return tuple(np.moveaxis(self._spline(t), -1, 0))

    def integral(self, rate) -> PPoly:
        """∫₀ᵗ rate(state): on ⌈128/(samples − 1)⌉ equal pieces of each sample interval, the exact
        integral of rate's degree-7 interpolant at 8 Gauss-Legendre nodes; knots hold Gauss sums."""
        n = -(-128 // (len(self.t) - 1))  # pieces per interval: knots at sample indices j/n
        x = np.interp(np.arange(len(self.t) * n - n + 1) / n, np.arange(len(self.t)), self.t)
        h = np.diff(x)
        f = rate(self.state(x[:-1, None] + np.multiply.outer(h, _NODES)))
        c = ((f - f[:, :1]) @ _LAGRANGE.T) * h[:, None] ** np.arange(-7.0, 2.0)  # of s⁸ … s⁰
        c[:, -2] += f[:, 0]  # f − f₀ is interpolated, where the Lagrange integrals cancel less
        c[:, -1] = np.concatenate([[0.0], np.cumsum(h * (f @ _WEIGHTS))[:-1]])
        return PPoly.construct_fast(np.ascontiguousarray(c.T), x)


def load_path_csv(file) -> SampledPath:
    """Read a sampled path from CSV with header ``t,theta,phi,R`` (radians)."""
    with open(file, newline="") as fh, warnings.catch_warnings():
        header = next(csv.reader([fh.readline()]))  # [] for an empty file
        if [h.strip() for h in header] != ["t", "theta", "phi", "R"]:
            raise ValueError(f"expected header 't,theta,phi,R', got {header}")
        warnings.simplefilter("ignore")  # a file without rows warns, and is refused below
        data = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
    if data.shape[0] == 0 or data.shape[1] != 4:
        raise ValueError(f"expected rows of 4 samples, got an array of shape {data.shape}")
    return SampledPath(*data.T)
