"""Sampled paths: (t, θ, φ, R) samples under one piecewise cubic. The one
module the precessing physics does without, so it alone imports
``scipy.interpolate``, at its top: no timed call pays for that import."""

from __future__ import annotations

import csv
import math
import warnings

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from .paths import CouplingKernel, GaugeSingularityError, _berry_rates, _coupling, _detuning


class SampledPath:
    """Path given as (t, θ, φ, R) samples with cubic interpolation.

    Time is measured from the first sample: ``self.t`` starts at 0 and every
    method takes window-relative times in [0, ``duration``]. Derivatives θ̇, φ̇
    come from the interpolant. Samples must be finite, with strictly
    increasing t, R > 0, and θ strictly inside (0, π).
    """

    kind = "sampled"

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
        self.duration = float(self.t[-1])
        # one piecewise cubic over the columns (θ, φ, R, θ̇, φ̇): the derivative's
        # quadratic coefficients are padded with a zero cubic term
        spline = CubicSpline(self.t, columns)
        rates = spline.derivative().c[:, :, :2]
        rates = np.concatenate([np.zeros_like(rates[:1]), rates])
        self._spline = PPoly(np.concatenate([spline.c, rates], axis=2), spline.x)

    def state(self, t):
        """(θ, φ, R, θ̇, φ̇) at a scalar time (floats) or an array of times
        (arrays), from one spline evaluation. Raises GaugeSingularityError
        where the interpolated θ leaves (0, π)."""
        values = self._spline(t)
        if values.ndim == 1:
            values = values.tolist()
            if not 0 < values[0] < math.pi:
                raise GaugeSingularityError(f"theta(t={t}) = {values[0]} outside (0, pi)")
            return tuple(values)
        theta = values[..., 0].ravel()
        bad = ~((theta > 0) & (theta < math.pi))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise GaugeSingularityError(
                f"theta(t={np.ravel(t)[i]}) = {theta[i]} outside (0, pi)")
        return tuple(np.moveaxis(values, -1, 0))

    def angles(self, t):
        return self.state(t)[:2]

    def kernel(self) -> CouplingKernel:
        """The coupling kernel that ``paths.make_kernel`` documents."""
        t_fine = np.linspace(0.0, self.duration, max(1024, 8 * len(self.t)))
        # the antiderivative vanishes at its first breakpoint, t = 0
        phase = CubicSpline(t_fine, _detuning(self.state(t_fine))).antiderivative()
        return CouplingKernel(
            F=lambda t: _coupling(self.state(t)) * np.exp(1j * phase(t)),
            delta=lambda t: _detuning(self.state(t)),
            gamma_rates=lambda t: _berry_rates(self.state(t)),
            t_max=self.duration,
        )


def load_path_csv(file) -> SampledPath:
    """Read a sampled path from CSV with header ``t,theta,phi,R`` (radians)."""
    with open(file, newline="") as fh:
        header = next(csv.reader(fh), None)
    if header is None or [h.strip() for h in header] != ["t", "theta", "phi", "R"]:
        raise ValueError(f"expected header 't,theta,phi,R', got {header}")
    with warnings.catch_warnings():  # a file without rows warns, and is refused below
        warnings.simplefilter("ignore")
        data = np.loadtxt(file, delimiter=",", skiprows=1, ndmin=2, comments=None)
    if data.shape[0] == 0 or data.shape[1] != 4:
        raise ValueError(f"expected rows of 4 samples, got an array of shape {data.shape}")
    return SampledPath(*data.T)
