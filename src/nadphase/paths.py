"""Environmental parameter paths and the instantaneous spectral frame.

A two-level system couples to a classical vector R(t) through H(t) = R(t)·σ,
with R(t) parameterized by a magnitude R and spherical angles (θ, φ). This
module defines the path families (uniform precession and sampled/interpolated
paths), the instantaneous eigensystem of H(t) in a fixed gauge, and the
derived coupling quantities that drive the amplitude evolution:

    γ̇₊ = −φ̇ sin²(θ/2)          γ̇₋ = −φ̇ cos²(θ/2)
    Γ₋  = θ̇/2 − (i/2) φ̇ sinθ    δ  = 2R − φ̇ cosθ

Natural units with ħ = 1 throughout. The gauge fixes the first component of
each eigenvector real and non-negative; sampled paths are restricted to
θ ∈ (0, π) to keep that gauge smooth. Precessing paths with θ ∈ {0, π} are
allowed and simply have Γ₋ = 0. Both path kinds expose ``state(t)`` =
(θ, φ, R, θ̇, φ̇); a sampled path measures t from its first sample.
"""

from __future__ import annotations

import csv
import math
from dataclasses import InitVar, dataclass
from typing import Callable

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline, PPoly


class GaugeSingularityError(ValueError):
    """A sampled path reached θ outside (0, π), where the gauge is singular."""


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """Instantaneous eigensystem and couplings of H(t) at one time point."""

    t: float
    E_plus: float
    E_minus: float
    v_plus: np.ndarray
    v_minus: np.ndarray
    gamma_rate_plus: float
    gamma_rate_minus: float
    Gamma_minus: complex
    delta: float

    @property
    def Gamma_plus(self) -> complex:
        """Coupling for the upper level, Γ₊ = −Γ₋*."""
        return -np.conj(self.Gamma_minus)


@dataclass(frozen=True)
class CouplingKernel:
    """The functions that drive the persistence evolution.

    F(t) = Γ₋(t)·exp[i∫₀ᵗ δ(τ)dτ] carries every consequence of the
    non-adiabatic motion; |F(t)| = |Γ₋(t)| for all t. ``gamma_rates``
    returns (γ̇₊, γ̇₋) and ``delta_integral`` the accumulated phase ∫₀ᵗ δ.
    ``t_max`` bounds where they are defined: a sampled path's duration.
    """

    F: Callable[[float], complex]
    delta: Callable[[float], float]
    Gamma_minus: Callable[[float], complex]
    gamma_rates: Callable[[float], tuple[float, float]]
    delta_integral: Callable[[float], float]
    t_max: InitVar[float] = math.inf

    def __post_init__(self, t_max):
        object.__setattr__(self, "t_max", t_max)


@dataclass(frozen=True)
class PrecessingPath:
    """R(t) of constant magnitude precessing about z at fixed polar angle.

    θ is constant, φ(t) = ω t. ``duration`` is advisory (the path is defined
    for all t); it defaults to one precession cycle.
    """

    R: float
    theta: float
    omega: float
    duration: float | None = None

    kind = "precessing"

    def __post_init__(self):
        if not 0 < self.R < math.inf:
            raise ValueError(f"R must be positive and finite, got {self.R}")
        if not 0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")
        if not math.isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        if self.duration is None and self.omega != 0:
            object.__setattr__(self, "duration", 2 * math.pi / abs(self.omega))

    @classmethod
    def dimensionless(cls, x: float, theta: float) -> "PrecessingPath":
        """Path in units where the level splitting 2R = 1, so ω = x and t = τ."""
        return cls(R=0.5, theta=theta, omega=x)

    def state(self, t):
        """(θ, φ, R, θ̇, φ̇) at time t."""
        return self.theta, self.omega * t, self.R, 0.0, self.omega

    def angles(self, t):
        return self.theta, self.omega * t

    def rates(self, t):
        return 0.0, self.omega

    def magnitude(self, t):
        return self.R


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
        theta, phi, _, _, _ = self.state(t)
        return theta, phi

    def rates(self, t):
        _, _, _, theta_dot, phi_dot = self.state(t)
        return theta_dot, phi_dot

    def magnitude(self, t):
        return self.state(t)[2]


def load_path_csv(file) -> SampledPath:
    """Read a sampled path from CSV with header ``t,theta,phi,R`` (radians)."""
    with open(file, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["t", "theta", "phi", "R"]:
            raise ValueError(f"expected header 't,theta,phi,R', got {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    if not rows:
        raise ValueError("path file contains no samples")
    data = np.array(rows)
    return SampledPath(data[:, 0], data[:, 1], data[:, 2], data[:, 3])


def instantaneous_eigensystem(theta: float, phi: float, R: float = 1.0):
    """Eigenpairs of H = R n̂(θ, φ)·σ in the fixed gauge.

    Returns (E₊, E₋, v₊, v₋) with E₊ = −E₋ = R and

        v₊ = (cos θ/2, sin θ/2 · e^{iφ})
        v₋ = (sin θ/2, −cos θ/2 · e^{iφ})
    """
    if not 0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    half = theta / 2
    phase = np.exp(1j * phi)
    v_plus = np.array([math.cos(half), math.sin(half) * phase])
    v_minus = np.array([math.sin(half), -math.cos(half) * phase])
    return R, -R, v_plus, v_minus


def _berry_rates(state) -> tuple[float, float]:
    """(γ̇₊, γ̇₋) = (−φ̇ sin²(θ/2), −φ̇ cos²(θ/2)) from a state (θ, φ, R, θ̇, φ̇)."""
    theta, _, _, _, phi_dot = state
    return -phi_dot * math.sin(theta / 2) ** 2, -phi_dot * math.cos(theta / 2) ** 2


def _coupling(state) -> complex:
    """Γ₋ = θ̇/2 − (i/2) φ̇ sinθ from a state (θ, φ, R, θ̇, φ̇)."""
    theta, _, _, theta_dot, phi_dot = state
    return theta_dot / 2 - 0.5j * phi_dot * math.sin(theta)


def _detuning(state):
    """δ = 2R − φ̇ cosθ from a state (θ, φ, R, θ̇, φ̇) of scalars or arrays."""
    theta, _, R, _, phi_dot = state
    return 2 * R - phi_dot * np.cos(theta)


def coupling_at(path, t: float) -> EigenFrame:
    """Instantaneous eigenframe with Berry rates, coupling Γ₋, and detuning δ."""
    state = path.state(t)
    E_plus, E_minus, v_plus, v_minus = instantaneous_eigensystem(*state[:3])
    gamma_rate_plus, gamma_rate_minus = _berry_rates(state)
    return EigenFrame(
        t=t,
        E_plus=E_plus,
        E_minus=E_minus,
        v_plus=v_plus,
        v_minus=v_minus,
        gamma_rate_plus=gamma_rate_plus,
        gamma_rate_minus=gamma_rate_minus,
        Gamma_minus=_coupling(state),
        delta=_detuning(state),
    )


def berry_phase(path, level: int, t: float) -> float:
    """Geometric phase γ±(t) = ∫₀ᵗ γ̇±, with ``level`` ∈ {+1, −1}.

    For the precessing family this is −(ωt/2)(1 ∓ cosθ) in closed form
    (upper sign for level +1); sampled paths are integrated numerically.
    """
    if level not in (+1, -1):
        raise ValueError(f"level must be +1 or -1, got {level}")
    if path.kind == "precessing":
        half = path.theta / 2
        sq = math.sin(half) ** 2 if level == +1 else math.cos(half) ** 2
        return -path.omega * t * sq
    which = 0 if level == +1 else 1
    val, _ = quad(lambda u: _berry_rates(path.state(u))[which], 0.0, t,
                  limit=200, epsabs=1e-12, epsrel=1e-12)
    return val


def make_kernel(path) -> CouplingKernel:
    """Build the coupling kernel F, δ, Γ₋, (γ̇₊, γ̇₋), ∫δ for a path.

    Precessing paths use the closed forms F(t) = −iC e^{iδt} with
    C = (ω/2) sinθ, no integration error. Sampled paths accumulate ∫δ with
    a spline antiderivative of δ tabulated on a fine internal grid; each
    kernel member makes one path evaluation, and F one more of ∫δ.
    """
    if path.kind == "precessing":
        C = path.omega / 2 * math.sin(path.theta)
        delta0 = 2 * path.R - path.omega * math.cos(path.theta)
        g_plus = -path.omega * math.sin(path.theta / 2) ** 2
        g_minus = -path.omega * math.cos(path.theta / 2) ** 2
        return CouplingKernel(
            F=lambda t: -1j * C * np.exp(1j * delta0 * t),
            delta=lambda t: delta0,
            Gamma_minus=lambda t: -1j * C,
            gamma_rates=lambda t: (g_plus, g_minus),
            delta_integral=lambda t: delta0 * t,
        )

    t_fine = np.linspace(0.0, path.duration, max(1024, 8 * len(path.t)))
    # the antiderivative vanishes at its first breakpoint, t = 0
    phase = CubicSpline(t_fine, _detuning(path.state(t_fine))).antiderivative()
    return CouplingKernel(
        F=lambda t: _coupling(path.state(t)) * np.exp(1j * float(phase(t))),
        delta=lambda t: _detuning(path.state(t)),
        Gamma_minus=lambda t: _coupling(path.state(t)),
        gamma_rates=lambda t: _berry_rates(path.state(t)),
        delta_integral=lambda t: float(phase(t)),
        t_max=path.duration,
    )
