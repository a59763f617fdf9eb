"""Environmental parameter paths and the instantaneous spectral frame.

A two-level system couples to a classical vector R(t) through H(t) = R(t)·σ,
with R(t) parameterized by a magnitude R and spherical angles (θ, φ). This
module defines the uniform precession (sampled paths are in ``nadphase.sampled``
and forwarded here), the instantaneous eigensystem of H(t) in a fixed gauge,
and the derived coupling quantities that drive the amplitude evolution:

    γ̇₊ = −φ̇ sin²(θ/2)          γ̇₋ = −φ̇ cos²(θ/2)
    Γ₋  = θ̇/2 − (i/2) φ̇ sinθ    δ  = 2R − φ̇ cosθ

Natural units with ħ = 1 throughout. The gauge fixes the first component of
each eigenvector real and non-negative; sampled paths are restricted to
θ ∈ (0, π) to keep that gauge smooth. Precessing paths with θ ∈ {0, π} are
allowed and simply have Γ₋ = 0. Every path has ``state(t)`` = (θ, φ, R, θ̇, φ̇)
in the shape of t, ``integral(rate)`` = t ↦ ∫₀ᵗ rate(state) and ``t_max``, the end
of its span [0, t_max]; a sampled path measures t from its first sample.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import InitVar, dataclass
from typing import Callable

import numpy as np


class GaugeSingularityError(ValueError):
    """A sampled path reached θ outside (0, π), where the gauge is singular."""


@dataclass(frozen=True, eq=False)
class EigenFrame:
    """Berry rates, coupling and detuning of H(t) at one time point; the eigenpairs are
    ``instantaneous_eigensystem``'s, and Γ₊ = −Γ₋*."""

    gamma_rate_plus: float
    gamma_rate_minus: float
    Gamma_minus: complex
    delta: float


@dataclass(frozen=True)
class CouplingKernel:
    """The three functions ``engine.evolve`` reads.

    F(t) = Γ₋(t)·exp[i∫₀ᵗ δ(τ)dτ] carries every consequence of the
    non-adiabatic motion; ``delta`` is δ, ``gamma_rates`` returns (γ̇₊, γ̇₋),
    and ``t_max`` bounds where they are defined: the path's ``t_max``.
    """

    F: Callable[[float], complex]
    delta: Callable[[float], float]
    gamma_rates: Callable[[float], tuple[float, float]]
    t_max: InitVar[float] = math.inf

    def __post_init__(self, t_max):
        object.__setattr__(self, "t_max", t_max)


@dataclass(frozen=True)
class PrecessingPath:
    """R(t) of constant magnitude precessing about z at fixed polar angle:
    θ is constant, φ(t) = ω t, for all t ≥ 0."""

    R: float
    theta: float
    omega: float

    t_max = math.inf

    def __post_init__(self):
        if not (0 < self.R and math.isfinite(2 * self.R + abs(self.omega))):
            raise ValueError(f"R must be positive and 2R + |omega| finite, got R = {self.R} "
                             f"and omega = {self.omega}")
        if not 0 <= self.theta <= math.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")

    @classmethod
    def dimensionless(cls, x: float, theta: float) -> "PrecessingPath":
        """Path in units where the level splitting 2R = 1, so ω = x and t = τ."""
        return cls(R=0.5, theta=theta, omega=x)

    def state(self, t):
        """(θ, φ, R, θ̇, φ̇) at a scalar time or an array of times, in the shape of t."""
        zero = 0 * t  # broadcasts the constant columns over arrays of times
        return self.theta + zero, self.omega * t, self.R + zero, zero, self.omega + zero

    def integral(self, rate):
        """t ↦ ∫₀ᵗ rate(state) = rate(state(0))·t, exact: every rate of a precession is constant."""
        value = rate(self.state(0.0))
        return lambda t: value * t


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


def _berry_rates(state):
    """(γ̇₊, γ̇₋) = (−φ̇ sin²(θ/2), −φ̇ cos²(θ/2)) from a state (θ, φ, R, θ̇, φ̇)."""
    theta, _, _, _, phi_dot = state
    return -phi_dot * np.sin(theta / 2) ** 2, -phi_dot * np.cos(theta / 2) ** 2


def _coupling(state):
    """Γ₋ = θ̇/2 − (i/2) φ̇ sinθ from a state (θ, φ, R, θ̇, φ̇)."""
    theta, _, _, theta_dot, phi_dot = state
    return theta_dot / 2 - 0.5j * phi_dot * np.sin(theta)


def _detuning(state):
    """δ = 2R − φ̇ cosθ from a state (θ, φ, R, θ̇, φ̇) of scalars or arrays."""
    theta, _, R, _, phi_dot = state
    return 2 * R - phi_dot * np.cos(theta)


def check_span(t, t_max):
    """Raise ValueError unless every time in t (a number or an array) lies in [0, t_max],
    which NaN never does. Past its last sample a sampled path's spline would extrapolate."""
    t = np.asarray(t)
    inside = (0 <= t) & (t <= t_max)  # False for NaN
    if not np.all(inside):
        raise ValueError(f"t = {t[~inside].flat[0]} is outside the span [0, {t_max}]")


def coupling_at(path, t: float) -> EigenFrame:
    """Berry rates, coupling Γ₋ and detuning δ at t in [0, ``path.t_max``]; ValueError
    for any other t, NaN included."""
    check_span(t, path.t_max)
    state = path.state(t)
    return EigenFrame(*_berry_rates(state), Gamma_minus=_coupling(state), delta=_detuning(state))


def berry_phase(path, level: int, t: float) -> float:
    """Geometric phase γ±(t) = ∫₀ᵗ γ̇±, with ``level`` ∈ {+1, −1}: ``path.integral``
    of γ̇±, −(ωt/2)(1 ∓ cosθ) on a precession (upper sign for level +1). Raises
    ValueError for t outside [0, ``path.t_max``], NaN included.
    """
    if level not in (+1, -1):
        raise ValueError(f"level must be +1 or -1, got {level}")
    check_span(t, path.t_max)
    return float(path.integral(lambda state: _berry_rates(state)[0 if level == +1 else 1])(t))


def make_kernel(path) -> CouplingKernel:
    """Build the coupling kernel F, δ, (γ̇₊, γ̇₋) of a path from ``path.state`` and
    F = Γ₋·exp[i·``path.integral``(δ)]: exact on a precession, where ∫δ = δt.

    Members take a time or an array of times in [0, ``path.t_max``], and raise ValueError
    for any other, NaN included. Called on one read-only array that owns its data (as
    ``engine.evolve`` calls them), they share one path evaluation.
    """
    phase = path.integral(_detuning)
    shared = {}  # 0: (weak reference to read-only times, their state), replaced whole

    def state(t):
        ref, value = shared.get(0, (None, None))
        if ref is None or ref() is not t:
            check_span(t, path.t_max)
            value = path.state(t)
            if isinstance(t, np.ndarray) and not t.flags.writeable and t.base is None:
                shared[0] = (weakref.ref(t, lambda _: shared.clear()), value)
        return value

    return CouplingKernel(
        F=lambda t: _coupling(state(t)) * np.exp(1j * phase(t)),
        delta=lambda t: _detuning(state(t)),
        gamma_rates=lambda t: _berry_rates(state(t)),
        t_max=path.t_max,
    )


def __getattr__(name):  # the sampled-path names import nadphase.sampled, and scipy with it
    if name in ("SampledPath", "load_path_csv"):
        from . import sampled
        return getattr(sampled, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
