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
allowed and simply have Γ₋ = 0. Both path kinds expose ``state(t)`` =
(θ, φ, R, θ̇, φ̇); a sampled path measures t from its first sample.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Callable

import numpy as np


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
    """The three functions ``engine.evolve`` reads.

    F(t) = Γ₋(t)·exp[i∫₀ᵗ δ(τ)dτ] carries every consequence of the
    non-adiabatic motion; ``delta`` is δ, ``gamma_rates`` returns (γ̇₊, γ̇₋),
    and ``t_max`` bounds where they are defined: a sampled path's duration.
    """

    F: Callable[[float], complex]
    delta: Callable[[float], float]
    gamma_rates: Callable[[float], tuple[float, float]]
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
    (upper sign for level +1). A sampled path gives ``path.integral`` of γ̇±
    at t: Gauss-Legendre sums on pieces of its sample intervals.
    """
    if level not in (+1, -1):
        raise ValueError(f"level must be +1 or -1, got {level}")
    if path.kind == "precessing":
        half = path.theta / 2
        sq = math.sin(half) ** 2 if level == +1 else math.cos(half) ** 2
        return -path.omega * t * sq
    return float(path.integral(lambda state: _berry_rates(state)[0 if level == +1 else 1])(t))


def make_kernel(path) -> CouplingKernel:
    """Build the coupling kernel F, δ, (γ̇₊, γ̇₋) for a path.

    Members take a time or an array of times. On a precessing path Γ₋, δ and
    γ̇± are constant, so F(t) = Γ₋e^{iδt} exactly. Sampled paths take ∫δ from
    ``SampledPath.integral``; its members, called on one read-only array that owns
    its data (as ``engine.evolve`` calls them), share one path evaluation.
    """
    if path.kind == "precessing":
        state = path.state(0.0)
        Gamma, delta0, (g_plus, g_minus) = _coupling(state), _detuning(state), _berry_rates(state)
        return CouplingKernel(  # 0·t broadcasts the constants over arrays of times
            F=lambda t: Gamma * np.exp(1j * delta0 * t),
            delta=lambda t: delta0 + 0 * t,
            gamma_rates=lambda t: (g_plus + 0 * t, g_minus + 0 * t),
        )
    return path.kernel()  # a SampledPath, so nadphase.sampled is loaded


def __getattr__(name):  # the sampled-path names import nadphase.sampled, and scipy with it
    if name in ("SampledPath", "load_path_csv"):
        from . import sampled
        return getattr(sampled, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
