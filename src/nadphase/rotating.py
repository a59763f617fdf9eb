"""Exact closed-form solution for the precessing field via the rotating frame.

In the frame co-rotating with the field the Hamiltonian is static: the field
direction tips to θ̄ with tanθ̄ = sinθ/(cosθ − x), the stationary splitting is
the Rabi-type frequency Ω₀, and the initial lower eigenstate decomposes with
coefficients a₊ = −sin(Δθ/2), a₋ = cos(Δθ/2) where Δθ = θ̄ − θ. Transforming
back to the lab frame yields the exact state and, from it, the persistence
factor

    Re S = cos(dτ/2)cos(eτ/2) + g·sin(dτ/2)sin(eτ/2)
    Im S = −sin(dτ/2)cos(eτ/2) + g·cos(dτ/2)sin(eτ/2)

This module is the primary analytic oracle for the evolution engine. All
quantities are dimensionless: the level splitting sets 2R = 1, so ω = x,
t = τ, d = δ and e = Ω₀ in these units. d = 1 − x cosθ and e = √(1 − 2x cosθ + x²)
are the same algebraic forms the frequency-sweep module uses; only θ̄ and
g = cos Δθ come from the rotating-frame geometry, where the sweep takes g = d/e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import instantaneous_eigensystem


class DegenerateSplittingError(ValueError):
    """The rotating-frame splitting vanishes (requires x = 1 and θ = 0)."""


@dataclass(frozen=True)
class RotatingFrameSolution:
    """Rotating-frame geometry and expansion coefficients at one (x, θ)."""

    theta_bar: float
    Omega0: float
    a_plus: float
    a_minus: float
    d: float
    e: float
    g: float


def solve_rotating_frame(x: float, theta: float) -> RotatingFrameSolution:
    """Tip angle, Rabi frequency, and initial-state coefficients.

    θ̄ is taken from atan2(sinθ, cosθ − x) so it stays in [0, π] and Δθ is
    continuous in x even past cosθ = x.
    """
    if x < 0:
        raise ValueError(f"x must be non-negative, got {x}")
    if not 0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    d = 1 - x * math.cos(theta)
    e = math.sqrt(1 - 2 * x * math.cos(theta) + x * x)
    if e == 0.0:  # 0 by cancellation near x = 1, θ = 0; e² = (1 − x)² + x(sinθ/cos(θ/2))² is not
        e = math.hypot(1 - x, math.sqrt(x) * math.sin(theta) / math.cos(theta / 2))
    if e == 0.0:
        raise DegenerateSplittingError("Omega0 = 0 at x = 1, theta = 0")
    theta_bar = math.atan2(math.sin(theta), math.cos(theta) - x)
    Delta = theta_bar - theta
    return RotatingFrameSolution(
        theta_bar=theta_bar,
        Omega0=e,
        a_plus=-math.sin(Delta / 2),
        a_minus=math.cos(Delta / 2),
        d=d,
        e=e,
        g=math.cos(Delta),
    )


def exact_S(x: float, theta: float, tau) -> complex:
    """Exact persistence factor S(τ), real and imaginary parts assembled
    term by term from the rotating-frame solution."""
    sol = solve_rotating_frame(x, theta)
    hd, he = sol.d * np.asarray(tau) / 2, sol.e * np.asarray(tau) / 2
    re = np.cos(hd) * np.cos(he) + sol.g * np.sin(hd) * np.sin(he)
    im = -np.sin(hd) * np.cos(he) + sol.g * np.cos(hd) * np.sin(he)
    return re + 1j * im


def propagate_exact(x: float, theta: float, tau: float, psi0=None) -> np.ndarray:
    """Exact lab-frame state at τ for an arbitrary initial state.

    ψ₀ defaults to the lower instantaneous eigenstate (sin θ/2, −cos θ/2).
    The state is expanded in the rotating-frame eigenbasis, advanced with the
    stationary phases e^{∓iΩ₀τ/2}, and rotated back with diag(e^{−ixτ/2},
    e^{+ixτ/2}). Unitary, so the norm is preserved exactly.
    """
    sol = solve_rotating_frame(x, theta)
    _, _, vbar_plus, vbar_minus = instantaneous_eigensystem(sol.theta_bar, 0.0)
    if psi0 is None:
        psi0 = instantaneous_eigensystem(theta, 0.0)[3]
    psi0 = np.asarray(psi0, dtype=complex)
    b_plus = vbar_plus @ psi0
    b_minus = vbar_minus @ psi0
    psi_rot = (b_plus * np.exp(-0.5j * sol.Omega0 * tau) * vbar_plus
               + b_minus * np.exp(+0.5j * sol.Omega0 * tau) * vbar_minus)
    return np.array([np.exp(-0.5j * x * tau) * psi_rot[0],
                     np.exp(+0.5j * x * tau) * psi_rot[1]])


def phase_branch(u, g):
    """Continuous branch of arg(cos u + i·g·sin u) from u = 0, scalar or array:
    atan2(g·sin v, cos v) + sign(g)·mπ with m = round(u/π), v = u − mπ. Each
    half-odd-π crossing of u turns the phase by π, backward when g < 0."""
    m = np.round(u / np.pi)
    v = u - m * np.pi
    return np.arctan2(g * np.sin(v), np.cos(v)) + np.sign(g) * m * np.pi


def exact_rho(x: float, theta: float, tau):
    """Continuous phase of S(τ) from ρ(0) = 0, τ a float or an array:
    S = e^{−idτ/2}(cos(eτ/2) + i·g·sin(eτ/2)), so ρ = −dτ/2 + phase_branch(eτ/2, g)."""
    sol = solve_rotating_frame(x, theta)
    return -sol.d * tau / 2 + phase_branch(sol.e * tau / 2, sol.g)
