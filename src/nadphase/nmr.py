"""Transverse-magnetization observable for the precessing-field experiment.

A spin initially along the lab x axis, (|E₊(0)⟩ + |E₋(0)⟩)/√2, is evolved for
an integer number n of precession cycles (t = 2πn/ω, where the instantaneous
eigenbasis is cyclic). The transverse magnetization in units of γħ/2 is

    M⊥ = (P₋ + T₊)(P₊* + T₋*)

whose dominant term A²e^{i(δt + 2ρ)} carries the dynamical, geometric, and
non-adiabatic phase contributions in its argument. Everything is
dimensionless with 2R = 1 (so x = ω, τ = t) and the gyromagnetic prefactor is
kept symbolic: all outputs are in units of γħ/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import instantaneous_eigensystem
from .rotating import exact_S, exact_rho, propagate_exact, solve_rotating_frame

MAX_CYCLES = 2**16  # rows of a magnetization table, about 50 µs each (README, "Command line")


@dataclass(frozen=True)
class MagnetizationPoint:
    """Magnetization observable after n full cycles (units of γħ/2)."""

    n: int
    t: float
    M_perp: complex
    M_x: float
    arg_exact: float
    arg_approx: float


def _cycle_tau(x: float, n: int) -> float:
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"cycle count n must be a positive integer, got {n}")
    if not 0 < x < math.inf:
        raise ValueError(f"x must be finite and positive for a cycle time, got {x}")
    return 2 * math.pi * n / x


def closed_form_amplitudes(x: float, theta: float, t: float):
    """(P₋, P₊, T₋, T₊) for the precessing family at time t (τ in 2R = 1 units).

    P₋ = A·e^{i(Rt − (ωt/2)(1+cosθ) + ρ)} and P₊ = A·e^{−i(Rt + ... + ρ)} are
    exact. The transition amplitudes use the fixed-phase convention
    T₋ = T₊ = −iĈ·e^{−iωt/2} with the dimensionless magnitude Ĉ = |I(t)|;
    the exact transition phase differs from this convention by the sign of
    sin(eτ/2) (see exact_amplitudes), which only matters in cross terms.
    """
    S = exact_S(x, theta, t)
    A = abs(S)
    rho = exact_rho(x, theta, t)
    e = solve_rotating_frame(x, theta).e
    C_hat = (x * math.sin(theta) / e) * abs(math.sin(e * t / 2))
    cos_t = math.cos(theta)
    P_minus = A * np.exp(1j * (0.5 * t - 0.5 * x * t * (1 + cos_t) + rho))
    P_plus = A * np.exp(1j * (-0.5 * t - 0.5 * x * t * (1 - cos_t) - rho))
    T = -1j * C_hat * np.exp(-0.5j * x * t)
    return complex(P_minus), complex(P_plus), complex(T), complex(T)


def exact_amplitudes(x: float, theta: float, t: float):
    """(P₋, P₊, T₋, T₊) projected from the exact propagator, true phases.

    Both instantaneous eigenstates are propagated exactly through the rotating
    frame and projected back onto the eigenbasis at time t, so the four
    amplitudes satisfy unitarity and all interference identities to machine
    precision.
    """
    _, _, v_plus0, v_minus0 = instantaneous_eigensystem(theta, 0.0)
    psi_minus = propagate_exact(x, theta, t, v_minus0)
    psi_plus = propagate_exact(x, theta, t, v_plus0)
    _, _, vp_t, vm_t = instantaneous_eigensystem(theta, x * t)
    P_minus = vm_t.conj() @ psi_minus
    T_minus = vp_t.conj() @ psi_minus
    P_plus = vp_t.conj() @ psi_plus
    T_plus = vm_t.conj() @ psi_plus
    return complex(P_minus), complex(P_plus), complex(T_minus), complex(T_plus)


def _arg_exact(x: float, theta: float, tau: float) -> float:
    return float(solve_rotating_frame(x, theta).d * tau + 2 * exact_rho(x, theta, tau))


def _arg_approx(x: float, theta: float, n: int) -> float:
    # cosine argument 2πn(1/x − cosθ + x sin²θ(1/2 + (2/3)x cosθ)); the
    # first two terms are the dynamical and geometric contributions
    cos_t = math.cos(theta)
    s2 = math.sin(theta) ** 2
    return 2 * math.pi * n * (1 / x - cos_t + x * s2 * (0.5 + (2.0 / 3.0) * x * cos_t))


def transverse_magnetization_exact(x: float, theta: float, n: int) -> MagnetizationPoint:
    """M⊥ after n cycles from the exact amplitudes (units of γħ/2)."""
    tau = _cycle_tau(x, n)
    P_minus, P_plus, T_minus, T_plus = exact_amplitudes(x, theta, tau)
    M_perp = (P_minus + T_plus) * np.conj(P_plus + T_minus)
    return MagnetizationPoint(
        n=int(n),
        t=tau,
        M_perp=complex(M_perp),
        M_x=float(M_perp.real),
        arg_exact=_arg_exact(x, theta, tau),
        arg_approx=_arg_approx(x, theta, n),
    )


def magnetization_approx(x: float, theta: float, n: int) -> MagnetizationPoint:
    """Weak-non-adiabaticity magnetization M_x = A²·cos(arg_approx) (γħ/2 units).

    Rejects x = 0: the dynamical term 2πn/x in the cosine argument diverges at
    fixed cycle count. The A² prefactor uses the exact persistence magnitude.
    """
    tau = _cycle_tau(x, n)
    arg = _arg_approx(x, theta, n)
    A2 = abs(exact_S(x, theta, tau)) ** 2
    return MagnetizationPoint(
        n=int(n),
        t=tau,
        M_perp=complex(A2 * np.exp(1j * arg)),
        M_x=float(A2 * math.cos(arg)),
        arg_exact=_arg_exact(x, theta, tau),
        arg_approx=arg,
    )


def direct_expectation(x: float, theta: float, n: int) -> complex:
    """Oracle: M⊥ as the raising-operator expectation in the exact state.

    Evolves (|E₊(0)⟩ + |E₋(0)⟩)/√2 with the exact propagator and evaluates
    2⟨ψ|E₊(0)⟩⟨E₋(0)|ψ⟩, which is M⊥ in γħ/2 units at integer cycles.
    """
    tau = _cycle_tau(x, n)
    half = theta / 2
    v_plus0 = np.array([math.cos(half), math.sin(half)], dtype=complex)
    v_minus0 = np.array([math.sin(half), -math.cos(half)], dtype=complex)
    psi = propagate_exact(x, theta, tau, (v_plus0 + v_minus0) / math.sqrt(2))
    return complex(2 * (psi.conj() @ v_plus0) * (v_minus0.conj() @ psi))


MAGNETIZATION_HEADER = ["n", "x", "theta_deg", "Mx_exact", "Mx_approx",
                        "arg_exact", "arg_approx", "A2"]


def magnetization_table(x: float, theta: float, n_max: int) -> np.ndarray:
    """Rows for cycles 1..n_max (columns per MAGNETIZATION_HEADER), with
    Mx_approx = A²·cos(arg_approx) as in magnetization_approx."""
    _cycle_tau(x, n_max)  # rejects x and n_max before any numerics
    if n_max > MAX_CYCLES:
        raise ValueError(f"cycle count n = {n_max} is over {MAX_CYCLES}")
    rows = []
    for n in range(1, n_max + 1):
        exact = transverse_magnetization_exact(x, theta, n)
        A2 = abs(exact_S(x, theta, exact.t)) ** 2
        rows.append([n, x, math.degrees(theta), exact.M_x, A2 * math.cos(exact.arg_approx),
                     exact.arg_exact, exact.arg_approx, A2])
    return np.array(rows)
