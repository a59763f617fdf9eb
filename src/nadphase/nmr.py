"""Transverse-magnetization observable for the precessing-field experiment.

A spin initially along the lab x axis, (|E₊(0)⟩ + |E₋(0)⟩)/√2, is evolved for
n whole precession cycles, τ = 2πn/x, after which the eigenbasis is back where
it started and the lab-frame rotation is (−1)ⁿ. The transverse magnetization
M⊥ = (P₋ + T₊)(P₊* + T₋*) then reduces exactly, with z = e^{idτ/2}S =
cos(eτ/2) + i·g·sin(eτ/2), to

    M⊥ = z² + (1 − g²)·sin²(eτ/2) = A²e^{i(dτ + 2ρ)} + Ĉ²,

whose dominant term carries the dynamical, geometric and non-adiabatic
phases in its argument; Ĉ² = |T₋|² is the transition probability. Everything
is dimensionless with 2R = 1 (x = ω, τ = t); outputs are in units of γħ/2.
"""

from __future__ import annotations

import math

import numpy as np

from .paths import instantaneous_eigensystem
from .rotating import phase_branch, propagate_exact, solve_rotating_frame

MAX_CYCLES = 2**16  # rows of a magnetization table (README, "Command line")


def _cycle_tau(x: float, n):
    n = np.asarray(n)
    if n.dtype.kind not in "iu" or np.any(n < 1):
        raise ValueError(f"cycle count n must be a positive integer, got {n}")
    if not 0 < x < math.inf:
        raise ValueError(f"x must be finite and positive for a cycle time, got {x}")
    return 2 * math.pi * n / x


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


def _arg_approx(x: float, theta: float, n):
    # cosine argument 2πn(1/x − cosθ + x sin²θ(1/2 + (2/3)x cosθ)); the
    # first two terms are the dynamical and geometric contributions
    cos_t = math.cos(theta)
    s2 = math.sin(theta) ** 2
    return 2 * math.pi * n * (1 / x - cos_t + x * s2 * (0.5 + (2.0 / 3.0) * x * cos_t))


def magnetization(x: float, theta: float, n):
    """(M⊥, arg_exact, arg_approx, A²) after n whole cycles, n an int or an
    integer array: M⊥ in closed form (module docstring), arg_exact = dτ + 2ρ
    = 2·arg z the argument of its dominant term, and arg_approx the weak-drive argument,
    whose magnetization is A²·cos(arg_approx). Rejects x = 0: the dynamical
    term 2πn/x diverges at fixed cycle count."""
    tau = _cycle_tau(x, n)
    sol = solve_rotating_frame(x, theta)
    half = sol.e * tau / 2
    cos_h, sin_h = np.cos(half), np.sin(half)
    im_z = sol.g * sin_h
    # z² + Ĉ² in real products: numpy fuses a complex array product and
    # squares a scalar with pow, and a table row must round as one cycle does
    M_perp = cos_h * cos_h - im_z * im_z + (1 - sol.g**2) * sin_h * sin_h + 1j * (2 * cos_h * im_z)
    A2 = cos_h * cos_h + im_z * im_z  # |z|² = |S|²
    return M_perp, 2 * phase_branch(half, sol.g), _arg_approx(x, theta, n), A2


def direct_expectation(x: float, theta: float, n: int) -> complex:
    """Oracle: M⊥ as the raising-operator expectation in the exact state.

    Evolves (|E₊(0)⟩ + |E₋(0)⟩)/√2 with the exact propagator and evaluates
    2⟨ψ|E₊(0)⟩⟨E₋(0)|ψ⟩, which is M⊥ in γħ/2 units at integer cycles.
    """
    tau = _cycle_tau(x, n)
    _, _, v_plus0, v_minus0 = instantaneous_eigensystem(theta, 0.0)
    psi = propagate_exact(x, theta, tau, (v_plus0 + v_minus0) / math.sqrt(2))
    return complex(2 * (psi.conj() @ v_plus0) * (v_minus0.conj() @ psi))


MAGNETIZATION_HEADER = ["n", "x", "theta_deg", "Mx_exact", "Mx_approx",
                        "arg_exact", "arg_approx", "A2"]


def magnetization_table(x: float, theta: float, n_max: int) -> np.ndarray:
    """Rows for cycles 1..n_max (columns per MAGNETIZATION_HEADER), with
    Mx_exact = Re M⊥ and Mx_approx = A²·cos(arg_approx)."""
    with np.errstate(all="ignore"):  # a table that overflows is refused below
        _cycle_tau(x, n_max)  # rejects x and n_max before any numerics
        if n_max > MAX_CYCLES:
            raise ValueError(f"cycle count n = {n_max} is over {MAX_CYCLES}")
        n = np.arange(1, n_max + 1)
        M_perp, arg_exact, arg_approx, A2 = magnetization(x, theta, n)
        table = np.column_stack(np.broadcast_arrays(n, x, math.degrees(theta), M_perp.real,
                                                    A2 * np.cos(arg_approx), arg_exact, arg_approx, A2))
    if not np.all(np.isfinite(table)):
        raise ValueError(f"x = {x} with n = {n_max} cycles gives a table entry that is not finite")
    return table
