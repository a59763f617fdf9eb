"""Non-perturbative evolution of the persistence and transition amplitudes.

The pair (S, I) obeys the regular first-order system

    İ = F(t)·S        Ṡ = −F*(t)·I        I(0) = 0,  S(0) = 1

which conserves |S|² + |I|² exactly. S(t) = A(t)e^{iρ(t)} multiplies the
adiabatic persistence amplitude, so ρ carries every non-adiabatic correction
to the geometric phase and A the reduced persistence magnitude; I(t) sets the
transition amplitude. The geometric phases γ±(t) and the action integrals
∫₀ᵗ E± dτ are accumulated alongside the ODE on the same adaptive grid so the
full amplitudes can be assembled without re-integration.

Two independent low-level oracles live here as well: a time-sliced propagator
product built from first-order slices 1 − iεH(t_k) (converging at rate 1/n),
and the truncated transition series evaluated by nested cumulative quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp

from .paths import CouplingKernel, instantaneous_eigensystem


class StepFailureError(RuntimeError):
    """The adaptive integrator could not continue (kernel too stiff?)."""


@dataclass(frozen=True)
class AmplitudeResult:
    """Assembled amplitudes at one time.

    P₋ = e^{iγ₋ − i∫E₋}·S and T₋ = −e^{iγ₊ − i∫E₊}·I always; P₊ and T₊ are
    filled from the precessing-family closed relations (P₊ = e^{iγ₊ − i∫E₊}·S*,
    T₊ = T₋) and are None for sampled paths. ``dyn_phase_minus`` is the
    dynamical phase −∫₀ᵗ E₋ dτ, so P₋ = e^{i(γ₋ + dyn)}·A·e^{iρ}.
    """

    P_minus: complex
    T_minus: complex
    P_plus: complex | None
    T_plus: complex | None
    rho: float
    A: float
    gamma_minus: float
    dyn_phase_minus: float


class Trajectory:
    """Dense-output trajectory of (S, I) plus accumulated phases.

    Immutable after construction; evaluation is thread-safe. ``ts`` holds the
    integrator's natural steps. ρ(t) is the continuous phase of S unwrapped
    from ρ(0) = 0 (the branch that vanishes in the adiabatic limit).
    """

    def __init__(self, result, tol: float):
        self._sol = result.sol
        self.tol = tol
        self.ts = result.t.copy()
        y = self._sol(self.ts)
        self._rho_nodes = np.unwrap(np.arctan2(y[3], y[2]))

    def amplitudes(self, t):
        """(S, I) sampled at scalar or array times."""
        y = self._sol(np.asarray(t, dtype=float))
        return y[2] + 1j * y[3], y[0] + 1j * y[1]

    def phases(self, t):
        """(γ₋, γ₊, ∫E₋, ∫E₊) sampled at scalar or array times."""
        y = self._sol(np.asarray(t, dtype=float))
        return y[4], y[5], y[6], y[7]

    def rho(self, t):
        """Unwrapped non-adiabatic phase correction ρ(t) = arg S(t), ρ(0) = 0."""
        S, _ = self.amplitudes(t)
        return self._unwrap(t, S)

    def _unwrap(self, t, S):
        principal = np.arctan2(np.imag(S), np.real(S))
        reference = np.interp(np.asarray(t, dtype=float), self.ts, self._rho_nodes)
        return principal + 2 * np.pi * np.round((reference - principal) / (2 * np.pi))

    def unitarity_defect(self, t):
        return _defect(*self.amplitudes(t))


def _defect(S, I):
    return np.abs(np.abs(S) ** 2 + np.abs(I) ** 2 - 1.0)


def evolve(kernel: CouplingKernel, t_end: float, tol: float = 1e-10) -> Trajectory:
    """Integrate the coupled (I, S) system on [0, t_end].

    Adaptive embedded Runge-Kutta 4(5) with absolute and relative tolerance
    ``tol`` and quartic dense output. The state is augmented with γ±(t) and
    ∫₀ᵗ E± dτ, where E₊ = (δ + γ̇₊ − γ̇₋)/2 recovers the energies from the
    kernel. Raises StepFailureError with the failing time on breakdown.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if not 0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    if t_end > kernel.t_max:
        raise ValueError(f"t_end = {t_end} runs past the path's last sample at {kernel.t_max}")

    def rhs(t, y):
        F = kernel.F(t)
        g_plus, g_minus = kernel.gamma_rates(t)
        E_plus = 0.5 * (kernel.delta(t) + g_plus - g_minus)
        I = y[0] + 1j * y[1]
        S = y[2] + 1j * y[3]
        dI = F * S
        dS = -np.conj(F) * I
        return (dI.real, dI.imag, dS.real, dS.imag, g_minus, g_plus, -E_plus, E_plus)

    y0 = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    sol = solve_ivp(rhs, (0.0, float(t_end)), y0, method="RK45",
                    rtol=tol, atol=tol, dense_output=True)
    if not sol.success:
        raise StepFailureError(f"integration failed at t = {sol.t[-1]}: {sol.message}")
    return Trajectory(sol, tol)


def assemble(traj: Trajectory, path, t: float) -> AmplitudeResult:
    """Assemble P₋, T₋ (and, for precessing paths, P₊, T₊) at time t."""
    S, I = traj.amplitudes(t)
    g_minus, g_plus, int_E_minus, int_E_plus = traj.phases(t)
    S, I = complex(S), complex(I)
    P_minus = np.exp(1j * (g_minus - int_E_minus)) * S
    T_minus = -np.exp(1j * (g_plus - int_E_plus)) * I
    if path.kind == "precessing":
        P_plus = np.exp(1j * (g_plus - int_E_plus)) * np.conj(S)
        T_plus = T_minus
    else:
        P_plus = T_plus = None
    return AmplitudeResult(
        P_minus=complex(P_minus),
        T_minus=complex(T_minus),
        P_plus=None if P_plus is None else complex(P_plus),
        T_plus=None if T_plus is None else complex(T_plus),
        rho=float(traj.rho(t)),
        A=abs(S),
        gamma_minus=float(g_minus),
        dyn_phase_minus=float(-int_E_minus),
    )


class SlicedPropagatorResult(NamedTuple):
    U: np.ndarray
    P_minus: complex
    T_minus: complex


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    # product mats[-1] @ ... @ mats[0] by pairwise reduction (log depth)
    while mats.shape[0] > 1:
        if mats.shape[0] % 2:
            head, rest = mats[:1], mats[1:]
            mats = np.concatenate([head, np.matmul(rest[1::2], rest[0::2])])
        else:
            mats = np.matmul(mats[1::2], mats[0::2])
    return mats[0]


def sliced_propagator(path, t: float, n: int) -> SlicedPropagatorResult:
    """First-order time-sliced propagator product and its (P₋, T₋) readout.

    Multiplies n slices U(k) ≈ 1 − iεH(t_k) with ε = t/n and t_k = kε, then
    projects onto the instantaneous eigenbasis at t and 0. The slices are
    intentionally non-unitary at O(ε²); the product converges to the engine
    amplitudes at rate O(1/n).
    """
    if n < 1:
        raise ValueError(f"need n >= 1 slices, got {n}")
    eps = t / n
    theta, phi, R, _, _ = path.state(eps * np.arange(1, n + 1))
    H = np.empty((n, 2, 2), dtype=complex)
    H[:, 0, 0] = R * np.cos(theta)
    H[:, 0, 1] = R * np.sin(theta) * np.exp(-1j * phi)
    H[:, 1, 0] = R * np.sin(theta) * np.exp(1j * phi)
    H[:, 1, 1] = -R * np.cos(theta)
    slices = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)) - 1j * eps * H
    U = _ordered_product(slices)

    th_t, ph_t = path.angles(t)
    th_0, ph_0 = path.angles(0.0)
    _, _, vp_t, vm_t = instantaneous_eigensystem(th_t, ph_t)
    _, _, _, vm_0 = instantaneous_eigensystem(th_0, ph_0)
    P_minus = vm_t.conj() @ U @ vm_0
    T_minus = vp_t.conj() @ U @ vm_0
    return SlicedPropagatorResult(U=U, P_minus=complex(P_minus), T_minus=complex(T_minus))


def _cumulative_simpson_complex(y: np.ndarray, ts: np.ndarray) -> np.ndarray:
    # scipy's cumulative_simpson casts complex input to real, so split parts
    return (cumulative_simpson(y.real, x=ts, initial=0.0)
            + 1j * cumulative_simpson(y.imag, x=ts, initial=0.0))


def series_persistence(kernel: CouplingKernel, t: float, order: int,
                       quad_tol: float = 1e-12) -> complex:
    """Truncated transition-series estimate of S(t).

    Evaluates the alternating nested integrals

        S ≈ 1 − ∫₀ᵗ F*(y₁)∫₀^{y₁} F(x₁) + ∫₀ᵗ F*∫F∫F*∫F − ...

    truncated after ``order`` transition pairs (order ∈ {0, 1, 2}; order 0
    returns 1). The ordered integrals are computed as cumulative Simpson
    antiderivatives on a uniform grid that is refined (doubled) until two
    successive estimates agree to ``quad_tol``. Intended for short windows
    where the truncation error (|F|·t)^{2·order+2}/(2·order+2)! is small.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    if order == 0:
        return 1.0 + 0j

    def estimate(m: int) -> complex:
        ts = np.linspace(0.0, t, m + 1)
        F = np.array([kernel.F(u) for u in ts])
        A0 = _cumulative_simpson_complex(F, ts)
        A1 = _cumulative_simpson_complex(np.conj(F) * A0, ts)
        S = 1.0 - A1[-1]
        if order >= 2:
            A2 = _cumulative_simpson_complex(F * A1, ts)
            A3 = _cumulative_simpson_complex(np.conj(F) * A2, ts)
            S = S + A3[-1]
        return complex(S)

    m = 512
    prev = estimate(m)
    while m <= 2**15:
        m *= 2
        cur = estimate(m)
        if abs(cur - prev) <= quad_tol:
            return cur
        prev = cur
    raise RuntimeError(f"series quadrature did not converge to {quad_tol} by m = {m}")


TRAJECTORY_HEADER = ["t", "Re_S", "Im_S", "Re_I", "Im_I", "rho", "A", "unitarity_defect"]


def trajectory_table(traj: Trajectory) -> np.ndarray:
    """Trajectory sampled at the integrator's natural steps, one row per step,
    columns matching TRAJECTORY_HEADER."""
    ts = traj.ts
    S, I = traj.amplitudes(ts)
    return np.column_stack([
        ts, S.real, S.imag, I.real, I.imag, traj._unwrap(ts, S), np.abs(S), _defect(S, I),
    ])


def closed_form_I(x: float, theta: float, tau: float) -> complex:
    """Transition integral for the precessing family, units 2R = 1.

    I(τ) = −i (x sinθ / e) e^{i d τ/2} sin(e τ/2) with d = 1 − x cosθ and
    e = √(1 − 2x cosθ + x²).
    """
    d = 1 - x * math.cos(theta)
    e = math.sqrt(1 - 2 * x * math.cos(theta) + x * x)
    return -1j * (x * math.sin(theta) / e) * np.exp(0.5j * d * tau) * math.sin(e * tau / 2)


def closed_form_S(x: float, theta: float, tau: float) -> complex:
    """Persistence factor for the precessing family via S = İ/F, units 2R = 1.

    Differentiating closed_form_I and dividing by F(τ) = −i(x sinθ/2)e^{idτ}
    gives S(τ) = e^{−i d τ/2} (cos(e τ/2) + i g sin(e τ/2)) with g = d/e.
    """
    d = 1 - x * math.cos(theta)
    e = math.sqrt(1 - 2 * x * math.cos(theta) + x * x)
    g = d / e
    hd, he = d * tau / 2, e * tau / 2
    return complex(np.cos(hd), -np.sin(hd)) * complex(np.cos(he), g * np.sin(he))
