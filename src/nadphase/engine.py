"""Non-perturbative evolution of the persistence and transition amplitudes.

The pair (S, I) obeys the regular first-order system

    İ = F(t)·S        Ṡ = −F*(t)·I        I(0) = 0,  S(0) = 1

which conserves |S|² + |I|² exactly. S(t) = A(t)e^{iρ(t)} multiplies the
adiabatic persistence amplitude, so ρ carries every non-adiabatic correction
to the geometric phase and A the reduced persistence magnitude; I(t) sets the
transition amplitude. In a frame turning at a fixed rate w, (J, K) = (I e^{−iwt/2},
S e^{iwt/2}) has the traceless anti-Hermitian generator [[−iw/2, G], [−G*, iw/2]],
G = F·e^{−iwt}, so a fourth-order Magnus step is a closed-form SU(2) element, exact
where G is constant; γ±(t) and ∫₀ᵗ E± dτ are Gauss sums on the same nodes.

Two independent low-level oracles live here as well: a time-sliced propagator
product built from first-order slices 1 − iεH(t_k) (converging at rate 1/n),
and the truncated transition series evaluated by nested cumulative quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .paths import CouplingKernel, check_span, instantaneous_eigensystem

_FIRST_STEPS = 256
MAX_STEPS = 2**19  # bounds a run to about 1.3 s and 190 MB (README, "Engine")
SLICE_BLOCK = 4096  # slices sliced_propagator builds and multiplies at a time
SERIES_QUAD_TOL = 1e-12  # series_persistence refines its grid until two estimates agree to this


class StepFailureError(RuntimeError):
    """Step doubling missed ``tol`` by MAX_STEPS, or a later level's kernel value was not finite."""


@dataclass(frozen=True)
class AmplitudeResult:
    """Assembled amplitudes at one time, on every path.

    P₋ = e^{i(γ₋ − ∫E₋)}·S, T₋ = −e^{i(γ₊ − ∫E₊)}·I and, since (S*, −I*) solves the
    upper level's system (F₊ = −F*), P₊ = e^{i(γ₊ − ∫E₊)}·S* and T₊ = e^{i(γ₋ − ∫E₋)}·I*.
    ``dyn_phase_minus`` is the dynamical phase −∫₀ᵗ E₋ dτ, so P₋ = e^{i(γ₋ + dyn)}·A·e^{iρ}.
    """

    P_minus: complex
    T_minus: complex
    P_plus: complex
    T_plus: complex
    rho: float
    A: float
    gamma_minus: float
    dyn_phase_minus: float


def gauss_nodes(t0, h):
    """The two Gauss-Legendre nodes of each step [t0, t0 + h], on a last axis
    of 2; the rule h·(f₁ + f₂)/2 is exact for cubics."""
    return np.asarray(t0)[..., None] + np.multiply.outer(h, [0.5 - 3**0.5 / 6, 0.5 + 3**0.5 / 6])


def _phase_rates(kernel: CouplingKernel, nodes) -> np.ndarray:
    """(γ̇₋, γ̇₊, E₊, δ) at ``nodes`` on a first axis of 4, E₊ = (δ + γ̇₊ − γ̇₋)/2 = −E₋."""
    rates = np.empty((4,) + np.shape(nodes))
    rates[1], rates[0] = kernel.gamma_rates(nodes)
    rates[3] = kernel.delta(nodes)
    rates[2] = 0.5 * (rates[3] + rates[1] - rates[0])
    return rates


def _magnus_steps(F, h, w):
    """Fourth-order Magnus steps from F at the Gauss nodes, taken in the frame and
    returned in the lab frame, as SU(2) elements [[1 + da, b], [−b*, 1 + da*]], with
    their turns r. In the frame a step is exp Ω = cos r + (sin r / r)·Ω, Ω = [[iα, β],
    [−β*, −iα]], α = −wh/2 + (√3/6)h²·Im(G₁G₂*), β = h(G₁ + G₂)/2 + i(√3/12)wh²(G₂ −
    G₁), r = |(α, β)|. Back in the lab frame 1 + da takes a factor 1 + p = e^{iwh/2}
    and β one of e^{iwm}, m the step's midpoint: so G₁,₂e^{iwm} = F₁,₂e^{±iwh√3/6}
    stand for G₁,₂, leaving α and r as they are. Deviations from 1 are kept apart from
    the 1: rounding near 1 errs alike on equal steps, and their products add it up."""
    q, c = np.exp(1j * math.sqrt(3) / 6 * w * h), math.sqrt(3) / 12 * h**2
    G1, G2 = F[..., 0] * q, F[..., 1] * np.conj(q)
    beta = 0.5 * h * (G1 + G2) + 1j * c * w * (G2 - G1)
    alpha = -0.5 * w * h + 2 * c * (G1 * np.conj(G2)).imag
    r = np.hypot(alpha, np.abs(beta))
    sinc, p = np.sinc(r / np.pi), -2 * np.sin(0.25 * w * h) ** 2 + 1j * np.sin(0.5 * w * h)
    da = -2 * np.sin(0.5 * r) ** 2 + 1j * alpha * sinc
    return da + p + da * p, beta * sinc, r


def _product(da, b, ea, c):
    """The products u·v of SU(2) elements u = (da, b), v = (ea, c), of arrays or numbers."""
    return da + ea + da * ea - b * c.conjugate(), b + c + da * c + b * ea.conjugate()


def _prefix_products(da, b):
    """Prefix products u_k ⋯ u_0 of SU(2) elements u = (da, b): up to 32 in turn as Python complex
    numbers, more by a log-depth scan (pair neighbours, scan the pairs, extend each by one)."""
    if len(da) <= 32:
        pa, pb = da.tolist(), b.tolist()
        for k in range(1, len(pa)):
            pa[k], pb[k] = _product(pa[k], pb[k], pa[k - 1], pb[k - 1])
        return np.array(pa, dtype=complex), np.array(pb, dtype=complex)
    pa, pb = _prefix_products(*_product(da[1::2], b[1::2], da[:-1:2], b[:-1:2]))
    da, b, m = da.copy(), b.copy(), (len(da) - 1) // 2  # m elements after the first at even k
    da[1::2], b[1::2] = pa, pb
    da[2::2], b[2::2] = _product(da[2::2], b[2::2], pa[:m], pb[:m])
    return da, b


class Trajectory:
    """(S, I) and the accumulated phases on a uniform grid of Magnus steps.

    Immutable; evaluation is thread-safe. Off the nodes ``ts``, a partial step
    from the node at or left of t gives the value, so at a node it is exact.
    A time outside [0, ts[-1]], NaN included, raises ValueError.
    ρ(t) is the continuous phase of S unwrapped from ρ(0) = 0 (the branch that
    vanishes in the adiabatic limit). ``stats`` describes the run only.
    """

    def __init__(self, kernel, ts, psi, rates, tol: float, stats: dict):
        self._kernel, self.ts, self._psi, self.tol, self.stats = kernel, ts, psi, tol, stats
        increments = 0.5 * np.diff(ts[:2]) * rates[:3].sum(axis=-1)  # the step; none on one node
        self._phases = np.concatenate([np.zeros((3, 1)), np.cumsum(increments, axis=1)], axis=1)
        self._rho_nodes = np.unwrap(np.angle(psi[0]))

    def _from_node(self, t):
        t = np.asarray(t, dtype=float)
        check_span(t, self.ts[-1])
        k = np.searchsorted(self.ts, t, side="right") - 1
        return k, t - self.ts[k], gauss_nodes(self.ts[k], t - self.ts[k])

    def amplitudes(self, t):
        """(S, I) sampled at scalar or array times."""
        k, h, nodes = self._from_node(t)
        F = np.broadcast_to(self._kernel.F(nodes), nodes.shape)
        da, b, _ = _magnus_steps(F, h, self.stats["w"])
        S, I = self._psi[:, k]
        return (S + (np.conj(da) * S - np.conj(b) * I))[()], (I + (da * I + b * S))[()]

    def phases(self, t):
        """(γ₋, γ₊, ∫E₋, ∫E₊) sampled at scalar or array times."""
        k, h, nodes = self._from_node(t)
        rates = _phase_rates(self._kernel, nodes)[:3].sum(axis=-1)
        g_minus, g_plus, int_E_plus = self._phases[:, k] + 0.5 * h * rates
        return g_minus, g_plus, 0.0 - int_E_plus, int_E_plus  # 0 − keeps ∫E₋(0) = +0

    def rho(self, t):
        """Unwrapped non-adiabatic phase correction ρ(t) = arg S(t), ρ(0) = 0."""
        return self._unwrap(t, self.amplitudes(t)[0])

    def _unwrap(self, t, S):
        principal = np.arctan2(np.imag(S), np.real(S))
        reference = np.interp(np.asarray(t, dtype=float), self.ts, self._rho_nodes)
        return principal + 2 * np.pi * np.round((reference - principal) / (2 * np.pi))

    def unitarity_defect(self, t):
        return _defect(*self.amplitudes(t))


def _defect(S, I):
    return np.abs(np.abs(S) ** 2 + np.abs(I) ** 2 - 1.0)


def evolve(kernel: CouplingKernel, t_end: float, tol: float = 1e-10) -> Trajectory:
    """Integrate the coupled (I, S) system on [0, t_end] in n uniform Magnus steps in
    the frame turning at w, the mean δ over the first level's Gauss nodes. n doubles
    from 256 until the error estimate of the 2n-step solution ψ, max|ψ₂ₙ − ψₙ|/15 over
    common nodes, is at most ``tol`` and no step turns by more than π/2, which keeps
    ρ unwrapped over the nodes continuous. A step turns by about h·e/2, e = hypot(w,
    2·max|F|) on the first level, so n ≥ e·t_end/π. Before any step, raises ValueError on
    a first-level kernel value that is not finite (naming t), on e·t_end/π over MAX_STEPS
    and on e² or t_end² not finite (a step squares both); later, StepFailureError, naming a
    time, on a kernel value that is not finite or when MAX_STEPS steps do not get there. A
    level calls each kernel member once, on the read-only array of its Gauss nodes."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not 0 <= t_end < math.inf:
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    if t_end > kernel.t_max:
        raise ValueError(f"t_end = {t_end} runs past the path's last sample at {kernel.t_max}")
    if t_end == 0:  # one node, S = 1 and I = 0, with nothing to step and no budget to check
        stats = dict.fromkeys(["steps", "doublings", "kernel_calls", "kernel_points"], 0)
        return Trajectory(kernel, np.zeros(1), np.eye(2, 1, dtype=complex), np.zeros((4, 0, 2)),
                          tol, stats | dict.fromkeys(["error_estimate", "unitarity_defect_max",
                                                      "w", "max_step_turn"], 0.0))
    n, coarse = _FIRST_STEPS, None
    while True:
        ts = np.linspace(0.0, t_end, n + 1)
        nodes = gauss_nodes(ts[:-1], t_end / n)
        nodes.flags.writeable = False  # lets a kernel share one path evaluation over the level
        with np.errstate(over="ignore", invalid="ignore"):  # a value not finite is named below
            F = np.broadcast_to(np.asarray(kernel.F(nodes), dtype=complex), nodes.shape)
            rates = _phase_rates(kernel, nodes)
        bad = ~(np.isfinite(F) & np.all(np.isfinite(rates), axis=0))
        if np.any(bad):
            error = ValueError if coarse is None else StepFailureError
            raise error(f"kernel value not finite at t = {nodes.flat[np.argmax(bad)]}")
        if coarse is None:  # the first level fixes w for the run, and the step budget
            w = float(np.mean(rates[3]))
            e = math.hypot(w, 2 * float(np.max(np.abs(F))))
            if not (e * t_end / math.pi <= MAX_STEPS and math.isfinite(e * e + t_end * t_end)):
                raise ValueError(f"e = {e:.4g} and t_end = {t_end:.4g} need e*t_end/pi <= "
                                 f"{MAX_STEPS} steps, and e*e and t_end*t_end finite")
        da, b, r = _magnus_steps(F, t_end / n, w)
        da, b = _prefix_products(da, b)
        psi = np.column_stack([[1.0, 0.0], np.stack([1.0 + np.conj(da), b])])
        if coarse is not None:
            gap = psi[:, ::2] - coarse
            estimate = float(np.max(np.linalg.norm(gap, axis=0))) / 15
            if estimate <= tol and np.max(r) <= math.pi / 2:
                break
            if 2 * n > MAX_STEPS:  # local estimate: the gap's growth over each coarse step
                worst = np.argmax(np.linalg.norm(np.diff(gap, axis=1), axis=0))
                raise StepFailureError(f"estimate {estimate:.3g} > tol or step turn {np.max(r):.3g}"
                                       f" > pi/2 at {n} steps, worst from t = {ts[2 * worst]}")
        n, coarse = 2 * n, psi
    doublings = int(math.log2(n // _FIRST_STEPS))
    stats = {"steps": n, "doublings": doublings, "kernel_calls": 3 * (doublings + 1),
             "kernel_points": 4 * n - 2 * _FIRST_STEPS, "error_estimate": estimate,
             "unitarity_defect_max": float(np.max(_defect(*psi))), "w": w,
             "max_step_turn": float(np.max(r))}
    return Trajectory(kernel, ts, psi, rates, tol, stats)


def assemble(traj: Trajectory, path, t: float) -> AmplitudeResult:
    """P±, T±, ρ and A at time t, from (S, I) and the phases alone (see
    AmplitudeResult). ``path`` is unused; it stays for positional callers."""
    S, I = traj.amplitudes(t)
    g_minus, g_plus, int_E_minus, int_E_plus = traj.phases(t)
    S, I = complex(S), complex(I)
    lower, upper = np.exp(1j * (g_minus - int_E_minus)), np.exp(1j * (g_plus - int_E_plus))
    return AmplitudeResult(
        P_minus=complex(lower * S),
        T_minus=complex(-upper * I),
        P_plus=complex(upper * np.conj(S)),
        T_plus=complex(lower * np.conj(I)),
        rho=float(traj._unwrap(t, S)),
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
    amplitudes at rate O(1/n). They are built and multiplied SLICE_BLOCK at a
    time, each block's product folded into the running one, so memory is
    O(SLICE_BLOCK) for any n. Raises ValueError for t outside [0, ``path.t_max``],
    NaN included.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 slices, got {n}")
    check_span(t, path.t_max)
    eps = t / n
    U = np.eye(2, dtype=complex)
    for first in range(1, n + 1, SLICE_BLOCK):
        theta, phi, R = path.state(eps * np.arange(first, min(first + SLICE_BLOCK, n + 1)))[:3]
        H = np.empty((len(theta), 2, 2), dtype=complex)
        H[:, 0, 0] = R * np.cos(theta)
        H[:, 0, 1] = R * np.sin(theta) * np.exp(-1j * phi)
        H[:, 1, 0] = R * np.sin(theta) * np.exp(1j * phi)
        H[:, 1, 1] = -R * np.cos(theta)
        # 1 − iεH written over H: no second or third array of slices is made
        U = _ordered_product(np.subtract(np.eye(2), np.multiply(1j * eps, H, out=H), out=H)) @ U

    _, _, vp_t, vm_t = instantaneous_eigensystem(*path.state(t)[:2])
    _, _, _, vm_0 = instantaneous_eigensystem(*path.state(0.0)[:2])
    P_minus = vm_t.conj() @ U @ vm_0
    T_minus = vp_t.conj() @ U @ vm_0
    return SlicedPropagatorResult(U=U, P_minus=complex(P_minus), T_minus=complex(T_minus))


def _cumulative_simpson(y, h):
    """∫ from the first sample to each sample of y (at least 3, step h), by the rule of scipy's
    ``cumulative_simpson`` for equal intervals: intervals 2k and 2k + 1 by the parabola through
    samples 2k, 2k + 1 and 2k + 2, the last interval by the parabola through the last three.
    Complex y is integrated as it is."""
    sub = np.zeros_like(y)  # sub[k + 1] is the integral over interval k
    sub[1:-1:2] = h / 12 * (5 * y[:-2:2] + 8 * y[1:-1:2] - y[2::2])
    sub[2::2] = h / 12 * (5 * y[2::2] + 8 * y[1:-1:2] - y[:-2:2])
    sub[-1] = h / 12 * (5 * y[-1] + 8 * y[-2] - y[-3])
    return np.cumsum(sub)


def series_persistence(kernel: CouplingKernel, t: float, order: int) -> complex:
    """Truncated transition-series estimate of S(t).

    Evaluates the alternating nested integrals

        S ≈ 1 − ∫₀ᵗ F*(y₁)∫₀^{y₁} F(x₁) + ∫₀ᵗ F*∫F∫F*∫F − ...

    truncated after ``order`` transition pairs (order ∈ {0, 1, 2}; order 0
    returns 1). The ordered integrals are cumulative Simpson antiderivatives by
    scipy's equal-interval rule (``_cumulative_simpson``) on a uniform grid that is
    refined (doubled) until two successive estimates agree to ``SERIES_QUAD_TOL``.
    Intended for short windows where the truncation error
    (|F|·t)^{2·order+2}/(2·order+2)! is small.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order}")
    if order == 0:
        return 1.0 + 0j

    def estimate(m: int) -> complex:
        h = t / m
        F = kernel.F(np.linspace(0.0, t, m + 1))
        A0 = _cumulative_simpson(F, h)
        A1 = _cumulative_simpson(np.conj(F) * A0, h)
        S = 1.0 - A1[-1]
        if order >= 2:
            A2 = _cumulative_simpson(F * A1, h)
            A3 = _cumulative_simpson(np.conj(F) * A2, h)
            S = S + A3[-1]
        return complex(S)

    m = 512
    prev = estimate(m)
    while m <= 2**15:
        m *= 2
        cur = estimate(m)
        if abs(cur - prev) <= SERIES_QUAD_TOL:
            return cur
        prev = cur
    raise RuntimeError(f"series quadrature did not converge to {SERIES_QUAD_TOL} by m = {m}")


TRAJECTORY_HEADER = ["t", "Re_S", "Im_S", "Re_I", "Im_I", "rho", "A", "unitarity_defect"]


def trajectory_table(traj: Trajectory) -> np.ndarray:
    """Trajectory at the step nodes, one row per node, columns matching
    TRAJECTORY_HEADER."""
    ts, (S, I) = traj.ts, traj._psi
    return np.column_stack([
        ts, S.real, S.imag, I.real, I.imag, traj._unwrap(ts, S), np.abs(S), _defect(S, I),
    ])

