"""Non-adiabatic phase correction ρ as a function of drive strength x.

The phase of the persistence factor at fixed evaluation time τ = 2πs/x_f obeys
tan(ετ/2) = g·tan(eτ/2) with ρ(x) = (ε − d)τ/2 on the branch with ρ(0) = 0.
Two mutually validating routes compute ε(x):

* an ODE in x (dε/dx from differentiating the defining relation at fixed τ),
  integrated adaptively from ε(0) = 1, which is the primary method; and
* the branch-tracked arctangent ετ/2 = atan2(g·sin v, cos v) + mπ with
  m = round(eτ/2 / π) and v = eτ/2 − mπ (``rotating.phase_branch``, which
  also gives the exact ρ(τ)), which is total, needs no marching, and serves
  as the oracle and as the fallback wherever the ODE's tangent blows up.

The ODE right-hand side has poles where cos(eτ/2) = 0. Pole locations are
found analytically before integrating; the ODE runs on the pole-free segments
(re-seeded from the oracle after each pole) and the excluded margins fall back
to the oracle. Dimensionless units with 2R = 1 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp

from .rotating import phase_branch

FIRST_ITERATION_C1 = 0.25
FIRST_ITERATION_C2 = 1.0 / 3.0
BERRY_COMPARISON_C1 = 0.5
BERRY_COMPARISON_C2 = 1.0
MAX_POLES = 2**16  # tangent-pole orders a sweep may cross, e_max·s/x_f (README, "Command line")


@dataclass(frozen=True)
class SweepConfig:
    """Frequency-sweep configuration; evaluation time is τ = 2πs/x_f."""

    theta: float
    x_f: float
    s: float = 1.0
    grid: int = 512
    tol: float = 1e-10

    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not 0 < self.x_f < 1:
            raise ValueError(f"x_f must lie in (0, 1), got {self.x_f}")
        if self.grid < 2:
            raise ValueError(f"grid must be >= 2, got {self.grid}")
        if not 0 < self.s < math.inf:
            raise ValueError(f"cycle count s must be finite and positive, got {self.s}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if max(1.0, _params(self.x_f, math.cos(self.theta))[1]) * self.s / self.x_f > MAX_POLES:
            raise ValueError(f"s/x_f = {self.s / self.x_f:.4g}: over {MAX_POLES} tangent poles")

    @property
    def tau(self) -> float:
        return 2 * math.pi * self.s / self.x_f


@dataclass(frozen=True, eq=False)
class PhaseCurve:
    """Sampled ρ(x) (and ε(x)) curves over a frequency sweep.

    ``labels`` records which curves are present: A = exact sweep,
    B = analytic first-iteration approximation, C = comparison curve with the
    alternative small-x coefficients (1/2, 1).
    """

    xs: np.ndarray
    eps: np.ndarray
    rho_exact: np.ndarray
    rho_first_iter: np.ndarray | None = None
    rho_berry: np.ndarray | None = None
    labels: tuple[str, ...] = ("A",)


def _params(x, cos_t, sqrt=math.sqrt):
    """d = 1 − x cosθ, e = √(1 − 2x cosθ + x²), g = d/e, de/dx and dg/dx in
    units 2R = 1; scalar ``math`` by default, ``sqrt=np.sqrt`` for arrays."""
    d = 1 - x * cos_t
    e = sqrt(1 - 2 * x * cos_t + x**2)
    dedx = (x - cos_t) / e
    dgdx = (-cos_t * e**2 - d * (x - cos_t)) / e**3
    return d, e, d / e, dedx, dgdx


def dimensionless_params(x, theta):
    """(d, e, g) at scalar or array x, in units 2R = 1."""
    with np.errstate(divide="ignore", invalid="ignore"):
        d, e, g, _, _ = _params(np.asarray(x, dtype=float), np.cos(theta), np.sqrt)
    if np.any(e == 0):
        raise ValueError("degenerate splitting e = 0 (x = 1, theta = 0)")
    return d, e, g


def epsilon_unwrap(cfg: SweepConfig, x):
    """Branch-tracked ε(x) from the defining relation, continuous with ε(0) = 1.

    ετ/2 = phase_branch(eτ/2, g): the integer branch offset is exactly the
    count of half-odd-π crossings a monotone march in x would accumulate, so
    no marching state is needed and the form is total (it extends
    continuously through the tangent poles, where ετ/2 = mπ ± π/2).
    """
    _, e, g = dimensionless_params(x, cfg.theta)
    return 2 * phase_branch(e * cfg.tau / 2, g) / cfg.tau


def _epsilon_rhs(cfg: SweepConfig):
    """dε/dx at fixed τ, from differentiating tan(ετ/2) = g·tan(eτ/2), on the
    scalar x the integrator passes (plain ``math``, no arrays)."""
    tau = cfg.tau
    cos_t = math.cos(cfg.theta)

    def rhs(x, y):
        _, e, g, dedx, dgdx = _params(float(x), cos_t)
        half_e = e * tau / 2
        cos_eps_sq = math.cos(y[0] * tau / 2) ** 2
        return [(2 / tau) * cos_eps_sq * dgdx * math.tan(half_e)
                + g * dedx * cos_eps_sq / math.cos(half_e) ** 2]

    return rhs


def _tangent_poles(cfg: SweepConfig) -> list[float]:
    """x locations in (0, x_f) where cos(e(x)·τ/2) = 0, in closed form.

    The poles are e = e_k = (2k+1)π/τ up to max e = max(e(0), e(x_f)); since
    e² = (x − cosθ)² + sin²θ, each gives x = cosθ ± √(cos²θ − 1 + e_k²).
    """
    tau = cfg.tau
    cos_t = math.cos(cfg.theta)
    e_max = max(1.0, _params(cfg.x_f, cos_t)[1])
    roots = []
    for k in range(math.floor((e_max * tau / math.pi - 1) / 2) + 1):
        disc = cos_t * cos_t - 1 + ((2 * k + 1) * math.pi / tau) ** 2
        if disc >= 0:
            roots += [cos_t - math.sqrt(disc), cos_t + math.sqrt(disc)]
    return sorted(x for x in roots if 0 < x < cfg.x_f)


def epsilon_sweep(cfg: SweepConfig) -> PhaseCurve:
    """Curve A: integrate dε/dx across [0, x_f] and form ρ(x) = (ε − d)τ/2.

    Grid points inside the pole margins take the oracle (epsilon_unwrap)
    value; everywhere else the adaptive ODE solution is used.
    """
    tau = cfg.tau
    xs = np.linspace(0.0, cfg.x_f, cfg.grid)
    eps = np.full(cfg.grid, np.nan)
    rhs = _epsilon_rhs(cfg)
    cos_t = math.cos(cfg.theta)

    segments = []
    lo = 0.0
    for pole in _tangent_poles(cfg):
        slope = abs(_params(pole, cos_t)[3]) * tau / 2
        margin = min(max(0.05 / max(slope, 1e-9), 1e-6), 0.05 * cfg.x_f)
        segments.append((lo, pole - margin))
        lo = pole + margin
    segments.append((lo, cfg.x_f))

    for a, b in segments:
        inside = (xs >= a) & (xs <= b)
        if b <= a or not np.any(inside):  # no grid point to fill
            continue
        seed = 1.0 if a == 0.0 else float(epsilon_unwrap(cfg, a))
        sol = solve_ivp(rhs, (a, b), [seed], method="RK45",
                        rtol=cfg.tol, atol=cfg.tol, dense_output=True)
        if not sol.success:
            raise RuntimeError(
                f"epsilon sweep failed on [{a}, {b}] at x = {sol.t[-1]}: {sol.message}")
        eps[inside] = sol.sol(xs[inside])[0]

    gaps = np.isnan(eps)
    if np.any(gaps):
        eps[gaps] = epsilon_unwrap(cfg, xs[gaps])

    d, _, _ = dimensionless_params(xs, cfg.theta)
    rho = (eps - d) * tau / 2
    return PhaseCurve(xs=xs, eps=eps, rho_exact=rho, labels=("A",))


def rho_first_iteration(x, theta, omega_t):
    """Curve B: small-x analytic correction
    ρ₁ = ωt·(¼ x sin²θ + ⅓ x² sin²θ cosθ)."""
    x = np.asarray(x, dtype=float)
    s2 = math.sin(theta) ** 2
    return omega_t * (FIRST_ITERATION_C1 * x * s2
                      + FIRST_ITERATION_C2 * x**2 * s2 * math.cos(theta))


def rho_berry_comparison(x, theta, omega_t):
    """Curve C: same functional form with the alternative coefficients ½ and 1."""
    x = np.asarray(x, dtype=float)
    s2 = math.sin(theta) ** 2
    return omega_t * (BERRY_COMPARISON_C1 * x * s2
                      + BERRY_COMPARISON_C2 * x**2 * s2 * math.cos(theta))


def first_iteration_epsilon(cfg: SweepConfig, xs, include_oscillatory_term: bool = False):
    """First iteration of the sweep ODE: ε₁(x) = 1 + ∫₀ˣ g·(de/dx′) dx′.

    With ``include_oscillatory_term`` the rapidly oscillating contribution
    (x_f/(2πs))·sin(2πs·e/x_f)·dg/dx′ is kept in the integrand; it shifts ε₁
    only negligibly for x ≪ 1, which is the point of exposing the flag.
    """
    xs = np.asarray(xs, dtype=float)
    fine = np.linspace(0.0, float(xs.max()), 8192)
    _, e, g, dedx, dgdx = _params(fine, math.cos(cfg.theta), np.sqrt)
    integrand = g * dedx
    if include_oscillatory_term:
        integrand = integrand + (cfg.x_f / (2 * math.pi * cfg.s)) * np.sin(
            2 * math.pi * cfg.s * e / cfg.x_f) * dgdx
    eps1 = 1.0 + cumulative_simpson(integrand, x=fine, initial=0.0)
    return np.interp(xs, fine, eps1)


def figure1_dataset(cfg: SweepConfig | None = None) -> PhaseCurve:
    """Aligned samples of curves A, B, C over [0, x_f].

    Defaults to the reference configuration θ = 60°, x_f = 0.3, s = 1.
    Curve B (and C) evaluate at ωt = x·τ: the evaluation time is pinned to
    τ = 2πs/x_f while the frequency varies, so all three curves share one axis.
    """
    if cfg is None:
        cfg = SweepConfig(theta=math.radians(60.0), x_f=0.3, s=1.0)
    curve = epsilon_sweep(cfg)
    omega_t = curve.xs * cfg.tau
    return PhaseCurve(
        xs=curve.xs,
        eps=curve.eps,
        rho_exact=curve.rho_exact,
        rho_first_iter=rho_first_iteration(curve.xs, cfg.theta, omega_t),
        rho_berry=rho_berry_comparison(curve.xs, cfg.theta, omega_t),
        labels=("A", "B", "C"),
    )


FIGURE1_HEADER = ["x", "rho_exact", "rho_first_iter", "rho_berry", "epsilon"]


def figure1_table(curve: PhaseCurve) -> np.ndarray:
    """Figure-1 CSV rows (columns per FIGURE1_HEADER), one row per grid point."""
    if curve.rho_first_iter is None or curve.rho_berry is None:
        raise ValueError("curve must carry all three labels; use figure1_dataset")
    return np.column_stack([
        curve.xs, curve.rho_exact, curve.rho_first_iter, curve.rho_berry, curve.eps,
    ])
