"""Non-adiabatic phase correction ρ as a function of drive strength x.

The phase of the persistence factor at fixed evaluation time τ = 2πs/x_f obeys
tan(ετ/2) = g·tan(eτ/2) with ρ(x) = (ε − d)τ/2 on the branch with ρ(0) = 0.
Two mutually validating routes compute ε(x):

* an ODE in x (dε/dx from differentiating the defining relation at fixed τ),
  marched from ε(0) = 1 by ``_march`` (RK45's algorithm on floats), the primary method; and
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
from operator import mul

import numpy as np

from .rotating import _dimensionless, dimensionless_params, phase_branch

FIRST_ITERATION_C1 = 0.25
FIRST_ITERATION_C2 = 1.0 / 3.0
BERRY_COMPARISON_C1 = 0.5
BERRY_COMPARISON_C2 = 1.0
MAX_POLES = 2**16  # tangent-pole orders a sweep may cross, e_max·s/x_f (README, "Command line")
MAX_GRID = 2**20  # grid points of a sweep (README, "Command line")


@dataclass(frozen=True)
class SweepConfig:
    """Frequency-sweep configuration; evaluation time is τ = 2πs/x_f."""

    theta: float
    x_f: float
    s: float = 1.0
    grid: int = 512
    tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.x_f < 1:
            raise ValueError(f"x_f must lie in (0, 1), got {self.x_f}")
        if not 2 <= self.grid <= MAX_GRID:
            raise ValueError(f"grid must lie in [2, {MAX_GRID}], got {self.grid}")
        if not 0 < self.s < math.inf:
            raise ValueError(f"cycle count s must be finite and positive, got {self.s}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        # dimensionless_params refuses a θ outside [0, π]
        if max(1.0, dimensionless_params(self.x_f, self.theta)[1]) * self.s / self.x_f > MAX_POLES:
            raise ValueError(f"s/x_f = {self.s / self.x_f:.4g}: over {MAX_POLES} tangent poles")

    @property
    def tau(self) -> float:
        return 2 * math.pi * self.s / self.x_f


@dataclass(frozen=True, eq=False)
class PhaseCurve:
    """ε(x) and the three ρ(x) curves of a frequency sweep on one x grid:
    A = exact sweep, B = analytic first-iteration approximation, C = comparison
    curve with the alternative small-x coefficients (1/2, 1).
    """

    xs: np.ndarray
    eps: np.ndarray
    rho_exact: np.ndarray
    rho_first_iter: np.ndarray
    rho_berry: np.ndarray


def _params(x, cos_t, e, g):
    """de/dx and dg/dx = (−cosθ − g·de/dx)/e at x, from e and g there (``dimensionless_params``)."""
    dedx = (x - cos_t) / e
    return dedx, (-cos_t - g * dedx) / e


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
    """dε/dx at fixed τ, from differentiating tan(ετ/2) = g·tan(eτ/2), as a float
    of the floats x and ε (plain ``math``, no arrays)."""
    tau = cfg.tau
    cos_t, params = math.cos(cfg.theta), _dimensionless(cfg.theta)

    def rhs(x, eps):
        _, e, g = params(x)
        dedx, dgdx = _params(x, cos_t, e, g)
        half_e = e * tau / 2
        cos_eps_sq = math.cos(eps * tau / 2) ** 2
        return ((2 / tau) * cos_eps_sq * dgdx * math.tan(half_e)
                + g * dedx * cos_eps_sq / math.cos(half_e) ** 2)

    return rhs


# Dormand–Prince 5(4) as in scipy's RK45 (Hairer, Nørsett & Wanner, Solving ODEs I, §II.4):
# stage nodes, stage rows (the last is the 5th-order weights), error weights, dense output.
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = ((1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_E = (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40)
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])


def _march(f, a, b, y0, tol, xs):
    """y(xs), xs sorted in [a, b], for y′ = f(x, y), y(a) = y0: scipy's RK45 at atol = tol and rtol =
    max(tol, 100 eps) on floats (its first step, step control, dense output, step per point)."""
    rtol, f0 = max(tol, 100 * math.ulp(1.0)), f(a, y0)  # scipy's rtol floor: no steps below rounding
    scale = tol + abs(y0) * rtol
    d0, d1 = abs(y0) / scale, abs(f0) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, b - a)
    d2 = abs(f(a + h0, y0 + h0 * f0) - f0) / scale / h0
    h_abs = min(100 * h0, max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
                else (0.01 / max(d1, d2)) ** 0.2, b - a)
    x, y, steps = a, y0, []
    while x < b:
        min_step = 10 * (math.nextafter(x, math.inf) - x)
        h_abs, rejected = max(h_abs, min_step), False
        while True:
            if not h_abs >= min_step:  # a NaN step size ends here too
                raise RuntimeError(f"epsilon sweep failed on [{a}, {b}] at x = {x}: step < 10 ulp")
            x_new = min(x + h_abs, b)
            h = h_abs = x_new - x
            k = [f0]
            for c, row in zip(_DP_C, _DP_A):
                y_new = y + h * sum(map(mul, row, k))
                k.append(f(x + c * h, y_new))
            err = abs(h * sum(map(mul, _DP_E, k)) / (tol + max(abs(y), abs(y_new)) * rtol))
            if err < 1:
                h_abs *= min(1 if rejected else 10, 0.9 * err ** -0.2 if err else 10)
                break
            h_abs, rejected = h_abs * max(0.2, 0.9 * err ** -0.2), True
        steps.append((x, x_new, y, *k))
        x, y, f0 = x_new, y_new, k[-1]
    steps = np.array(steps)
    s = steps[np.minimum(np.searchsorted(steps[:, 1], xs, "left"), len(steps) - 1)]
    h, q = s[:, 1] - s[:, 0], (s[:, 3:] @ _DP_P).T
    u = (xs - s[:, 0]) / h
    return s[:, 2] + h * (u * (q[0] + u * (q[1] + u * (q[2] + u * q[3]))))


def _tangent_poles(cfg: SweepConfig) -> list[float]:
    """x locations in (0, x_f) where cos(e(x)·τ/2) = 0, in closed form.

    The poles are e = e_k = (2k+1)π/τ up to max e = max(e(0), e(x_f)); since
    e² = (x − cosθ)² + sin²θ, each gives x = cosθ ± √(cos²θ − 1 + e_k²).
    """
    tau = cfg.tau
    cos_t = math.cos(cfg.theta)
    e_max = max(1.0, dimensionless_params(cfg.x_f, cfg.theta)[1])
    roots = []
    for k in range(math.floor((e_max * tau / math.pi - 1) / 2) + 1):
        disc = cos_t * cos_t - 1 + ((2 * k + 1) * math.pi / tau) ** 2
        if disc >= 0:
            roots += [cos_t - math.sqrt(disc), cos_t + math.sqrt(disc)]
    return sorted(x for x in roots if 0 < x < cfg.x_f)


def figure1_dataset(cfg: SweepConfig | None = None) -> PhaseCurve:
    """Curves A, B and C over [0, x_f], by default at θ = 60°, x_f = 0.3, s = 1.

    A integrates dε/dx across [0, x_f] into ρ(x) = (ε − d)τ/2, taking the oracle
    (epsilon_unwrap) inside the pole margins. B and C evaluate at ωt = x·τ: τ = 2πs/x_f
    is pinned while the frequency varies, so all three curves share one axis.
    """
    if cfg is None:
        cfg = SweepConfig(theta=math.radians(60.0), x_f=0.3, s=1.0)
    tau = cfg.tau
    xs = np.linspace(0.0, cfg.x_f, cfg.grid)
    eps = np.full(cfg.grid, np.nan)
    rhs = _epsilon_rhs(cfg)
    cos_t = math.cos(cfg.theta)

    segments = []
    lo = 0.0
    for pole in _tangent_poles(cfg):
        _, e, g = dimensionless_params(pole, cfg.theta)
        slope = abs(_params(pole, cos_t, e, g)[0]) * tau / 2
        margin = min(max(0.05 / max(slope, 1e-9), 1e-6), 0.05 * cfg.x_f)
        segments.append((lo, pole - margin))
        lo = pole + margin
    segments.append((lo, cfg.x_f))

    starts = np.array([a for a, _ in segments])
    seeds = np.where(starts == 0.0, 1.0, epsilon_unwrap(cfg, starts)).tolist()
    for (a, b), seed in zip(segments, seeds):
        i, j = np.searchsorted(xs, a, "left"), np.searchsorted(xs, b, "right")
        if b <= a or i >= j:  # no grid point to fill
            continue
        eps[i:j] = _march(rhs, a, b, seed, cfg.tol, xs[i:j])

    gaps = np.isnan(eps)
    if np.any(gaps):
        eps[gaps] = epsilon_unwrap(cfg, xs[gaps])

    d, _, _ = dimensionless_params(xs, cfg.theta)
    return PhaseCurve(xs=xs, eps=eps, rho_exact=(eps - d) * tau / 2,
                      rho_first_iter=rho_first_iteration(xs, cfg.theta, xs * tau),
                      rho_berry=rho_berry_comparison(xs, cfg.theta, xs * tau))


def _rho_series(x, theta, omega_t, c1, c2):
    """ρ = ωt·(c₁ x sin²θ + c₂ x² sin²θ cosθ), the form of curves B and C."""
    x = np.asarray(x, dtype=float)
    s2 = math.sin(theta) ** 2
    return omega_t * (c1 * x * s2 + c2 * x**2 * s2 * math.cos(theta))


def rho_first_iteration(x, theta, omega_t):
    """Curve B: small-x analytic correction ρ₁ = ωt·(¼ x sin²θ + ⅓ x² sin²θ cosθ)."""
    return _rho_series(x, theta, omega_t, FIRST_ITERATION_C1, FIRST_ITERATION_C2)


def rho_berry_comparison(x, theta, omega_t):
    """Curve C: same functional form with the alternative coefficients ½ and 1."""
    return _rho_series(x, theta, omega_t, BERRY_COMPARISON_C1, BERRY_COMPARISON_C2)


def first_iteration_epsilon(cfg: SweepConfig, xs):
    """First iteration of the sweep ODE, ε₁(x) = 1 + ∫₀ˣ g·(de/dx′) dx′, in closed form:
    with c = cosθ, s = sinθ ≥ 0 and u = x′ − c the integrand is −c + s²u/(u² + s²) + cs²/(u² + s²),
    so ε₁ = 1 − cx + s²·ln e(x) + cs·[atan2(x − c, s) + atan2(c, s)], a function of c alone.
    """
    xs = np.asarray(xs, dtype=float)
    c, s = math.cos(cfg.theta), math.sin(cfg.theta)
    e = dimensionless_params(xs, cfg.theta)[1]
    return 1 - c * xs + s**2 * np.log(e) + c * s * (np.arctan2(xs - c, s) + np.arctan2(c, s))


FIGURE1_HEADER = ["x", "rho_exact", "rho_first_iter", "rho_berry", "epsilon"]


def figure1_table(curve: PhaseCurve) -> np.ndarray:
    """Figure-1 CSV rows (columns per FIGURE1_HEADER), one row per grid point."""
    return np.column_stack([
        curve.xs, curve.rho_exact, curve.rho_first_iter, curve.rho_berry, curve.eps,
    ])
