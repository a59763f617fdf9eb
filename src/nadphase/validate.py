"""Cross-oracle validation suite.

Every numerical path in the package is checked against an independent route:
the adaptive engine against the rotating-frame closed form, the frequency
sweep against the branch-tracked arctangent, the sliced-propagator product
and the truncated transition series against the engine, analytic couplings
against finite differences, and the magnetization assembly against a direct
expectation value. The result is a machine-readable report

    {"checks": [{"name", "max_error", "tolerance", "pass"}, ...], "pass": bool}

that is byte-identical across repeated runs with the same configuration.
"""

from __future__ import annotations

import math

import numpy as np

from . import engine, nmr, rotating, sweep
from .paths import PrecessingPath, SampledPath, coupling_at, instantaneous_eigensystem, make_kernel

GRID_X = (0.05, 0.1, 0.2, 0.3, 0.5)
GRID_THETA_DEG = (30.0, 60.0, 90.0, 120.0)
GRID_CYCLES = 3

# Reference endpoint values at (x = 0.3, theta = 60 deg, s = 1, tau = 2*pi/0.3),
# frozen from a 50-digit evaluation of the closed forms.
ENDPOINT_TARGETS = {
    "re_s": (0.91595, 1e-4),
    "im_s": (0.39984, 1e-4),
    "rho": (0.41162, 1e-4),
    "t_minus_mag": (0.03417, 1e-4),
    "epsilon": (0.889307, 1e-5),
}


def _check(name: str, max_error: float, tolerance: float) -> dict:
    max_error = float(max_error)
    return {
        "name": name,
        "max_error": float(f"{max_error:.12g}"),
        "tolerance": tolerance,
        "pass": bool(max_error <= tolerance),
    }


def _criterion_runs(tol: float):
    for x in GRID_X:
        for theta_deg in GRID_THETA_DEG:
            theta = math.radians(theta_deg)
            path = PrecessingPath.dimensionless(x, theta)
            t_end = GRID_CYCLES * 2 * math.pi / x
            traj = engine.evolve(make_kernel(path), t_end, tol=tol)
            yield x, theta, path, traj


def check_engine_vs_rotating_frame(tol: float) -> list[dict]:
    """Engine S against the exact rotating-frame S, plus unitarity, on the
    reference grid of drives and angles over three precession cycles."""
    err_S = 0.0
    defect = 0.0
    for x, theta, _, traj in _criterion_runs(tol):
        ts = traj.ts
        mids = 0.5 * (ts[:-1] + ts[1:])
        samples = np.sort(np.concatenate([ts, mids]))
        S_num, I_num = traj.amplitudes(samples)
        err_S = max(err_S, float(np.max(np.abs(S_num - rotating.exact_S(x, theta, samples)))))
        defect = max(defect, float(np.max(engine._defect(S_num, I_num))))
    return [
        _check("engine_vs_rotating_frame_S", err_S, 1e-8),
        _check("unitarity_defect", defect, 1e-9),
    ]


def check_endpoint_values(tol: float) -> list[dict]:
    """Derived endpoint values at x = 0.3, theta = 60 deg, one cycle."""
    theta = math.radians(60.0)
    x = 0.3
    tau = 2 * math.pi / x
    path = PrecessingPath.dimensionless(x, theta)
    traj = engine.evolve(make_kernel(path), tau, tol=tol)
    S, I = traj.amplitudes(tau)
    result = engine.assemble(traj, path, tau)
    cfg = sweep.SweepConfig(theta=theta, x_f=0.3, s=1.0, tol=tol)
    eps_end = sweep.epsilon_sweep(cfg).eps[-1]
    computed = {
        "re_s": float(np.real(S)),
        "im_s": float(np.imag(S)),
        "rho": result.rho,
        "t_minus_mag": abs(result.T_minus),
        "epsilon": float(eps_end),
    }
    return [
        _check(f"endpoint_{key}", abs(computed[key] - target), tolerance)
        for key, (target, tolerance) in ENDPOINT_TARGETS.items()
    ]


def check_figure1(tol: float) -> list[dict]:
    """Shape of the reference sweep: branch origin, monotonicity, gap to the
    first-iteration curve, and the small-x ratio of the comparison curves.

    ``figure1_first_iter_gap`` measures the verbatim 5% cap on |A − B|/A,
    which the first iteration cannot meet: curve A carries the bounded
    tangent-branch ripple T of ρ = (e − d)τ/2 + T, and T alone reaches 5.2%
    of A near x = 0.09 (measured gap 6.4%). B against the smooth part A − T
    is within the cap; the acceptance suite asserts that form instead.
    """
    cfg = sweep.SweepConfig(theta=math.radians(60.0), x_f=0.3, s=1.0, tol=tol)
    curve = sweep.figure1_dataset(cfg)
    rho_a = curve.rho_exact
    checks = [_check("figure1_rho_at_zero", abs(rho_a[0]), 1e-12)]
    checks.append(_check("figure1_monotone", max(0.0, -float(np.min(np.diff(rho_a)))), 0.0))
    window = curve.xs >= 0.05
    gap = np.max(np.abs(rho_a[window] - curve.rho_first_iter[window]) / rho_a[window])
    checks.append(_check("figure1_first_iter_gap", gap, 0.05))
    ratio = curve.rho_berry[1] / curve.rho_first_iter[1]
    checks.append(_check("figure1_berry_ratio", abs(ratio - 2.0), 0.1))
    return checks


def check_sliced_propagator(tol: float) -> list[dict]:
    """First-order product convergence toward the engine P- at rate 1/n."""
    x, theta = 0.3, math.radians(60.0)
    path = PrecessingPath.dimensionless(x, theta)
    t_end = 2 * math.pi / x
    traj = engine.evolve(make_kernel(path), t_end, tol=tol)
    P_engine = engine.assemble(traj, path, t_end).P_minus
    ns = np.array([10**3, 10**4, 10**5])
    errs = np.array([abs(engine.sliced_propagator(path, t_end, int(n)).P_minus - P_engine)
                     for n in ns])
    order = -np.polyfit(np.log(ns), np.log(errs), 1)[0]
    return [
        _check("sliced_convergence_order", abs(order - 1.0), 0.2),
        _check("sliced_final_error", errs[-1], 1e-3),
    ]


def check_series(tol: float) -> list[dict]:
    """Truncated transition series against the engine on short windows."""
    x, theta = 0.3, math.radians(60.0)
    path = PrecessingPath.dimensionless(x, theta)
    kernel = make_kernel(path)
    errs = {1: 0.0, 2: 0.0}
    for t in (0.5, 1.0):
        traj = engine.evolve(kernel, t, tol=tol)
        S_engine, _ = traj.amplitudes(t)
        for order in (1, 2):
            est = engine.series_persistence(kernel, t, order)
            errs[order] = max(errs[order], abs(est - complex(S_engine)))
    return [
        _check("series_order1", errs[1], 1e-4),
        _check("series_order2", errs[2], 1e-5),
    ]


def check_adiabatic_limit(tol: float) -> list[dict]:
    """Small-x scaling of rho on a sweep whose fit window ends at x_f = 0.05."""
    theta = math.radians(60.0)
    cfg = sweep.SweepConfig(theta=theta, x_f=0.05, s=1.0, tol=tol)
    curve = sweep.epsilon_sweep(cfg)
    mask = curve.xs >= 0.01 - 1e-12
    xs = curve.xs[mask]
    rho = curve.rho_exact[mask]
    exponent = np.polyfit(np.log(xs), np.log(rho), 1)[0]
    target = cfg.tau * math.sin(theta) ** 2 / 4
    prefactor_err = abs(rho[0] / xs[0] ** 2 / target - 1.0)
    return [
        _check("adiabatic_exponent", abs(exponent - 2.0), 0.1),
        _check("adiabatic_prefactor", prefactor_err, 0.02),
    ]


def check_nmr(tol: float) -> list[dict]:
    """Magnetization assembly vs direct expectation; phase-argument closeness
    of the weak-drive approximation and its measured convergence order.

    ``nmr_arg_order`` measures the verbatim O(x³) target, which the first
    iteration cannot meet: the gap is 2(ρ − ρ₁), and ρ₁ has ⅓ where the
    exact phase has ¼ at order x², so the gap is −(π/3)·n·x²·sin²θ·cosθ
    + O(x³) (measured order 1.4). The acceptance suite asserts that leading
    term instead.
    """
    err = 0.0
    for x in GRID_X:
        for theta_deg in GRID_THETA_DEG:
            theta = math.radians(theta_deg)
            for n in (1, 2, 3):
                point = nmr.transverse_magnetization_exact(x, theta, n)
                err = max(err, abs(point.M_perp - nmr.direct_expectation(x, theta, n)))
    theta60 = math.radians(60.0)
    gap_point = nmr.transverse_magnetization_exact(0.1, theta60, 1)
    gap = abs(gap_point.arg_exact - gap_point.arg_approx)
    xs = np.array([0.05, 0.1, 0.2])
    gaps = np.array([
        abs(p.arg_exact - p.arg_approx)
        for p in (nmr.transverse_magnetization_exact(xv, theta60, 1) for xv in xs)
    ])
    order = np.polyfit(np.log(xs), np.log(gaps), 1)[0]
    return [
        _check("nmr_expectation_equality", err, 1e-8),
        _check("nmr_arg_gap", gap, 0.05),
        _check("nmr_arg_order", max(0.0, 2.5 - order), 0.0),
    ]


def check_sweep_vs_unwrap(tol: float) -> list[dict]:
    """ODE sweep against the branch-tracked arctangent oracle, including a
    configuration whose range crosses a tangent pole (s = 3)."""
    err = 0.0
    for s in (1.0, 3.0):
        cfg = sweep.SweepConfig(theta=math.radians(60.0), x_f=0.3, s=s, tol=tol)
        curve = sweep.epsilon_sweep(cfg)
        err = max(err, float(np.max(np.abs(curve.eps - sweep.epsilon_unwrap(cfg, curve.xs)))))
    return [_check("sweep_vs_unwrap", err, 1e-6)]


def check_coupling_finite_difference(tol: float) -> list[dict]:
    """Analytic couplings against central differences of the gauge-fixed
    eigenvectors along a sampled path."""
    ts = np.linspace(0.0, 3.0, 601)
    path = SampledPath(ts, np.pi / 2 + 0.1 * np.sin(ts), ts.copy(), np.ones_like(ts))
    h = 1e-5
    err = 0.0
    for t in (0.5, 1.0, 1.5, 2.0, 2.5):
        frame = coupling_at(path, t)

        def vecs(u):
            th, ph = path.angles(u)
            _, _, vp, vm = instantaneous_eigensystem(th, ph)
            return vp, vm

        vp_p, vm_p = vecs(t + h)
        vp_m, vm_m = vecs(t - h)
        dvm = (vm_p - vm_m) / (2 * h)
        dvp = (vp_p - vp_m) / (2 * h)
        gamma_fd_minus = -np.imag(frame.v_minus.conj() @ dvm)
        gamma_fd_plus = -np.imag(frame.v_plus.conj() @ dvp)
        Gamma_fd = frame.v_plus.conj() @ dvm
        err = max(err,
                  abs(Gamma_fd - frame.Gamma_minus),
                  abs(gamma_fd_minus - frame.gamma_rate_minus),
                  abs(gamma_fd_plus - frame.gamma_rate_plus))
    return [_check("coupling_finite_difference", err, 1e-6)]


def check_reconstruction(tol: float) -> list[dict]:
    """Assembled P- against the closed-form rotating-frame P-."""
    x, theta = 0.3, math.radians(60.0)
    path = PrecessingPath.dimensionless(x, theta)
    t_end = GRID_CYCLES * 2 * math.pi / x
    traj = engine.evolve(make_kernel(path), t_end, tol=tol)
    sol = rotating.solve_rotating_frame(x, theta)
    err = 0.0
    for t in np.linspace(0.0, t_end, 61):
        P_eng = engine.assemble(traj, path, t).P_minus
        P_exact = np.exp(-0.5j * x * t) * (
            sol.a_plus**2 * np.exp(-0.5j * sol.Omega0 * t)
            + sol.a_minus**2 * np.exp(+0.5j * sol.Omega0 * t))
        err = max(err, abs(P_eng - P_exact))
    return [_check("reconstruction_p_minus", err, 1e-8)]


def check_exact_s_code_paths(tol: float) -> list[dict]:
    """The transition-integral route and the rotating-frame route to S are the
    same expression; code-path equality at machine precision."""
    err = 0.0
    for x in GRID_X:
        for theta_deg in GRID_THETA_DEG:
            theta = math.radians(theta_deg)
            for tau in np.linspace(0.0, 3 * 2 * math.pi / x, 40):
                err = max(err, abs(engine.closed_form_S(x, theta, tau)
                                   - rotating.exact_S(x, theta, tau)))
    return [_check("exact_s_code_paths", err, 1e-15)]


def check_nogeo_gap(tol: float) -> list[dict]:
    """Size of the fixed-phase transition-amplitude convention against the
    true transition phase; bounded by twice the transition envelope."""
    gap = 0.0
    bound = 0.0
    for x in GRID_X:
        for theta_deg in GRID_THETA_DEG:
            theta = math.radians(theta_deg)
            for n in (1, 2, 3):
                tau = 2 * math.pi * n / x
                _, _, T_conv, _ = nmr.closed_form_amplitudes(x, theta, tau)
                _, _, T_exact, _ = nmr.exact_amplitudes(x, theta, tau)
                gap = max(gap, abs(T_conv - T_exact))
                _, e, _ = sweep.dimensionless_params(x, theta)
                bound = max(bound, 2 * x * math.sin(theta) / e)
    return [_check("nogeo_transition_phase_gap", gap, float(f"{bound:.12g}"))]


def check_rho_cross_module(tol: float) -> list[dict]:
    """rho from the sweep, from the engine, and from the unwrapped exact S all
    agree at the fixed evaluation time of the reference sweep."""
    theta = math.radians(60.0)
    cfg = sweep.SweepConfig(theta=theta, x_f=0.3, s=1.0, tol=tol)
    curve = sweep.epsilon_sweep(cfg)
    err = 0.0
    for x in (0.1, 0.2, 0.3):
        idx = int(np.argmin(np.abs(curve.xs - x)))
        xv = float(curve.xs[idx])
        rho_sweep = float(curve.rho_exact[idx])
        path = PrecessingPath.dimensionless(xv, theta)
        traj = engine.evolve(make_kernel(path), cfg.tau, tol=tol)
        rho_engine = float(traj.rho(cfg.tau))
        rho_exact = rotating.exact_rho(xv, theta, cfg.tau)
        err = max(err, abs(rho_sweep - rho_engine), abs(rho_engine - rho_exact),
                  abs(rho_sweep - rho_exact))
    return [_check("rho_cross_module", err, 1e-6)]


ALL_CHECKS = (
    check_engine_vs_rotating_frame,
    check_endpoint_values,
    check_figure1,
    check_sliced_propagator,
    check_series,
    check_adiabatic_limit,
    check_nmr,
    check_sweep_vs_unwrap,
    check_coupling_finite_difference,
    check_reconstruction,
    check_exact_s_code_paths,
    check_nogeo_gap,
    check_rho_cross_module,
)


def run_validation(tol: float = 1e-10) -> dict:
    """Run every check and return the report dictionary."""
    checks = []
    for fn in ALL_CHECKS:
        checks.extend(fn(tol))
    return {"checks": checks, "pass": all(c["pass"] for c in checks)}
