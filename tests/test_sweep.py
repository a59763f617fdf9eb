import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from nadphase import sweep
from nadphase.sweep import (
    MAX_POLES,
    PhaseCurve,
    SweepConfig,
    _march,
    _tangent_poles,
    dimensionless_params,
    epsilon_unwrap,
    figure1_dataset,
    figure1_table,
    first_iteration_epsilon,
    rho_berry_comparison,
    rho_first_iteration,
)

THETA60 = math.radians(60.0)
FIG1 = SweepConfig(theta=THETA60, x_f=0.3, s=1.0)
EPS_REF = 0.88930358976588367
RHO_REF = 0.41158622956069042


class TestDimensionlessParams:
    def test_static(self):
        assert dimensionless_params(0.0, 1.234) == (1.0, 1.0, 1.0)

    def test_reference(self):
        d, e, g = dimensionless_params(0.3, THETA60)
        assert d == pytest.approx(0.85, abs=1e-15)
        assert e == pytest.approx(0.88881944173155889, abs=1e-14)
        assert g == pytest.approx(0.95632471578712032, abs=1e-14)

    def test_equator_half(self):
        d, e, g = dimensionless_params(0.5, math.pi / 2)
        assert d == pytest.approx(1.0, abs=1e-15)
        assert e == pytest.approx(1.1180339887498949, abs=1e-14)
        assert g == pytest.approx(0.89442719099991588, abs=1e-14)

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            dimensionless_params(1.0, 0.0)


class TestEpsilonUnwrap:
    def test_origin(self):
        assert epsilon_unwrap(FIG1, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_reference_point(self):
        assert abs(epsilon_unwrap(FIG1, 0.3) - EPS_REF) <= 1e-12

    def test_defining_relation(self):
        xs = np.linspace(0.0, 0.3, 200)
        eps = epsilon_unwrap(FIG1, xs)
        _, e, g = dimensionless_params(xs, THETA60)
        tau = FIG1.tau
        # avoid near-singular tangents when checking the defining relation
        safe = (np.abs(np.cos(eps * tau / 2)) > 0.1) & (np.abs(np.cos(e * tau / 2)) > 0.1)
        resid = np.tan(eps[safe] * tau / 2) - g[safe] * np.tan(e[safe] * tau / 2)
        assert np.max(np.abs(resid)) <= 1e-10


class TestEpsilonSweep:
    def test_curve_endpoints(self):
        curve = figure1_dataset(FIG1)
        assert curve.eps[0] == pytest.approx(1.0, abs=1e-12)
        assert curve.rho_exact[0] == pytest.approx(0.0, abs=1e-12)
        assert abs(curve.eps[-1] - EPS_REF) <= 1e-8
        assert abs(curve.rho_exact[-1] - RHO_REF) <= 1e-7

    def test_matches_unwrap_oracle(self):
        curve = figure1_dataset(FIG1)
        assert np.max(np.abs(curve.eps - epsilon_unwrap(FIG1, curve.xs))) <= 1e-6

    def test_matches_unwrap_across_tangent_pole(self):
        cfg = SweepConfig(theta=THETA60, x_f=0.3, s=3.0)
        curve = figure1_dataset(cfg)
        assert np.max(np.abs(curve.eps - epsilon_unwrap(cfg, curve.xs))) <= 1e-6

    def test_more_poles_than_grid_points(self):
        # most segments between poles hold no grid point and need no ODE run
        cfg = SweepConfig(theta=math.radians(30.0), x_f=0.9, s=60.0, grid=8)
        assert len(_tangent_poles(cfg)) > cfg.grid
        curve = figure1_dataset(cfg)
        assert np.max(np.abs(curve.eps - epsilon_unwrap(cfg, curve.xs))) <= 1e-6

    def test_epsilon_envelope(self):
        curve = figure1_dataset(FIG1)
        _, e, g = dimensionless_params(curve.xs, THETA60)
        assert np.all(np.abs(curve.eps - e) <= (1 - g) * e + 1e-12)

    def test_branch_sanity(self):
        curve = figure1_dataset(FIG1)
        half = curve.eps * FIG1.tau / 2
        assert np.max(np.abs(np.diff(half))) < math.pi / 2

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(theta=1.0, x_f=1.5, s=1.0)
        with pytest.raises(ValueError):
            SweepConfig(theta=1.0, x_f=0.3, s=1.0, grid=1)
        with pytest.raises(ValueError):
            SweepConfig(theta=1.0, x_f=0.3, s=-1.0)
        for bad in ({"theta": math.nan}, {"x_f": math.nan}, {"s": math.nan},
                    {"s": math.inf}, {"tol": math.nan}):
            with pytest.raises(ValueError):
                SweepConfig(**{"theta": 1.0, "x_f": 0.3, **bad})

    @pytest.mark.parametrize("theta_deg", [200.0, 300.0, -60.0, 420.0, -1e-9, math.inf])
    def test_theta_outside_0_pi_is_refused(self, theta_deg):
        with pytest.raises(ValueError, match=r"theta must lie in \[0, pi\]"):
            SweepConfig(theta=math.radians(theta_deg), x_f=0.3)

    def test_pole_count_is_bounded(self):
        # e_max·s/x_f counts the tangent-pole orders; e ≤ e(0) = 1 on [0, 1] at θ = 60°
        SweepConfig(theta=THETA60, x_f=0.5, s=0.5 * MAX_POLES - 1)
        for bad in ({"s": 0.5 * MAX_POLES + 1}, {"s": 1e300}, {"x_f": 1e-300}):
            with pytest.raises(ValueError, match="tangent poles"):
                SweepConfig(**{"theta": THETA60, "x_f": 0.5, "s": 1.0, **bad})


def _solve_ivp_march(f, a, b, y0, tol, xs):
    """Oracle for ``_march``: scipy's RK45 on the same segment, read from its dense output."""
    sol = solve_ivp(lambda x, y: [f(x, y[0])], (a, b), [y0], method="RK45",
                    rtol=tol, atol=tol, dense_output=True)
    assert sol.success, sol.message
    return sol.sol(xs)[0]


# the start-pole input of perfbench's strict xfail: a tangent pole lies just below x = 0
START_POLE = SweepConfig(theta=math.radians(34.44635007188134), x_f=0.3478737918937335,
                         s=4.0, grid=512)


class TestMarch:
    """``_march`` is scipy's RK45 on floats: same steps, same dense output."""

    @pytest.mark.parametrize("cfg", [
        FIG1, SweepConfig(theta=THETA60, x_f=0.3, s=3.0),
        SweepConfig(theta=math.radians(120.0), x_f=0.3, s=1.0),
        SweepConfig(theta=THETA60, x_f=0.05, s=10.0),
    ], ids=["60deg-s1", "60deg-s3", "120deg-s1", "60deg-s10-xf0.05"])
    def test_matches_solve_ivp_on_every_segment(self, cfg, monkeypatch):
        eps = figure1_dataset(cfg).eps
        monkeypatch.setattr(sweep, "_march", _solve_ivp_march)
        assert np.max(np.abs(eps - figure1_dataset(cfg).eps)) <= 1e-12

    def test_start_pole_input_misses_the_oracle_as_solve_ivp_does(self, monkeypatch):
        # The segment from x = 0 starts next to a pole, where dε/dx is steep in ε. Step
        # sizes follow the error estimate, a sum that cancels to about 1e-6 of its largest
        # term, so its last bits depend on the order of summation (numpy's dot against a
        # Python sum), and this ODE carries that to 3.2e-12 in ε, not 1e-12. Both
        # integrators still miss the oracle by the same 5.37e-6, above the benchmark's
        # 1e-6: the defect lives in the pole search, not in the stepper.
        eps = figure1_dataset(START_POLE).eps
        monkeypatch.setattr(sweep, "_march", _solve_ivp_march)
        ref = figure1_dataset(START_POLE).eps
        assert np.max(np.abs(eps - ref)) <= 1e-11
        oracle = epsilon_unwrap(START_POLE, np.linspace(0.0, START_POLE.x_f, START_POLE.grid))
        assert 5e-6 < np.max(np.abs(eps - oracle)) < 6e-6

    def test_grid_points_at_the_sweep_ends_are_marched(self, monkeypatch):
        # x = 0 and x = x_f close the first and the last segment; neither falls back
        marched = []
        monkeypatch.setattr(sweep, "_march",
                            lambda *args: marched.append(args[-1]) or _march(*args))
        cfg = SweepConfig(theta=THETA60, x_f=0.3, s=3.0)
        figure1_dataset(cfg)
        assert len(marched) > 1 and marched[0][0] == 0.0 and marched[-1][-1] == cfg.x_f

    @pytest.mark.parametrize("f, exact", [
        (lambda x, y: y, math.exp),
        (lambda x, y: math.cos(x), math.sin),
    ], ids=["exp", "sin"])
    def test_error_on_known_solutions(self, f, exact):
        y0 = exact(0.0)
        xs = np.linspace(0.0, 2.0, 101)
        ys = _march(f, 0.0, 2.0, y0, 1e-10, xs)
        assert np.max(np.abs(ys - np.vectorize(exact)(xs))) <= 1e-8
        assert ys[0] == y0  # a point at a reads the first step at u = 0
        # a point at b reads the last step at u = 1: the value the step ended on
        ref = solve_ivp(lambda x, y: [f(x, y[0])], (0.0, 2.0), [y0], rtol=1e-10, atol=1e-10)
        assert ys[-1] == pytest.approx(ref.y[0, -1], rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("tol", [1e-20, 1e-300])
    def test_a_tolerance_below_rounding_is_floored_as_scipy_floors_it(self, tol, monkeypatch):
        # scipy raises rtol to 100 eps. Without that floor the rounding error of a step's
        # error estimate alone exceeds the tolerance, and the march either creeps on in
        # steps of a few ulp (from x = 0) or raises (elsewhere).
        cfg = SweepConfig(theta=THETA60, x_f=0.3, s=3.0, tol=tol)
        eps = figure1_dataset(cfg).eps
        monkeypatch.setattr(sweep, "_march", _solve_ivp_march)
        with pytest.warns(UserWarning, match="rtol"):
            ref = figure1_dataset(cfg).eps
        assert np.max(np.abs(eps - ref)) <= 1e-12

    def test_a_tolerance_below_rounding_ends_in_a_few_hundred_steps(self):
        calls = []
        xs = np.linspace(1.0, 3.0, 11)
        ys = _march(lambda x, y: calls.append(x) or y, 1.0, 3.0, math.e, 1e-300, xs)
        assert len(calls) < 2000
        with pytest.warns(UserWarning, match="rtol"):
            ref = _solve_ivp_march(lambda x, y: y, 1.0, 3.0, math.e, 1e-300, xs)
        assert np.max(np.abs(ys - ref)) <= 1e-12
        assert np.max(np.abs(ys - np.exp(xs))) <= 1e-12

    @pytest.mark.parametrize("f", [
        lambda x, y: math.nan,
        lambda x, y: y if x < 0.5 else math.nan,
        lambda x, y: y if x < 0.5 else math.inf,
    ], ids=["nan-from-the-start", "nan-from-x=0.5", "inf-from-x=0.5"])
    def test_a_non_finite_slope_ends_in_runtime_error(self, f):
        with pytest.raises(RuntimeError, match=r"epsilon sweep failed on \[0.0, 1.0\] at x = "):
            _march(f, 0.0, 1.0, 1.0, 1e-10, np.linspace(0.0, 1.0, 5))


def _probed_poles(cfg, n):
    """Oracle: sign changes of cos(e·τ/2) on n probe points, refined by brentq."""

    def f(x):
        _, e, _ = dimensionless_params(x, cfg.theta)
        return math.cos(e * cfg.tau / 2)

    probe = np.linspace(0.0, cfg.x_f, n)
    _, e, _ = dimensionless_params(probe, cfg.theta)
    vals = np.cos(e * cfg.tau / 2)
    return [brentq(f, probe[i], probe[i + 1], xtol=1e-14)
            for i in np.where(np.diff(np.sign(vals)) != 0)[0]]


# the last configuration puts a pole pair 5.5e-4 apart around the minimum of e
# at x = cosθ, inside one interval of a 1520-point probe of [0, 0.9]
_NEAR_TANGENT_C = 843.5 * 0.9 / 1519
_NEAR_TANGENT_S = 21 * 0.9 / (2 * math.sqrt(1 - _NEAR_TANGENT_C**2) * (1 + 5e-8))


class TestTangentPoles:
    @pytest.mark.parametrize("theta, x_f, s", [
        (THETA60, 0.3, 1.0), (THETA60, 0.3, 3.0), (math.radians(30.0), 0.8, 7.5),
        (math.radians(100.0), 0.95, 12.0), (math.radians(60.0), 0.9, 20.3),
        (math.acos(_NEAR_TANGENT_C), 0.9, _NEAR_TANGENT_S),
    ])
    def test_matches_probe_and_brentq(self, theta, x_f, s):
        cfg = SweepConfig(theta=theta, x_f=x_f, s=s)
        poles = _tangent_poles(cfg)
        oracle = _probed_poles(cfg, 400_001)
        assert len(poles) == len(oracle)
        assert np.max(np.abs(np.subtract(poles, oracle)), initial=0.0) <= 1e-12

    def test_near_tangent_pair_inside_one_coarse_interval(self):
        cfg = SweepConfig(theta=math.acos(_NEAR_TANGENT_C), x_f=0.9, s=_NEAR_TANGENT_S)
        coarse = np.linspace(0.0, cfg.x_f, max(1000, 20 * int(cfg.tau)))
        pair = [p for p in _tangent_poles(cfg) if abs(p - _NEAR_TANGENT_C) < 1e-3]
        assert len(pair) == 2
        assert np.searchsorted(coarse, pair[0]) == np.searchsorted(coarse, pair[1])


class TestAnalyticCurves:
    def test_first_iteration_zero(self):
        assert rho_first_iteration(0.0, THETA60, 2 * math.pi) == 0.0

    def test_first_iteration_reference(self):
        val = rho_first_iteration(0.3, THETA60, 2 * math.pi)
        assert val == pytest.approx(0.42411500823462209, abs=1e-12)

    def test_first_iteration_equator(self):
        val = rho_first_iteration(0.1, math.pi / 2, 2 * math.pi)
        assert val == pytest.approx(0.15707963267948966, abs=1e-12)

    def test_berry_comparison_reference(self):
        val = rho_berry_comparison(0.3, THETA60, 2 * math.pi)
        assert val == pytest.approx(0.91891585117501452, abs=1e-12)

    def test_leading_ratio(self):
        x = 1e-6
        ratio = rho_berry_comparison(x, THETA60, 1.0) / rho_first_iteration(x, THETA60, 1.0)
        assert ratio == pytest.approx(2.0, abs=1e-5)


class TestFirstIterationEpsilon:
    def test_matches_small_x_series(self):
        xs = np.array([0.05, 0.1])
        eps1 = first_iteration_epsilon(FIG1, xs)
        c, s2 = math.cos(THETA60), math.sin(THETA60) ** 2
        series = 1 - xs * c + xs**2 * s2 / 2 + 2 * xs**3 * s2 * c / 3
        assert np.max(np.abs(eps1 - series)) <= 5e-5

    def test_consistent_with_analytic_curve(self):
        # (eps1 - d) tau/2 reproduces the closed-form curve B through x^3
        xs = np.array([0.05, 0.1])
        eps1 = first_iteration_epsilon(FIG1, xs)
        d, _, _ = dimensionless_params(xs, THETA60)
        rho_b = rho_first_iteration(xs, THETA60, xs * FIG1.tau)
        assert np.max(np.abs((eps1 - d) * FIG1.tau / 2 - rho_b)) <= 1e-3

    @pytest.mark.parametrize("theta_deg", [0.0, 10.0, 60.0, 90.0, 120.0, 170.0, 180.0])
    def test_matches_quadrature(self, theta_deg):
        # quad of g·de/dx, at both poles and between them
        theta = math.radians(theta_deg)
        xs = np.linspace(0.0, 0.9, 19)
        cos_t = math.cos(theta)

        def integrand(x):
            d, e, _ = dimensionless_params(x, theta)
            return d / e * (x - cos_t) / e

        ref = [1 + quad(integrand, 0.0, x, epsabs=1e-14, epsrel=1e-14)[0] for x in xs]
        eps1 = first_iteration_epsilon(SweepConfig(theta=theta, x_f=0.9), xs)
        assert np.max(np.abs(eps1 - ref)) <= 1e-12


class TestFigure1Dataset:
    def test_shape_and_labels(self):
        curve = figure1_dataset(FIG1)
        table = figure1_table(curve)
        assert table.shape == (FIG1.grid, 5)

    def test_curve_ordering(self):
        curve = figure1_dataset(FIG1)
        inside = curve.xs > 0
        assert np.all(curve.rho_berry[inside] > curve.rho_first_iter[inside])
        assert np.all(curve.rho_first_iter[inside] > 0)

    def test_default_config(self):
        curve = figure1_dataset()
        assert curve.xs[-1] == pytest.approx(0.3)
        assert len(curve.xs) == 512

    def test_rho_cross_check_against_unwrapped_exact_phase(self):
        from nadphase.rotating import exact_rho

        curve = figure1_dataset(FIG1)
        for idx in (100, 300, 511):
            x = float(curve.xs[idx])
            assert abs(curve.rho_exact[idx] - exact_rho(x, THETA60, FIG1.tau)) <= 1e-6
