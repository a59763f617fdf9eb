import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nadphase import engine, nmr, rotating
from nadphase.paths import (
    CouplingKernel,
    PrecessingPath,
    SampledPath,
    berry_phase,
    instantaneous_eigensystem,
    make_kernel,
)

THETA60 = math.radians(60.0)
TAU_REF = 2 * math.pi / 0.3
# frozen from a 50-digit evaluation of the closed forms at x=0.3, theta=60deg
S_REF = 0.91595294376772288 + 0.39983029734060948j
I_MAG_REF = 0.034145836228777627
RHO_REF = 0.41158622956069042


@pytest.fixture(scope="module")
def reference_run():
    path = PrecessingPath.dimensionless(0.3, THETA60)
    traj = engine.evolve(make_kernel(path), TAU_REF, tol=1e-10)
    return path, traj


class TestEvolve:
    def test_no_coupling(self):
        path = PrecessingPath.dimensionless(0.0, THETA60)
        traj = engine.evolve(make_kernel(path), 10.0)
        for t in (0.0, 3.3, 10.0):
            S, I = traj.amplitudes(t)
            assert abs(S - 1.0) <= 1e-12
            assert abs(I) <= 1e-12

    def test_reference_point(self, reference_run):
        _, traj = reference_run
        S, I = traj.amplitudes(TAU_REF)
        assert abs(S - S_REF) <= 1e-8
        assert abs(abs(I) - I_MAG_REF) <= 1e-8

    def test_scale_invariance(self):
        # same dimensionless point with R = 1: omega = 2Rx, t = tau/(2R)
        path = PrecessingPath(R=1.0, theta=THETA60, omega=0.6)
        traj = engine.evolve(make_kernel(path), TAU_REF / 2, tol=1e-10)
        S, _ = traj.amplitudes(TAU_REF / 2)
        assert abs(S - S_REF) <= 1e-8

    def test_conservation_drift(self, reference_run):
        _, traj = reference_run
        ts = np.linspace(0.0, TAU_REF, 200)
        assert np.max(traj.unitarity_defect(ts)) <= 10 * traj.tol

    def test_phase_continuity(self, reference_run):
        _, traj = reference_run
        rho_nodes = traj.rho(traj.ts)
        assert np.max(np.abs(np.diff(rho_nodes))) < math.pi / 2

    def test_rejects_bad_tol(self):
        kernel = make_kernel(PrecessingPath.dimensionless(0.1, THETA60))
        with pytest.raises(ValueError):
            engine.evolve(kernel, 1.0, tol=0.0)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan, -5.0])
    def test_rejects_bad_end_time(self, t_end):
        kernel = make_kernel(PrecessingPath.dimensionless(0.1, THETA60))
        with pytest.raises(ValueError, match="t_end"):
            engine.evolve(kernel, t_end)

    @pytest.mark.parametrize("path", [
        PrecessingPath.dimensionless(0.3, math.radians(40.0)),
        SampledPath(np.linspace(0.0, 4.0, 41), np.full(41, THETA60), np.linspace(0.0, 1.2, 41),
                    np.ones(41)),
    ], ids=["precessing", "sampled"])
    def test_zero_end_time_is_one_node(self, path):
        traj = engine.evolve(make_kernel(path), 0.0)
        assert traj.ts.tolist() == [0.0]
        assert traj.stats["steps"] == 0
        table = engine.trajectory_table(traj)
        assert table.tolist() == [[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]]
        assert traj.amplitudes(0.0) == (1.0, 0.0)
        assert traj.phases(0.0) == (0.0, 0.0, 0.0, 0.0)
        assert engine.assemble(traj, path, 0.0).P_minus == 1.0

    @pytest.mark.parametrize("path", [
        PrecessingPath.dimensionless(0.3, math.radians(40.0)),
        SampledPath(np.linspace(0.0, 4.0, 41), np.full(41, THETA60), np.linspace(0.0, 1.2, 41),
                    np.ones(41)),
    ], ids=["precessing", "sampled"])
    def test_readouts_reject_times_outside_the_run(self, path):
        traj = engine.evolve(make_kernel(path), 2.0)
        readouts = [traj.amplitudes, traj.phases, traj.rho, traj.unitarity_defect,
                    lambda t: engine.assemble(traj, path, t)]
        for t in (-1.0, -1e-300, np.nextafter(2.0, 3.0), 10.0, 500.0, math.nan, [0.0, 1.0, 2.5]):
            for readout in readouts:
                with pytest.raises(ValueError, match="outside the span"):
                    readout(t)
        for readout in readouts:  # both ends are in the span
            readout(0.0), readout(2.0)

    def test_rejects_end_time_past_sampled_path(self):
        ts = np.linspace(0.0, 4.0, 81)
        path = SampledPath(ts, np.full_like(ts, THETA60), 0.3 * ts, np.ones_like(ts))
        kernel = make_kernel(path)
        assert engine.evolve(kernel, path.duration).ts[-1] == path.duration
        with pytest.raises(ValueError, match="last sample"):
            engine.evolve(kernel, path.duration + 1.0)

    def test_step_failure_reports_time(self):
        from nadphase.paths import CouplingKernel

        # kernel with a pole inside the window forces step-size underflow
        singular = CouplingKernel(
            F=lambda t: 1.0 / (0.5 - t),
            delta=lambda t: 1.0,
            gamma_rates=lambda t: (0.0, 0.0),
        )
        with pytest.raises(engine.StepFailureError, match="t ="):
            engine.evolve(singular, 1.0)

    def test_sampled_kernel_matches_closed_form(self):
        # sampled replica of a precessing path
        ts = np.linspace(0.0, 8.0, 801)
        path = SampledPath(ts, np.full_like(ts, THETA60), 0.3 * ts, np.full_like(ts, 0.5))
        traj = engine.evolve(make_kernel(path), 8.0, tol=1e-10)
        S, _ = traj.amplitudes(8.0)
        assert abs(S - rotating.exact_S(0.3, THETA60, 8.0)) <= 1e-6


class TestAssemble:
    def test_initial_condition(self, reference_run):
        path, traj = reference_run
        res = engine.assemble(traj, path, 0.0)
        assert res.P_minus == pytest.approx(1.0, abs=1e-12)
        assert abs(res.T_minus) <= 1e-12
        assert res.rho == pytest.approx(0.0, abs=1e-12)
        assert res.A == pytest.approx(1.0, abs=1e-12)

    def test_reference_values(self, reference_run):
        path, traj = reference_run
        res = engine.assemble(traj, path, TAU_REF)
        assert abs(res.rho - RHO_REF) <= 1e-8
        assert abs(res.A**2 - (1 - I_MAG_REF**2)) <= 1e-8
        assert abs(abs(res.T_minus) - I_MAG_REF) <= 1e-8

    def test_unitarity_identity(self, reference_run):
        path, traj = reference_run
        for t in np.linspace(0.0, TAU_REF, 17):
            res = engine.assemble(traj, path, t)
            assert abs(abs(res.P_minus) ** 2 + abs(res.T_minus) ** 2 - 1) <= 1e-9

    def test_phase_prefactors(self, reference_run):
        # P- carries exp(i gamma_- + i dyn) times S; check the decomposition
        path, traj = reference_run
        t = 0.6 * TAU_REF
        res = engine.assemble(traj, path, t)
        S, _ = traj.amplitudes(t)
        rebuilt = np.exp(1j * (res.gamma_minus + res.dyn_phase_minus)) * S
        assert abs(rebuilt - res.P_minus) <= 1e-12
        # precessing closed forms for the phases
        assert res.gamma_minus == pytest.approx(-(0.3 * t / 2) * (1 + math.cos(THETA60)),
                                                abs=1e-9)
        assert res.dyn_phase_minus == pytest.approx(0.5 * t, abs=1e-9)

    def test_all_four_amplitudes_match_the_exact_propagator(self, reference_run):
        path, traj = reference_run
        for t in np.linspace(0.0, TAU_REF, 9):
            res = engine.assemble(traj, path, t)
            np.testing.assert_allclose([res.P_minus, res.P_plus, res.T_minus, res.T_plus],
                                       nmr.exact_amplitudes(0.3, THETA60, t), rtol=0, atol=1e-8)

    def test_one_readout_takes_the_partial_step_once(self, reference_run):
        # through a wrapped F: one assemble, one F call; its ρ is traj.rho's, bit for bit
        path, traj = reference_run
        kernel = make_kernel(path)
        calls = []
        counted = CouplingKernel(F=lambda t: calls.append(t) or kernel.F(t), delta=kernel.delta,
                                 gamma_rates=kernel.gamma_rates)
        traj = engine.evolve(counted, TAU_REF)
        for t in (0.0, 0.37 * TAU_REF, TAU_REF):
            calls.clear()
            res = engine.assemble(traj, path, t)
            assert len(calls) == 1
            assert res.rho == traj.rho(t)

    def test_sampled_amplitudes_match_a_lab_frame_integrator(self):
        # both columns, v₋(0) and v₊(0), on a path where θ, φ and R all vary;
        # T₊ taken with the opposite sign misses by order 1 here
        path = varying_path(20.0, 401, 0.3, 0.5, 0.3, 0.5, 0.1, 0.3)
        traj = engine.evolve(make_kernel(path), path.duration, tol=1e-12)
        ts = np.array([0.0, 3.7, 10.0, 16.05, 20.0])
        for t, ref in zip(ts, np.transpose(lab_frame_amplitudes(path, ts))):
            res = engine.assemble(traj, path, t)
            np.testing.assert_allclose([res.P_minus, res.P_plus, res.T_minus, res.T_plus], ref,
                                       rtol=0, atol=1e-9)


class TestSlicedPropagator:
    def test_error_halves_when_n_doubles(self, reference_run):
        path, traj = reference_run
        P_engine = engine.assemble(traj, path, TAU_REF).P_minus
        e1 = abs(engine.sliced_propagator(path, TAU_REF, 10**4).P_minus - P_engine)
        e2 = abs(engine.sliced_propagator(path, TAU_REF, 2 * 10**4).P_minus - P_engine)
        assert 1.8 <= e1 / e2 <= 2.2

    def test_static_hamiltonian(self):
        path = PrecessingPath(R=0.5, theta=1.0, omega=0.0, duration=10.0)
        t, n = 1.0, 4000
        res = engine.sliced_propagator(path, t, n)
        # exact limit exp(+iRt); first-order slices leave O(t^2/n)
        assert abs(res.P_minus - np.exp(0.5j * t)) <= 1e-4
        assert abs(res.T_minus) <= 1e-4

    def test_single_slice_short_time(self):
        path = PrecessingPath.dimensionless(0.3, THETA60)
        res = engine.sliced_propagator(path, 1e-9, 1)
        np.testing.assert_allclose(res.U, np.eye(2), atol=1e-8)
        assert abs(res.P_minus - 1.0) <= 1e-8

    def test_rejects_zero_slices(self):
        with pytest.raises(ValueError):
            engine.sliced_propagator(PrecessingPath.dimensionless(0.3, THETA60), 1.0, 0)


class TestSeries:
    def test_order0(self):
        kernel = make_kernel(PrecessingPath.dimensionless(0.3, THETA60))
        assert engine.series_persistence(kernel, 5.0, 0) == 1.0

    @pytest.mark.parametrize("tau,order,tol", [
        (0.5, 1, 1e-4), (1.0, 1, 1e-4), (0.5, 2, 1e-5), (1.0, 2, 1e-5),
    ])
    def test_matches_engine(self, tau, order, tol):
        kernel = make_kernel(PrecessingPath.dimensionless(0.3, THETA60))
        traj = engine.evolve(kernel, tau, tol=1e-10)
        S_engine, _ = traj.amplitudes(tau)
        assert abs(engine.series_persistence(kernel, tau, order) - S_engine) <= tol

    @pytest.mark.parametrize("tau", [0.5, 1.0])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_remainder_bound(self, tau, order):
        # |S - series_k| <= (|F| t)^(2k+2) / (2k+2)!  (the bound is nearly
        # saturated here since |F| is constant; allow integration noise)
        kernel = make_kernel(PrecessingPath.dimensionless(0.3, THETA60))
        traj = engine.evolve(kernel, tau, tol=1e-12)
        S_engine, _ = traj.amplitudes(tau)
        est = engine.series_persistence(kernel, tau, order)
        F_max = abs(kernel.F(0.0))
        k2 = 2 * order + 2
        bound = (F_max * tau) ** k2 / math.factorial(k2)
        assert abs(est - S_engine) <= bound + 1e-11

    def test_rejects_bad_order(self):
        kernel = make_kernel(PrecessingPath.dimensionless(0.3, THETA60))
        with pytest.raises(ValueError):
            engine.series_persistence(kernel, 1.0, 3)

    def test_sampled_kernel(self):
        ts = np.linspace(0.0, 2.0, 201)
        path = SampledPath(ts, np.pi / 2 + 0.1 * np.sin(ts), ts.copy(), np.ones_like(ts))
        kernel = make_kernel(path)
        traj = engine.evolve(kernel, 0.5, tol=1e-10)
        S_engine, _ = traj.amplitudes(0.5)
        F_max = max(abs(kernel.F(u)) for u in np.linspace(0.0, 0.5, 50))
        for order in (1, 2):
            k2 = 2 * order + 2
            bound = (F_max * 0.5) ** k2 / math.factorial(k2)
            err = abs(engine.series_persistence(kernel, 0.5, order) - complex(S_engine))
            assert err <= bound + 1e-10


class TestClosedForms:
    def test_derivative_relation(self):
        # S = (dI/dt)/F within finite-difference accuracy, İ from the engine
        x, theta, t = 0.2, 1.1, 3.0
        kernel = make_kernel(PrecessingPath.dimensionless(x, theta))
        traj = engine.evolve(kernel, 4.0)
        h = 1e-5
        dI = (traj.amplitudes(t + h)[1] - traj.amplitudes(t - h)[1]) / (2 * h)
        assert abs(dI / kernel.F(t) - rotating.exact_S(x, theta, t)) <= 1e-8


class TestTrajectoryExport:
    def test_table_schema(self, reference_run):
        _, traj = reference_run
        table = engine.trajectory_table(traj)
        assert table.shape == (len(traj.ts), len(engine.TRAJECTORY_HEADER))
        assert engine.TRAJECTORY_HEADER[0] == "t"
        # unitarity defect column stays tiny, rho column starts at 0
        assert np.max(table[:, 7]) <= 1e-9
        assert table[0, 5] == pytest.approx(0.0, abs=1e-14)

    def test_table_matches_public_readout(self, reference_run):
        _, traj = reference_run
        ts = traj.ts
        S, I = traj.amplitudes(ts)
        expected = np.column_stack([ts, S.real, S.imag, I.real, I.imag, traj.rho(ts), np.abs(S),
                                    traj.unitarity_defect(ts)])
        np.testing.assert_array_equal(engine.trajectory_table(traj), expected)


def precessing_run(x, theta_deg, cycles, tol=1e-10):
    theta = math.radians(theta_deg)
    t_end = cycles * 2 * math.pi / x
    return theta, t_end, engine.evolve(make_kernel(PrecessingPath.dimensionless(x, theta)),
                                       t_end, tol)


def fixed_step(kernel, t_end, n, w):
    """(S, I) at the nodes after t = 0 of exactly n Magnus steps in the frame
    turning at w, as evolve takes them."""
    ts = np.linspace(0.0, t_end, n + 1)
    nodes = engine.gauss_nodes(ts[:-1], t_end / n)
    da, b, _ = engine._magnus_steps(kernel.F(nodes), t_end / n, w)
    da, b = engine._prefix_products(da, b)
    return ts[1:], 1.0 + np.conj(da), b


@pytest.mark.parametrize("n", [*range(1, 65), *(2**m for m in range(7, 13))])
def test_prefix_products_match_a_sequential_product(n):
    # random SU(2) steps turning by up to 0.05 rad, as a converged run's steps do,
    # multiplied one at a time from the left in extended precision as deviations
    # D from 1: (1 + E)(1 + D) = 1 + E + D + ED; lengths on both sides of the
    # 32 elements where the scan hands over to a product in turn, odd ones included
    rng = np.random.default_rng(n)
    r = rng.uniform(0.0, 0.05, n)
    axis = rng.normal(size=(3, n))
    axis /= np.linalg.norm(axis, axis=0)
    sinc = np.sinc(r / np.pi)
    da, b = -2 * np.sin(0.5 * r) ** 2 + 1j * r * axis[2] * sinc, r * (axis[0] + 1j * axis[1]) * sinc
    prefix_da, prefix_b = engine._prefix_products(da, b)
    D = np.zeros((2, 2), dtype=np.clongdouble)
    for k in range(n):
        E = np.array([[da[k], b[k]], [-np.conj(b[k]), np.conj(da[k])]], dtype=np.clongdouble)
        D = E + D + E @ D
        assert abs(prefix_da[k] - D[0, 0]) <= 1e-15 and abs(prefix_b[k] - D[0, 1]) <= 1e-15
    assert np.max(engine._defect(1.0 + prefix_da, prefix_b)) <= 1e-14


def varying_path(duration, samples, theta_amp, theta_freq, phi_rate, phi_amp, R_amp, R_freq,
                 t0=0.0):
    """A sampled path on which θ, φ and R all vary."""
    u = np.linspace(0.0, duration, samples)
    return SampledPath(u + t0, 1.5 + theta_amp * np.sin(theta_freq * u),
                       phi_rate * u + phi_amp * np.cos(1.3 * u), 0.5 + R_amp * np.sin(R_freq * u))


def lab_frame_amplitudes(path, ts):
    """(P₋, P₊, T₋, T₊) at ts from scipy's DOP853 on ψ̇ = −iHψ, H = R n̂(θ, φ)·σ, in
    the lab frame: v₋(0) and v₊(0) propagated, then projected on v±(t). Tolerances
    1e-13, steps capped at half the sample spacing as in dop853_amplitudes."""
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        theta, phi, R, _, _ = path.state(t)
        off = math.sin(theta) * np.exp(1j * phi)
        H = R * np.array([[math.cos(theta), np.conj(off)], [off, -math.cos(theta)]])
        return (-1j * H @ y.reshape(2, 2)).ravel()

    _, _, vp0, vm0 = instantaneous_eigensystem(*path.angles(0.0))
    ref = solve_ivp(rhs, (0.0, ts[-1]), np.column_stack([vm0, vp0]).ravel(), method="DOP853",
                    rtol=1e-13, atol=1e-13, t_eval=ts, max_step=np.min(np.diff(path.t)) / 2)
    out = []
    for t, y in zip(ts, ref.y.T):
        _, _, vpt, vmt = instantaneous_eigensystem(*path.angles(t))
        psi_minus, psi_plus = y.reshape(2, 2).T
        out.append([np.vdot(vmt, psi_minus), np.vdot(vpt, psi_plus),
                    np.vdot(vpt, psi_minus), np.vdot(vmt, psi_plus)])
    return np.transpose(out)


def dop853_amplitudes(kernel, path, ts):
    """(S, I) at ts from scipy's DOP853 on the lab-frame system, tolerances 1e-13.

    The kernel is only C¹ at the sample knots, so steps are capped at half the
    sample spacing: longer steps straddle knots and miss the tolerance.
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        F = complex(kernel.F(t))
        I, S = y[0] + 1j * y[1], y[2] + 1j * y[3]
        return [(F * S).real, (F * S).imag, (-np.conj(F) * I).real, (-np.conj(F) * I).imag]

    ref = solve_ivp(rhs, (0.0, path.duration), [0.0, 0.0, 1.0, 0.0], method="DOP853",
                    rtol=1e-13, atol=1e-13, t_eval=ts, max_step=np.min(np.diff(path.t)) / 2)
    return ref.y[2] + 1j * ref.y[3], ref.y[0] + 1j * ref.y[1]


drives = dict(x=st.floats(0.02, 0.9), theta_deg=st.floats(5.0, 175.0),
              cycles=st.integers(1, 5))
path_shapes = dict(theta_amp=st.floats(0.05, 0.5), theta_freq=st.floats(0.1, 3.0),
                   phi_rate=st.floats(-2.0, 2.0), phi_amp=st.floats(0.05, 1.0),
                   R_amp=st.floats(0.05, 0.3), R_freq=st.floats(0.1, 3.0))


class TestMagnusProperties:
    @settings(max_examples=20, deadline=None)
    @given(**drives, u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    def test_unitarity_at_nodes_and_dense_points(self, x, theta_deg, cycles, u):
        _, t_end, traj = precessing_run(x, theta_deg, cycles)
        assert np.max(traj.unitarity_defect(traj.ts)) <= 1e-11
        assert np.max(traj.unitarity_defect(t_end * np.array(u))) <= 1e-11

    @settings(max_examples=20, deadline=None)
    @given(**drives, u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
    def test_matches_rotating_frame(self, x, theta_deg, cycles, u):
        theta, t_end, traj = precessing_run(x, theta_deg, cycles)
        ts = np.concatenate([traj.ts, t_end * np.array(u)])
        S, _ = traj.amplitudes(ts)
        assert np.max(np.abs(S - rotating.exact_S(x, theta, ts))) <= 1e-8

    @settings(max_examples=20, deadline=None)
    @given(duration=st.floats(0.5, 6.0), **path_shapes)
    def test_fourth_order_convergence(self, duration, **shape):
        # max error over the nodes for n, 2n and 4n steps against lab-frame
        # steps (w = 0) at 64n, n well inside the asymptotic range and the error
        # well above rounding. The samples lie eight to the finest step: on steps
        # shorter than the sample spacing the spline's knots leave order 3.
        n = 4 * 2 ** max(0, math.ceil(math.log2(duration)))
        kernel = make_kernel(varying_path(duration, 32 * n + 1, **shape))
        w = engine.evolve(kernel, duration).stats["w"]
        _, S_ref, _ = fixed_step(kernel, duration, 64 * n, 0.0)
        errs = []
        for m in (n, 2 * n, 4 * n):
            _, S, _ = fixed_step(kernel, duration, m, w)
            errs.append(np.max(np.abs(S - S_ref[64 * n // m - 1::64 * n // m])))
        assert 12 <= errs[0] / errs[1] <= 20
        assert 12 <= errs[1] / errs[2] <= 20

    @settings(max_examples=20, deadline=None)
    @given(**drives)
    def test_a_precession_takes_the_first_comparison(self, x, theta_deg, cycles):
        # the frame generator is constant, so 256 and 512 exact steps agree
        theta, t_end, traj = precessing_run(x, theta_deg, cycles)
        assert traj.stats["steps"] == 512
        assert traj.stats["w"] == pytest.approx(1 - x * math.cos(theta), abs=1e-14)

    @settings(max_examples=30, deadline=None)
    @given(x=st.floats(0.02, 0.95), theta_deg=st.floats(5.0, 175.0), tau=st.floats(1.0, 2e4))
    def test_rho_matches_the_closed_form_at_every_node(self, x, theta_deg, tau):
        theta = math.radians(theta_deg)
        kernel = make_kernel(PrecessingPath.dimensionless(x, theta))
        traj = engine.evolve(kernel, tau)
        exact = [rotating.exact_rho(x, theta, t) for t in traj.ts]
        assert np.max(np.abs(engine.trajectory_table(traj)[:, 5] - exact)) <= 1e-8
        # no kept step turns by more than a quarter turn, and stats says so
        h = traj.ts[1]
        nodes = engine.gauss_nodes(traj.ts[:-1], h)
        _, _, r = engine._magnus_steps(kernel.F(nodes), h, traj.stats["w"])
        assert np.max(r) <= math.pi / 2
        assert traj.stats["max_step_turn"] == pytest.approx(np.max(r), rel=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(**drives)
    def test_dense_output_at_nodes_is_the_node_value(self, x, theta_deg, cycles):
        _, _, traj = precessing_run(x, theta_deg, cycles)
        S, I = traj.amplitudes(traj.ts)
        table = engine.trajectory_table(traj)
        assert S.real.tobytes() == table[:, 1].tobytes()
        assert S.imag.tobytes() == table[:, 2].tobytes()
        assert I.real.tobytes() == table[:, 3].tobytes()
        assert I.imag.tobytes() == table[:, 4].tobytes()


class TestInvariants:
    @settings(max_examples=25, deadline=None)
    @given(x=st.floats(0.02, 0.9), theta_deg=st.floats(5.0, 175.0), tau=st.floats(0.1, 40.0),
           phases=st.lists(st.floats(0.0, 2 * math.pi), min_size=4, max_size=4))
    def test_amplitude_magnitudes_do_not_depend_on_the_eigenvector_phases(
            self, x, theta_deg, tau, phases):
        # project the exact propagator onto eigenvectors times arbitrary phases
        theta = math.radians(theta_deg)
        _, _, vp0, vm0 = instantaneous_eigensystem(theta, 0.0)
        _, _, vpt, vmt = instantaneous_eigensystem(theta, x * tau)
        a, b, c, d = np.exp(1j * np.array(phases))
        from_minus = rotating.propagate_exact(x, theta, tau, a * vm0)
        from_plus = rotating.propagate_exact(x, theta, tau, b * vp0)
        phased = [np.vdot(c * vmt, from_minus), np.vdot(d * vpt, from_plus),
                  np.vdot(d * vpt, from_minus), np.vdot(c * vmt, from_plus)]
        fixed = nmr.exact_amplitudes(x, theta, tau)  # (P₋, P₊, T₋, T₊) in the fixed gauge
        np.testing.assert_allclose(np.abs(phased), np.abs(fixed), rtol=0, atol=1e-12)
        # the engine's |S| and |I| are |P±| and |T±| in every gauge
        S, I = engine.evolve(make_kernel(PrecessingPath.dimensionless(x, theta)),
                             tau).amplitudes(tau)
        np.testing.assert_allclose(np.abs(phased), [abs(S), abs(S), abs(I), abs(I)],
                                   rtol=0, atol=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(t0=st.floats(0.0, 10.0), duration=st.floats(0.5, 6.0), **path_shapes)
    def test_rho_vanishes_at_the_start_of_a_sampled_path(self, t0, duration, **shape):
        path = varying_path(duration, 61, **shape, t0=t0)
        traj = engine.evolve(make_kernel(path), path.duration)
        assert traj.rho(0.0) == 0.0
        assert engine.trajectory_table(traj)[0, 5] == 0.0
        assert engine.assemble(traj, path, 0.0).rho == 0.0
        # and ρ leaves 0 continuously: the branch is the one through ρ(0) = 0
        assert np.max(np.abs(np.diff(traj.rho(traj.ts)))) < math.pi / 2
        # the columns from v₋(0) and v₊(0) stay unit vectors and orthogonal
        res = engine.assemble(traj, path, path.duration)
        P_m, P_p, T_m, T_p = res.P_minus, res.P_plus, res.T_minus, res.T_plus
        defects = [abs(P_m) ** 2 + abs(T_m) ** 2 - 1, abs(P_p) ** 2 + abs(T_p) ** 2 - 1]
        assert np.max(np.abs(defects)) <= 1e-11
        assert abs(np.conj(P_m) * T_p + np.conj(T_m) * P_p) <= 1e-11


class TestStepDoubling:
    def test_stats_describe_the_run(self, reference_run):
        _, traj = reference_run
        stats = traj.stats
        assert stats["steps"] == len(traj.ts) - 1 == engine._FIRST_STEPS * 2 ** stats["doublings"]
        assert stats["kernel_calls"] == 3 * (stats["doublings"] + 1)
        assert stats["kernel_points"] == 2 * sum(engine._FIRST_STEPS * 2**k
                                                 for k in range(stats["doublings"] + 1))
        assert 0 < stats["error_estimate"] <= traj.tol
        assert stats["unitarity_defect_max"] <= 1e-12
        assert stats["w"] == pytest.approx(1 - 0.3 * math.cos(THETA60), abs=1e-14)
        assert 0 < stats["max_step_turn"] <= math.pi / 2

    def test_unitarity_defect_does_not_grow_with_the_step_count(self):
        # cos r rounded near 1 errs alike on equal steps; summed over 65,536
        # steps that error would reach about 5e-12
        theta, t_end, traj = precessing_run(0.02, 90.0, 5)
        kernel = make_kernel(PrecessingPath.dimensionless(0.02, theta))
        _, S, I = fixed_step(kernel, t_end, 2**16, traj.stats["w"])
        assert np.max(engine._defect(S, I)) <= 1e-14

    def test_estimate_bounds_the_error(self):
        # a fast path, so that 512 steps leave an error far above the reference's
        u = np.linspace(0.0, 6.0, 121)
        path = SampledPath(u, 1.2 + 0.6 * np.sin(2.5 * u), 1.5 * u + 0.5 * np.cos(2.0 * u),
                           3.0 + 0.3 * np.sin(1.5 * u))
        kernel = make_kernel(path)
        traj = engine.evolve(kernel, path.duration, tol=1e-7)
        S_ref, _ = dop853_amplitudes(kernel, path, traj.ts)
        assert traj.stats["error_estimate"] >= 1e-9
        assert np.max(np.abs(traj.amplitudes(traj.ts)[0] - S_ref)) <= 2 * traj.stats["error_estimate"]

    def test_sampled_path_matches_an_independent_integrator(self):
        u = np.linspace(0.0, 6.0, 121)
        path = SampledPath(u, 1.2 + 0.3 * np.sin(0.9 * u), 0.4 * u + 0.2 * np.cos(1.3 * u),
                           0.5 + 0.1 * np.sin(0.5 * u))
        kernel = make_kernel(path)
        traj = engine.evolve(kernel, path.duration)
        S_ref, I_ref = dop853_amplitudes(kernel, path, traj.ts)
        S, I = traj.amplitudes(traj.ts)
        assert np.max(np.abs(S - S_ref)) <= 1e-8
        assert np.max(np.abs(I - I_ref)) <= 1e-8
        g_minus, g_plus, _, _ = traj.phases(path.duration)
        assert abs(g_minus - berry_phase(path, -1, path.duration)) <= 1e-9
        assert abs(g_plus - berry_phase(path, +1, path.duration)) <= 1e-9

    def test_non_finite_kernel_fails_fast(self):
        nan_after = CouplingKernel(
            F=lambda t: np.where(t < 0.3, 0.1 + 0j, np.nan),
            delta=lambda t: 1.0 + 0 * t,
            gamma_rates=lambda t: (0 * t, 0 * t),
        )
        start = time.perf_counter()
        with pytest.raises(engine.StepFailureError, match="not finite at t = ") as info:
            engine.evolve(nan_after, 1.0)
        assert time.perf_counter() - start <= 1.0
        t_bad = float(re.search(r"t = (\S+)", str(info.value)).group(1))
        assert 0.3 <= t_bad <= 0.3 + 1.0 / engine._FIRST_STEPS

    def test_step_budget_names_the_pole(self):
        pole = CouplingKernel(
            F=lambda t: 1.0 / (0.5 - t),
            delta=lambda t: 1.0,
            gamma_rates=lambda t: (0.0, 0.0),
        )
        start = time.perf_counter()
        with pytest.raises(engine.StepFailureError, match=f"{engine.MAX_STEPS} steps") as info:
            engine.evolve(pole, 1.0)
        assert time.perf_counter() - start <= 10.0
        t_worst = float(re.search(r"t = (\S+)", str(info.value)).group(1))
        assert abs(t_worst - 0.5) <= 1e-3
