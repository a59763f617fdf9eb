import math

import numpy as np
import pytest

from nadphase import engine
from nadphase.paths import PrecessingPath, SampledPath, make_kernel

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
            Gamma_minus=lambda t: 1.0 / (0.5 - t),
            gamma_rates=lambda t: (0.0, 0.0),
            delta_integral=lambda t: t,
        )
        with pytest.raises(engine.StepFailureError, match="t ="):
            engine.evolve(singular, 1.0)

    def test_sampled_kernel_matches_closed_form(self):
        # sampled replica of a precessing path
        ts = np.linspace(0.0, 8.0, 801)
        path = SampledPath(ts, np.full_like(ts, THETA60), 0.3 * ts, np.full_like(ts, 0.5))
        traj = engine.evolve(make_kernel(path), 8.0, tol=1e-10)
        S, _ = traj.amplitudes(8.0)
        assert abs(S - engine.closed_form_S(0.3, THETA60, 8.0)) <= 1e-6


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

    def test_sampled_has_no_plus_amplitudes(self):
        ts = np.linspace(0.0, 2.0, 201)
        path = SampledPath(ts, np.pi / 2 + 0.05 * np.sin(ts), ts, np.ones_like(ts))
        traj = engine.evolve(make_kernel(path), 2.0)
        res = engine.assemble(traj, path, 2.0)
        assert res.P_plus is None and res.T_plus is None
        assert abs(abs(res.P_minus) ** 2 + abs(res.T_minus) ** 2 - 1) <= 1e-9


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
    def test_closed_form_I_reference(self):
        assert abs(abs(engine.closed_form_I(0.3, THETA60, TAU_REF)) - I_MAG_REF) <= 1e-12

    def test_closed_form_S_reference(self):
        assert abs(engine.closed_form_S(0.3, THETA60, TAU_REF) - S_REF) <= 1e-12

    def test_derivative_relation(self):
        # S = (dI/dt)/F within finite-difference accuracy
        x, theta, t = 0.2, 1.1, 3.0
        kernel = make_kernel(PrecessingPath.dimensionless(x, theta))
        h = 1e-6
        dI = (engine.closed_form_I(x, theta, t + h)
              - engine.closed_form_I(x, theta, t - h)) / (2 * h)
        assert abs(dI / kernel.F(t) - engine.closed_form_S(x, theta, t)) <= 1e-8


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
