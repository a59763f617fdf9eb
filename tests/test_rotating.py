import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nadphase.rotating import (
    DegenerateSplittingError,
    exact_S,
    exact_rho,
    propagate_exact,
    solve_rotating_frame,
)
from nadphase.sweep import dimensionless_params

THETA60 = math.radians(60.0)
TAU_REF = 2 * math.pi / 0.3
S_REF = 0.91595294376772288 + 0.39983029734060948j


class TestRotatingFrame:
    def test_static_limit(self):
        sol = solve_rotating_frame(0.0, 1.1)
        assert sol.theta_bar == pytest.approx(1.1, abs=1e-15)
        assert sol.a_plus == pytest.approx(0.0, abs=1e-15)
        assert sol.a_minus == pytest.approx(1.0, abs=1e-15)

    def test_reference_geometry(self):
        sol = solve_rotating_frame(0.3, THETA60)
        assert math.tan(sol.theta_bar) == pytest.approx(0.86602540378444 / 0.2, rel=1e-12)
        assert sol.theta_bar == pytest.approx(1.3438352477532259, abs=1e-12)
        assert sol.g == pytest.approx(0.95632471578712032, abs=1e-12)
        d, e, _ = dimensionless_params(0.3, THETA60)
        assert sol.g == pytest.approx(d / e, abs=1e-12)

    def test_fast_drive_tips_backward(self):
        assert solve_rotating_frame(50.0, THETA60).theta_bar > 3.0

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSplittingError):
            solve_rotating_frame(1.0, 0.0)

    @given(x=st.floats(0.0, 0.95), theta=st.floats(0.01, math.pi - 0.01))
    def test_coefficient_identities(self, x, theta):
        sol = solve_rotating_frame(x, theta)
        assert abs(sol.a_plus**2 + sol.a_minus**2 - 1) <= 1e-14
        d, e, _ = dimensionless_params(x, theta)
        assert abs(math.cos(sol.theta_bar - theta) - d / e) <= 1e-12
        # Rabi frequency from detuning and coupling: Omega0 = sqrt(d^2 + 4C^2)
        assert abs(sol.Omega0 - math.hypot(d, x * math.sin(theta))) <= 1e-14
        assert abs(sol.Omega0 - e) <= 1e-14


class TestExactS:
    def test_tau_zero(self):
        assert exact_S(0.3, THETA60, 0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("tau", [0.0, 1.7, 12.0])
    def test_adiabatic_identity(self, tau):
        assert abs(exact_S(0.0, 1.2, tau) - 1.0) <= 1e-14

    def test_reference_value(self):
        assert abs(exact_S(0.3, THETA60, TAU_REF) - S_REF) <= 1e-14

    @given(x=st.floats(0.0, 0.95), theta=st.floats(0.01, math.pi - 0.01),
           tau=st.floats(0.0, 50.0))
    def test_magnitude_bounded(self, x, theta, tau):
        assert abs(exact_S(x, theta, tau)) <= 1 + 1e-12


class TestExactState:
    def test_initial_condition(self):
        psi = propagate_exact(0.3, THETA60, 0.0)
        half = THETA60 / 2
        np.testing.assert_allclose(psi, [math.sin(half), -math.cos(half)], atol=1e-15)

    @given(x=st.floats(0.0, 0.95), theta=st.floats(0.01, math.pi - 0.01),
           tau=st.floats(0.0, 50.0))
    def test_norm_preserved(self, x, theta, tau):
        assert abs(np.linalg.norm(propagate_exact(x, theta, tau)) - 1) <= 1e-12

    def test_persistence_probability_reference(self):
        psi = propagate_exact(0.3, THETA60, TAU_REF)
        half = THETA60 / 2
        phase = cmath.exp(1j * 0.3 * TAU_REF)
        v_minus_t = np.array([math.sin(half), -math.cos(half) * phase])
        overlap = v_minus_t.conj() @ psi
        assert abs(abs(overlap) ** 2 - 0.99883406186823750) <= 1e-12

    def test_projection_recovers_S(self):
        # <E-(t)|psi(t)> = exp(i gamma_- - i int E-) * S(t)
        x, theta, tau = 0.2, 1.0, 7.0
        psi = propagate_exact(x, theta, tau)
        half = theta / 2
        v_minus_t = np.array([math.sin(half), -math.cos(half) * cmath.exp(1j * x * tau)])
        overlap = v_minus_t.conj() @ psi
        gamma_minus = -(x * tau / 2) * (1 + math.cos(theta))
        prefactor = cmath.exp(1j * (gamma_minus + tau / 2))
        assert abs(overlap - prefactor * exact_S(x, theta, tau)) <= 1e-12

    def test_propagate_superposition_linearity(self):
        x, theta, tau = 0.25, 1.3, 5.0
        e1 = np.array([1.0, 0.0], dtype=complex)
        e2 = np.array([0.0, 1.0], dtype=complex)
        combo = propagate_exact(x, theta, tau, (e1 + 2j * e2) / math.sqrt(5))
        parts = (propagate_exact(x, theta, tau, e1)
                 + 2j * propagate_exact(x, theta, tau, e2)) / math.sqrt(5)
        np.testing.assert_allclose(combo, parts, atol=1e-14)


class TestExactRho:
    def test_reference_value(self):
        assert abs(exact_rho(0.3, THETA60, TAU_REF) - 0.41158622956069042) <= 1e-9

    def test_zero_at_origin(self):
        assert exact_rho(0.3, THETA60, 0.0) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(x=st.one_of(st.floats(0.01, 0.95), st.floats(1.05, 5.0)),
           theta=st.floats(0.01, math.pi - 0.01), cycles=st.floats(0.0, 50.0))
    def test_matches_dense_unwrap(self, x, theta, cycles):
        # oracle: unwrap the principal phase of S along a dense tau grid
        tau = 2 * math.pi * cycles / x
        n = max(256, int(256 * tau / (2 * math.pi)) + 1)
        dense = np.unwrap(np.angle(exact_S(x, theta, np.linspace(0.0, tau, n))))[-1]
        assert abs(exact_rho(x, theta, tau) - dense) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(x=st.floats(0.01, 3.0), theta=st.floats(0.0, math.pi), n_max=st.integers(1, 200))
    def test_array_matches_scalar(self, x, theta, n_max):
        assume(not (x == 1.0 and theta == 0.0))  # the splitting vanishes
        taus = 2 * math.pi * np.arange(1, n_max + 1) / x
        scalar = [exact_rho(x, theta, float(tau)) for tau in taus]
        assert exact_rho(x, theta, taus).tobytes() == np.array(scalar).tobytes()

    def test_negative_detuning_turns_backward(self):
        # x = 2, theta = 30 deg: d < 0 and g < 0, the phase winds the other way
        x, theta = 2.0, math.radians(30.0)
        assert solve_rotating_frame(x, theta).g < 0
        tau = 2 * math.pi * 7 / x
        dense = np.unwrap(np.angle(exact_S(x, theta, np.linspace(0.0, tau, 20000))))[-1]
        assert abs(exact_rho(x, theta, tau) - dense) <= 1e-10
