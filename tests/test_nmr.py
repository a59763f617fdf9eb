import math

import numpy as np
import pytest

from nadphase import nmr
from nadphase._fmt import csv_text
from nadphase.rotating import exact_S
from nadphase.sweep import dimensionless_params

THETA60 = math.radians(60.0)
TAU_REF = 2 * math.pi / 0.3
# frozen from a 50-digit evaluation at theta = 60 deg, n = 1
ARG_APPROX_X03 = 18.650588386811  # 2*pi*(1/0.3 - 0.5 + 0.3*0.75*0.6)
ARG_GAP_X01 = 0.0028043023


class TestClosedFormAmplitudes:
    def test_static_limit(self):
        P_minus, P_plus, T_minus, T_plus = nmr.closed_form_amplitudes(0.0, THETA60, 4.0)
        assert abs(P_minus - np.exp(0.5j * 4.0)) <= 1e-12
        assert T_minus == 0 and T_plus == 0
        assert abs(abs(P_plus) - 1.0) <= 1e-12

    def test_reference_magnitudes(self):
        P_minus, P_plus, T_minus, T_plus = nmr.closed_form_amplitudes(0.3, THETA60, TAU_REF)
        assert abs(abs(T_minus) - 0.034145836228777627) <= 1e-9
        assert abs(abs(P_minus) - 0.99941686090851874) <= 1e-9
        assert T_minus == T_plus
        assert abs(abs(P_plus) - abs(P_minus)) <= 1e-12

    @pytest.mark.parametrize("x", [0.05, 0.2, 0.3])
    @pytest.mark.parametrize("theta_deg", [30.0, 60.0, 120.0])
    def test_unitarity(self, x, theta_deg):
        theta = math.radians(theta_deg)
        for t in (1.0, 7.5, 19.0):
            P_minus, _, T_minus, _ = nmr.closed_form_amplitudes(x, theta, t)
            assert abs(abs(P_minus) ** 2 + abs(T_minus) ** 2 - 1) <= 1e-9


class TestExactAmplitudes:
    def test_unitarity_and_t_equality(self):
        for x in (0.1, 0.3):
            for t in (2.0, 11.0):
                P_minus, P_plus, T_minus, T_plus = nmr.exact_amplitudes(x, THETA60, t)
                assert abs(abs(P_minus) ** 2 + abs(T_minus) ** 2 - 1) <= 1e-12
                assert abs(abs(P_plus) ** 2 + abs(T_plus) ** 2 - 1) <= 1e-12
                assert abs(T_plus - T_minus) <= 1e-12

    def test_magnitude_agrees_with_convention(self):
        for t in (3.0, 9.0):
            _, _, T_conv, _ = nmr.closed_form_amplitudes(0.3, THETA60, t)
            _, _, T_exact, _ = nmr.exact_amplitudes(0.3, THETA60, t)
            assert abs(abs(T_conv) - abs(T_exact)) <= 1e-9


class TestMagnetizationExact:
    def test_matches_direct_expectation(self):
        for x, theta_deg, n in [(0.3, 60.0, 1), (0.2, 90.0, 2), (0.1, 30.0, 3)]:
            point = nmr.transverse_magnetization_exact(x, math.radians(theta_deg), n)
            direct = nmr.direct_expectation(x, math.radians(theta_deg), n)
            assert abs(point.M_perp - direct) <= 1e-12

    def test_adiabatic_limit(self):
        x, n = 1e-3, 1
        point = nmr.transverse_magnetization_exact(x, THETA60, n)
        d, _, _ = dimensionless_params(x, THETA60)
        assert abs(point.M_perp - np.exp(1j * d * point.t)) <= 5e-3

    def test_magnitude_bounded(self):
        for x in (0.1, 0.3, 0.5):
            for n in (1, 2):
                point = nmr.transverse_magnetization_exact(x, THETA60, n)
                assert abs(point.M_perp) <= 1 + 1e-12

    def test_dominant_term_bound(self):
        point = nmr.transverse_magnetization_exact(0.3, THETA60, 1)
        A2 = 0.99883406186823750
        C_hat = 0.034145836228777627
        dominant = A2 * np.exp(1j * point.arg_exact)
        assert abs(point.M_perp - dominant) <= C_hat**2 + 2 * C_hat

    def test_rejects_bad_cycle_count(self):
        with pytest.raises(ValueError):
            nmr.transverse_magnetization_exact(0.3, THETA60, 0)


class TestMagnetizationApprox:
    def test_polar_limit_argument(self):
        theta = 1e-9
        point = nmr.magnetization_approx(0.25, theta, 2)
        assert point.arg_approx == pytest.approx(2 * math.pi * 2 * (1 / 0.25 - 1), rel=1e-9)

    def test_reference_argument(self):
        point = nmr.magnetization_approx(0.3, THETA60, 1)
        assert point.arg_approx == pytest.approx(ARG_APPROX_X03, abs=1e-9)

    def test_rejects_x_zero(self):
        with pytest.raises(ValueError):
            nmr.magnetization_approx(0.0, THETA60, 1)

    def test_arg_gap_at_reference(self):
        point = nmr.transverse_magnetization_exact(0.1, THETA60, 1)
        gap = abs(point.arg_exact - point.arg_approx)
        assert gap <= 0.05
        assert gap == pytest.approx(ARG_GAP_X01, abs=1e-6)

    def test_transition_envelope(self):
        # C_hat^2 stays below the provable envelope x^2 sin^2(theta) / e^2
        for x in (0.05, 0.1, 0.2, 0.3):
            for theta_deg in (30.0, 60.0, 90.0):
                theta = math.radians(theta_deg)
                for n in (1, 2, 3):
                    tau = 2 * math.pi * n / x
                    _, _, T_minus, _ = nmr.exact_amplitudes(x, theta, tau)
                    _, e, _ = dimensionless_params(x, theta)
                    assert abs(T_minus) ** 2 <= (x * math.sin(theta) / e) ** 2 + 1e-15


class TestMagnetizationTable:
    def test_shape_and_columns(self):
        table = nmr.magnetization_table(0.3, THETA60, 3)
        assert table.shape == (3, len(nmr.MAGNETIZATION_HEADER))
        np.testing.assert_allclose(table[:, 0], [1, 2, 3])
        np.testing.assert_allclose(table[:, 1], 0.3)
        np.testing.assert_allclose(table[:, 2], 60.0)
        # Mx bounded by A^2 <= 1
        assert np.all(np.abs(table[:, 3]) <= 1 + 1e-12)


@pytest.mark.parametrize("x, theta_deg, n_max", [(0.3, 60.0, 50), (2.0, 30.0, 20),
                                                 (0.05, 150.0, 30)])
def test_table_rows_are_the_per_cycle_points(x, theta_deg, n_max):
    # each row once more from the public per-cycle functions, byte for byte in the CSV
    theta = math.radians(theta_deg)
    rows = []
    for n in range(1, n_max + 1):
        exact = nmr.transverse_magnetization_exact(x, theta, n)
        approx = nmr.magnetization_approx(x, theta, n)
        rows.append([n, x, math.degrees(theta), exact.M_x, approx.M_x, exact.arg_exact, approx.arg_approx,
                     abs(exact_S(x, theta, exact.t)) ** 2])
    table = nmr.magnetization_table(x, theta, n_max)
    assert csv_text(nmr.MAGNETIZATION_HEADER, table) == csv_text(nmr.MAGNETIZATION_HEADER, rows)
    assert table.tobytes() == np.array(rows).tobytes()
