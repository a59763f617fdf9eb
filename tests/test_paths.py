import math
import sys
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad, simpson
from scipy.interpolate import CubicSpline

from nadphase import engine
from nadphase.paths import (
    CouplingKernel,
    GaugeSingularityError,
    PrecessingPath,
    SampledPath,
    berry_phase,
    coupling_at,
    instantaneous_eigensystem,
    load_path_csv,
    make_kernel,
)


def wobble_path(t_max=3.0, n=601):
    ts = np.linspace(0.0, t_max, n)
    return SampledPath(ts, np.pi / 2 + 0.1 * np.sin(ts), ts.copy(), np.ones_like(ts))


def varied_samples(t0=0.0, t_max=6.0, n=121):
    """Samples on [t0, t0 + t_max] along which theta, phi and R all vary."""
    u = np.linspace(0.0, t_max, n)
    return (u + t0, 1.2 + 0.3 * np.sin(0.9 * u), 0.4 * u + 0.2 * np.cos(1.3 * u),
            0.5 + 0.1 * np.sin(0.5 * u))


def sampled(n, t_max, theta, phi, R):
    """A path of n samples on [0, t_max] of the functions theta, phi and R of u."""
    u = np.linspace(0.0, t_max, n)
    return SampledPath(u, theta(u), phi(u), R(u))


# (a) many samples over a long window, (b) few samples per turn, (c) four samples
QUAD_PATHS = {
    "a": lambda: sampled(101, 188.0, lambda u: 1.5 + 0.3 * np.sin(0.5 * u),
                         lambda u: 0.3 * u + 0.5 * np.cos(0.4 * u),
                         lambda u: 0.5 + 0.1 * np.sin(0.3 * u)),
    "b": lambda: sampled(21, 60.0, lambda u: 1.5 + 0.5 * np.sin(0.7 * u),
                         lambda u: 0.8 * u + np.cos(0.9 * u),
                         lambda u: 0.5 + 0.2 * np.sin(0.6 * u)),
    "c": lambda: sampled(4, 3.0, lambda u: 1.2 + 0.3 * u, lambda u: u**2, lambda u: 0.5 + 0 * u),
    "d": lambda: SampledPath(*varied_samples()),
}


def span_end(path):
    """The last sample time of a sampled path, the end of the first turn of a precession."""
    return path.t_max if math.isfinite(path.t_max) else 2 * math.pi / abs(path.omega)


def quad_at_knots(f, path, t):
    """∫₀ᵗ f by adaptive quadrature split at the sample knots, where f is smooth between."""
    knots = path.t[(path.t > 0) & (path.t < t)]
    value, _ = quad(f, 0.0, t, points=knots, limit=2 * len(knots) + 50,
                    epsabs=1e-13, epsrel=1e-13)
    return value


class TestEigensystem:
    def test_north_pole(self):
        E_plus, E_minus, v_plus, v_minus = instantaneous_eigensystem(0.0, 0.0, 1.0)
        assert E_plus == 1.0 and E_minus == -1.0
        np.testing.assert_allclose(v_plus, [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(v_minus, [0.0, -1.0], atol=1e-15)

    def test_equator(self):
        _, _, v_plus, v_minus = instantaneous_eigensystem(math.pi / 2, 0.0, 1.0)
        r = 1 / math.sqrt(2)
        np.testing.assert_allclose(v_plus, [r, r], atol=1e-15)
        np.testing.assert_allclose(v_minus, [r, -r], atol=1e-15)

    @pytest.mark.parametrize("phi", [0.0, 0.7, 2.0, 5.5])
    def test_orthonormal_60deg(self, phi):
        _, _, v_plus, v_minus = instantaneous_eigensystem(math.radians(60), phi, 1.0)
        assert abs(np.linalg.norm(v_plus) - 1) <= 1e-12
        assert abs(np.linalg.norm(v_minus) - 1) <= 1e-12
        assert abs(v_plus.conj() @ v_minus) <= 1e-12

    @given(theta=st.floats(0.0, math.pi), phi=st.floats(0.0, 2 * math.pi))
    def test_orthonormality_and_gauge(self, theta, phi):
        _, _, v_plus, v_minus = instantaneous_eigensystem(theta, phi)
        assert abs(np.linalg.norm(v_plus) - 1) <= 1e-12
        assert abs(np.linalg.norm(v_minus) - 1) <= 1e-12
        assert abs(v_plus.conj() @ v_minus) <= 1e-12
        # gauge: first components real and non-negative
        assert v_plus[0].imag == 0 and v_plus[0].real >= 0
        assert v_minus[0].imag == 0 and v_minus[0].real >= 0

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            instantaneous_eigensystem(-0.1, 0.0)


class TestCoupling:
    def test_precessing_reference(self):
        frame = coupling_at(PrecessingPath(R=1.0, theta=math.radians(60), omega=1.0), 0.3)
        assert abs(frame.Gamma_minus.real) <= 1e-15
        assert abs(frame.Gamma_minus.imag + 0.43301270189221932) <= 1e-12
        assert abs(frame.delta - 1.5) <= 1e-12

    def test_degenerate_axis(self):
        frame = coupling_at(PrecessingPath(R=1.0, theta=0.0, omega=0.7), 1.0)
        assert frame.Gamma_minus == 0
        assert abs(frame.delta - (2.0 - 0.7)) <= 1e-15

    def test_detuning_consistency(self):
        for path in (PrecessingPath(R=1.3, theta=0.9, omega=0.5), wobble_path()):
            for t in (0.2, 1.0, 2.5):
                frame = coupling_at(path, t)
                E_plus, E_minus, _, _ = instantaneous_eigensystem(*path.state(t)[:3])
                other = (E_plus - E_minus) - (frame.gamma_rate_plus - frame.gamma_rate_minus)
                assert abs(frame.delta - other) <= 1e-12

    def _fd_frame(self, path, t, h):
        def vecs(u):
            th, ph = path.state(u)[:2]
            _, _, vp, vm = instantaneous_eigensystem(th, ph)
            return vp, vm

        vp_p, vm_p = vecs(t + h)
        vp_m, vm_m = vecs(t - h)
        vp, vm = vecs(t)
        return {
            "Gamma_minus": vp.conj() @ ((vm_p - vm_m) / (2 * h)),
            "gamma_rate_minus": -np.imag(vm.conj() @ ((vm_p - vm_m) / (2 * h))),
            "gamma_rate_plus": -np.imag(vp.conj() @ ((vp_p - vp_m) / (2 * h))),
        }

    def test_sampled_fd_oracle(self):
        path = wobble_path()
        for t in (0.0, 0.8, 2.0):
            frame = coupling_at(path, t)
            fd = self._fd_frame(path, t, 1e-5)
            assert abs(fd["Gamma_minus"] - frame.Gamma_minus) <= 1e-6
            assert abs(fd["gamma_rate_minus"] - frame.gamma_rate_minus) <= 1e-6
            assert abs(fd["gamma_rate_plus"] - frame.gamma_rate_plus) <= 1e-6

    def test_gamma_plus_identity_fd_path(self):
        # Gamma_+ = -Gamma_-^* holds for the finite-difference route too
        path = wobble_path()
        h = 1e-5
        for t in (0.5, 1.7):
            th_p, ph_p = path.state(t + h)[:2]
            th_m, ph_m = path.state(t - h)[:2]
            _, _, vp_p, vm_p = instantaneous_eigensystem(th_p, ph_p)
            _, _, vp_m, vm_m = instantaneous_eigensystem(th_m, ph_m)
            th, ph = path.state(t)[:2]
            _, _, vp, vm = instantaneous_eigensystem(th, ph)
            Gamma_minus_fd = vp.conj() @ ((vm_p - vm_m) / (2 * h))
            Gamma_plus_fd = vm.conj() @ ((vp_p - vp_m) / (2 * h))
            assert abs(Gamma_plus_fd + np.conj(Gamma_minus_fd)) <= 1e-8

    def test_fd_error_is_second_order(self):
        path = wobble_path()
        t = 1.0
        frame = coupling_at(path, t)
        err = [abs(self._fd_frame(path, t, h)["Gamma_minus"] - frame.Gamma_minus)
               for h in (1e-3, 5e-4)]
        assert 3.5 <= err[0] / err[1] <= 4.5


class TestBerryPhase:
    def test_zero_time(self):
        assert berry_phase(PrecessingPath(R=1.0, theta=0.8, omega=0.3), -1, 0.0) == 0.0

    def test_full_cycle_minus(self):
        path = PrecessingPath(R=1.0, theta=math.radians(60), omega=1.0)
        val = berry_phase(path, -1, 2 * math.pi)
        assert abs(val - (-3 * math.pi / 2)) <= 1e-12

    def test_full_cycle_plus_equator(self):
        path = PrecessingPath(R=1.0, theta=math.radians(90), omega=1.0)
        assert abs(berry_phase(path, +1, 2 * math.pi) - (-math.pi)) <= 1e-12

    def test_sampled_matches_closed_form(self):
        ts = np.linspace(0.0, 4.0, 401)
        theta0 = 1.0
        path = SampledPath(ts, np.full_like(ts, theta0), 0.5 * ts, np.ones_like(ts))
        ref = PrecessingPath(R=1.0, theta=theta0, omega=0.5)
        for level in (+1, -1):
            assert abs(berry_phase(path, level, 3.0)
                       - berry_phase(ref, level, 3.0)) <= 1e-9

    @pytest.mark.filterwarnings("error")
    def test_sampled_varied_path(self):
        # θ, φ and R all vary; the reference is a fine Simpson sum of γ̇±
        path = SampledPath(*varied_samples())
        u = np.linspace(0.0, 5.0, 200_001)
        theta, _, _, _, phi_dot = path.state(u)
        for level, half in ((+1, np.sin(theta / 2)), (-1, np.cos(theta / 2))):
            reference = simpson(-phi_dot * half**2, x=u)
            assert abs(berry_phase(path, level, 5.0) - reference) <= 1e-9

    @pytest.mark.parametrize("name", ["a", "b", "c"])
    def test_sampled_matches_quadrature(self, name):
        path = QUAD_PATHS[name]()
        for t in np.random.default_rng(30).uniform(0.0, path.duration, 12):
            for level, rate in ((+1, "gamma_rate_plus"), (-1, "gamma_rate_minus")):
                exact = quad_at_knots(lambda u: getattr(coupling_at(path, u), rate), path, t)
                assert abs(berry_phase(path, level, t) - exact) <= 1e-12

    def test_bad_level(self):
        with pytest.raises(ValueError):
            berry_phase(PrecessingPath(R=1.0, theta=0.8, omega=0.3), 0, 1.0)


@pytest.mark.parametrize("path", [PrecessingPath(R=0.5, theta=1.0, omega=0.6),
                                  SampledPath(*varied_samples())], ids=["precessing", "sampled"])
def test_times_outside_the_span_are_refused(path):
    # the span is [0, t_max]: a sampled path's duration, every t >= 0 on a precession;
    # past its last sample a sampled path's spline would extrapolate
    kernel = make_kernel(path)
    calls = {"berry_phase+": lambda t: berry_phase(path, +1, t),
             "berry_phase-": lambda t: berry_phase(path, -1, t),
             "sliced_propagator": lambda t: engine.sliced_propagator(path, t, 100).P_minus,
             "coupling_at": lambda t: coupling_at(path, t).delta,
             "F": kernel.F, "delta": kernel.delta, "gamma_rates": kernel.gamma_rates,
             "F of an array": lambda t: kernel.F(np.array([0.0, t]))}
    assert kernel.t_max == path.t_max
    for t in (-1.0, -1e-300, 1.5 * span_end(path), math.nan, 0.0, span_end(path)):
        for name, call in calls.items():
            if 0 <= t <= path.t_max:
                assert np.all(np.isfinite(call(t))), (name, t)
            else:
                with pytest.raises(ValueError, match="outside"):
                    call(t)


class TestKernel:
    @pytest.mark.parametrize("theta, omega", [(1.0, 0.6), (0.0, 0.7), (math.pi, -0.4), (1.2, 0.0)])
    def test_precessing_kernel_is_the_closed_form(self, theta, omega):
        # bit for bit the closed forms: F = Γ₋e^{iδ₀t}, Γ₋ = −(i/2)ω sinθ, δ₀ = 2R − ω cosθ,
        # γ̇₊ = −ω sin²(θ/2), γ̇₋ = −ω cos²(θ/2), at scalar times and arrays of times
        R = 0.5
        kernel = make_kernel(PrecessingPath(R=R, theta=theta, omega=omega))
        Gamma, delta0 = -0.5j * omega * np.sin(theta), 2 * R - omega * np.cos(theta)
        rates = (-omega * np.sin(theta / 2) ** 2, -omega * np.cos(theta / 2) ** 2)
        times = np.linspace(0.0, 40.0, 97)
        nodes = engine.gauss_nodes(times[:-1], times[1])  # read-only, as evolve passes them
        nodes.flags.writeable = False
        for t in (0.0, 3.7, 40.0, times, nodes):
            np.testing.assert_array_equal(kernel.F(t), Gamma * np.exp(1j * delta0 * t))
            np.testing.assert_array_equal(kernel.delta(t), delta0 + 0 * t)
            np.testing.assert_array_equal(kernel.gamma_rates(t), [r + 0 * t for r in rates])

    def test_static_environment(self):
        kernel = make_kernel(PrecessingPath(R=1.0, theta=1.0, omega=0.0))
        assert kernel.F(0.0) == 0 and kernel.F(3.7) == 0

    def test_magnitude_reference(self):
        kernel = make_kernel(PrecessingPath(R=1.0, theta=math.radians(60), omega=0.6))
        for t in (0.0, 1.3, 7.7):
            assert abs(abs(kernel.F(t)) - 0.25980762113533158) <= 1e-12

    def test_phase_advance(self):
        kernel = make_kernel(PrecessingPath(R=1.0, theta=math.radians(60), omega=0.6))
        adv = np.angle(kernel.F(1.0)) - np.angle(kernel.F(0.0))
        assert abs(adv - 1.7) <= 1e-12

    def test_magnitude_identity_sampled(self):
        path = wobble_path()
        kernel = make_kernel(path)
        for t in (0.1, 1.1, 2.3):
            assert abs(abs(kernel.F(t)) - abs(coupling_at(path, t).Gamma_minus)) <= 1e-12

    def test_delta_integral_consistency(self):
        path = wobble_path()
        kernel = make_kernel(path)

        def phase_factor(u):  # e^{i∫δ} = F/Γ₋
            return kernel.F(u) / coupling_at(path, u).Gamma_minus

        # d/dt of the accumulated phase equals delta
        h = 1e-5
        for t in (0.5, 1.5):
            deriv = np.angle(phase_factor(t + h) * np.conj(phase_factor(t - h))) / (2 * h)
            assert abs(deriv - kernel.delta(t)) <= 1e-6


@pytest.mark.parametrize("path", [PrecessingPath(R=1.0, theta=1.0, omega=0.6),
                                  SampledPath(*varied_samples())], ids=["precessing", "sampled"])
def test_kernel_members_take_arrays_of_times(path):
    kernel = make_kernel(path)
    ts = np.linspace(0.0, 5.0, 12)
    for name in ("F", "delta", "gamma_rates"):
        member = getattr(kernel, name)
        values = np.asarray(member(ts))
        pointwise = np.array([member(t) for t in ts]).T
        assert values.shape == pointwise.shape
        np.testing.assert_allclose(values, pointwise, rtol=1e-14, atol=1e-15)
        grid = np.asarray(member(ts.reshape(3, 4)))
        np.testing.assert_array_equal(grid, values.reshape(values.shape[:-1] + (3, 4)))


class TestSampledKernelOracle:
    """The sampled kernel against a composition of three separate splines."""

    T0 = 1.7

    @pytest.fixture(scope="class")
    def setup(self):
        t, theta, phi, R = varied_samples(self.T0)
        u = t - t[0]
        th, ph, r = CubicSpline(u, theta), CubicSpline(u, phi), CubicSpline(u, R)
        th_dot, ph_dot = th.derivative(), ph.derivative()

        def reference(v):
            theta, theta_dot, phi_dot = float(th(v)), float(th_dot(v)), float(ph_dot(v))
            Gamma = theta_dot / 2 - 0.5j * phi_dot * math.sin(theta)
            delta = 2 * float(r(v)) - phi_dot * math.cos(theta)
            rates = (-phi_dot * math.sin(theta / 2) ** 2, -phi_dot * math.cos(theta / 2) ** 2)
            return Gamma, delta, rates

        path = SampledPath(t, theta, phi, R)
        return path, make_kernel(path), reference, u

    def test_members_match_composition(self, setup):
        path, kernel, reference, _ = setup
        times = np.random.default_rng(20).uniform(0.0, path.duration, 200)
        for v in times:
            Gamma, delta, (g_plus, g_minus) = reference(v)
            assert abs(abs(kernel.F(v)) - abs(Gamma)) <= 1e-13
            assert abs(kernel.delta(v) - delta) <= 1e-13
            rates = kernel.gamma_rates(v)
            assert abs(rates[0] - g_plus) <= 1e-13 and abs(rates[1] - g_minus) <= 1e-13

    def test_delta_integral_matches_quadrature(self, setup):
        # F = Γ₋·e^{i∫δ}, with ∫δ by adaptive quadrature of the composition
        path, kernel, reference, knots = setup
        assert abs(kernel.F(0.0) - reference(0.0)[0]) <= 1e-13
        for v in np.random.default_rng(21).uniform(0.0, path.duration, 5):
            # δ is smooth between the sample knots, so quad splits there
            exact, _ = quad(lambda w: reference(w)[1], 0.0, v, limit=500,
                            points=knots[(knots > 0) & (knots < v)], epsabs=1e-13, epsrel=1e-13)
            assert abs(kernel.F(v) - reference(v)[0] * np.exp(1j * exact)) <= 1e-10

    def test_array_state_matches_scalar(self, setup):
        for path in (setup[0], PrecessingPath(R=0.5, theta=1.1, omega=-0.7)):
            times = np.random.default_rng(22).uniform(0.0, span_end(path), 50)
            columns = path.state(times)
            for i, v in enumerate(times):
                assert [c[i] for c in columns] == list(path.state(v))
            grid = path.state(times.reshape(5, 10))  # in the shape of t
            for column, c in zip(grid, columns):
                np.testing.assert_array_equal(column, c.reshape(5, 10))

    def test_sliced_propagator_matches_pointwise_product(self, setup):
        path = setup[0]
        t, n = 4.0, 400
        eps = t / n
        U = np.eye(2, dtype=complex)
        for k in range(1, n + 1):
            theta, phi, R, _, _ = path.state(k * eps)
            H = R * np.array([[math.cos(theta), math.sin(theta) * np.exp(-1j * phi)],
                              [math.sin(theta) * np.exp(1j * phi), -math.cos(theta)]])
            U = (np.eye(2) - 1j * eps * H) @ U
        assert np.max(np.abs(engine.sliced_propagator(path, t, n).U - U)) <= 1e-13


@pytest.mark.parametrize("name", sorted(QUAD_PATHS))
def test_sampled_phase_matches_quadrature(name):
    # F = Γ₋e^{i∫δ} at 12 seeded times, ∫δ by adaptive quadrature of the path's δ
    path = QUAD_PATHS[name]()
    kernel = make_kernel(path)
    for t in np.random.default_rng(31).uniform(0.0, path.duration, 12):
        phase = quad_at_knots(lambda u: float(kernel.delta(u)), path, t)
        assert abs(kernel.F(t) - coupling_at(path, t).Gamma_minus * np.exp(1j * phase)) <= 1e-12


@settings(max_examples=15, deadline=None)
@given(t0=st.floats(0.0, 10.0))
def test_sampled_time_shift_invariance(t0):
    # a sampled path measures time from its first sample, so shifting every
    # sample time by t0 leaves the amplitudes unchanged; tol 1e-12 keeps the
    # integrator's own error (about 1e-8 at tol 1e-10 on this path) below 1e-9
    ends = []
    for shift in (0.0, t0):
        path = SampledPath(*varied_samples(shift, t_max=3.0, n=61))
        S, _ = engine.evolve(make_kernel(path), path.duration, tol=1e-12).amplitudes(
            path.duration)
        ends.append(complex(S))
    assert abs(ends[0] - ends[1]) <= 1e-9


SHARED_PATHS = {"sampled": lambda: SampledPath(*varied_samples(n=61)),
                "precessing": lambda: PrecessingPath(R=0.5, theta=1.0, omega=0.3)}


class TestSharedEvaluation:
    """A kernel's members share one path evaluation per level of ``evolve``."""

    MEMBERS = ("F", "delta", "gamma_rates")

    @pytest.mark.parametrize("kind", sorted(SHARED_PATHS))
    def test_one_state_call_per_level(self, kind):
        path = SHARED_PATHS[kind]()
        calls = []
        state = path.state
        # an instance patch, seen by the kernel; the precession is a frozen dataclass
        object.__setattr__(path, "state", lambda t: calls.append(t) or state(t))
        traj = engine.evolve(make_kernel(path), span_end(path))
        assert traj.stats["doublings"] >= 1
        assert len(calls) == traj.stats["doublings"] + 2  # ∫δ, then one per level

    @pytest.mark.parametrize("kind", sorted(SHARED_PATHS))
    def test_sharing_leaves_the_trajectory_bit_identical(self, kind):
        path = SHARED_PATHS[kind]()
        kernel = make_kernel(path)
        # np.array(t) is a writable copy, which the members never share
        fresh = CouplingKernel(**{name: (lambda f: lambda t: f(np.array(t)))(getattr(kernel, name))
                                  for name in self.MEMBERS}, t_max=kernel.t_max)
        shared, unshared = (engine.evolve(k, span_end(path)) for k in (kernel, fresh))
        np.testing.assert_array_equal(engine.trajectory_table(shared),
                                      engine.trajectory_table(unshared))
        assert shared.stats == unshared.stats

    def test_read_only_arrays_are_shared_while_they_live(self):
        path = SampledPath(*varied_samples(n=61))
        kernel = make_kernel(path)
        calls = []  # a weak reference to each evaluation's θ
        state = path.state

        def counted(t):
            value = state(t)
            calls.append(weakref.ref(value[0]) if isinstance(t, np.ndarray) else None)
            return value

        path.state = counted
        nodes = np.linspace(0.0, path.duration, 40).copy()  # a copy owns its data
        nodes.flags.writeable = False
        for name in self.MEMBERS:
            getattr(kernel, name)(nodes)
        assert len(calls) == 1
        view = nodes[::2]  # read-only, but a view: its base could change under it
        kernel.F(view), kernel.delta(view)
        writable = np.linspace(0.0, path.duration, 40)
        kernel.F(writable), kernel.delta(writable)
        kernel.F(1.0), kernel.delta(1.0)
        assert len(calls) == 7
        assert calls[0]() is not None  # the shared state is held while its times live
        del nodes, view
        assert calls[0]() is None
        other = np.linspace(0.0, path.duration, 40).copy()
        other.flags.writeable = False
        kernel.delta(other)
        assert len(calls) == 8

    def test_threads_get_what_one_thread_gets(self):
        # four threads on two cores, switching often, run evolve on one shared kernel, each
        # to its own end time, and read amplitudes at their own times; all as one thread gets
        path = SampledPath(*varied_samples(n=61))
        kernel = make_kernel(path)
        ends = [path.duration * (0.4 + 0.2 * i) for i in range(4)]
        trajs = [engine.evolve(kernel, t_end) for t_end in ends]
        times = [np.random.default_rng(i).uniform(0.0, t_end, 64) for i, t_end in enumerate(ends)]
        expected = [(engine.trajectory_table(traj), traj.amplitudes(t))
                    for traj, t in zip(trajs, times)]
        got = [None] * 4
        barrier = threading.Barrier(4)

        def work(i):
            barrier.wait()
            got[i] = ([engine.trajectory_table(engine.evolve(kernel, ends[i])) for _ in range(10)],
                      [trajs[i].amplitudes(times[i]) for _ in range(20)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for (tables, reads), (table, (S, I)) in zip(got, expected):
            for other in tables:
                np.testing.assert_array_equal(other, table)
            for S_read, I_read in reads:
                np.testing.assert_array_equal(S_read, S)
                np.testing.assert_array_equal(I_read, I)


@settings(max_examples=40, deadline=None)
@given(spacings=st.lists(st.floats(1e-3, 10.0), min_size=3, max_size=800),
       seed=st.integers(0, 2**32 - 1))
def test_spline_coefficients_are_cubic_splines(spacings, seed):
    # the path spline's (θ, φ, R) coefficients and its rates' are CubicSpline's, bit for bit
    t = np.concatenate([[0.0], np.cumsum(spacings)])
    rng = np.random.default_rng(seed)
    columns = np.column_stack([rng.uniform(0.2, 2.9, len(t)), rng.normal(0.0, 5.0, len(t)),
                               rng.uniform(0.1, 2.0, len(t))])
    spline = SampledPath(t, *columns.T)._spline
    oracle = CubicSpline(t, columns)
    np.testing.assert_array_equal(spline.x, oracle.x)
    np.testing.assert_array_equal(spline.c[:, :, :3], oracle.c)
    np.testing.assert_array_equal(spline.c[1:, :, 3:], oracle.derivative().c[:, :, :2])
    np.testing.assert_array_equal(spline.c[0, :, 3:], 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the spline system
def test_spline_refuses_a_system_that_is_not_finite():
    # sample times of order 1e300 overflow the slope system, which the banded solve refuses
    with pytest.raises(ValueError):
        SampledPath(np.arange(6) * 1e300, np.full(6, 1.2), np.arange(6.0), np.full(6, 0.5))


class TestPathValidation:
    def test_precessing_invariants(self):
        with pytest.raises(ValueError):
            PrecessingPath(R=0.0, theta=1.0, omega=1.0)
        with pytest.raises(ValueError):
            PrecessingPath(R=1.0, theta=3.5, omega=1.0)
        PrecessingPath(R=1.0, theta=0.0, omega=1.0)  # degenerate coupling allowed

    @pytest.mark.parametrize("R,omega", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
        (1e308, 0.0), (1e307, -1.7e308),  # δ = 2R − ω cosθ can overflow
    ])
    def test_precessing_rejects_non_finite(self, R, omega):
        with pytest.raises(ValueError):
            PrecessingPath(R=R, theta=1.0, omega=omega)

    @pytest.mark.parametrize("column", range(4))
    def test_sampled_rejects_non_finite(self, column):
        samples = [np.array(c) for c in varied_samples()]
        samples[column][5] = math.nan
        with pytest.raises(ValueError, match="finite"):
            SampledPath(*samples)

    def test_sampled_time_starts_at_first_sample(self):
        path = SampledPath(*varied_samples(t0=2.5))
        reference = SampledPath(*varied_samples())
        assert path.t[0] == 0.0 and path.duration == pytest.approx(6.0)
        assert path.state(1.0) == pytest.approx(reference.state(1.0), abs=1e-13)

    def test_gauge_check_on_interpolant(self):
        ts = np.arange(8.0)
        path = SampledPath(ts, [1.0, 1.0, 1.0, 3.14, 3.14, 1.0, 1.0, 1.0], 0.3 * ts,
                           np.full(8, 0.5))
        with pytest.raises(GaugeSingularityError):
            path.state(3.5)
        with pytest.raises(GaugeSingularityError):
            make_kernel(path)

    def test_sampled_rejects_gauge_violations(self):
        ts = np.linspace(0.0, 1.0, 10)
        with pytest.raises(GaugeSingularityError):
            SampledPath(ts, np.linspace(-0.1, 1.0, 10), ts, np.ones_like(ts))
        with pytest.raises(ValueError):
            SampledPath(ts, np.full_like(ts, 1.0), ts, np.zeros_like(ts))
        with pytest.raises(ValueError):
            SampledPath(ts[::-1], np.full_like(ts, 1.0), ts, np.ones_like(ts))

    def test_csv_roundtrip(self, tmp_path):
        f = tmp_path / "path.csv"
        ts = np.linspace(0.0, 2.0, 21)
        rows = "\n".join(f"{t},{1.2},{0.4 * t},{1.0}" for t in ts)
        f.write_text("t,theta,phi,R\n" + rows + "\n")
        path = load_path_csv(f)
        assert path.duration == pytest.approx(2.0)
        theta, phi = path.state(1.0)[:2]
        assert theta == pytest.approx(1.2)
        assert phi == pytest.approx(0.4)

    @pytest.mark.parametrize("text", ["", "t,theta,phi,R\n", "t,theta,phi,R\n" + "".join(
        f"{i},1.2,{0.3 * i}\n" for i in range(6))], ids=["empty", "header_only", "three_columns"])
    def test_csv_rejects_files_without_four_columns_of_rows(self, tmp_path, text):
        f = tmp_path / "path.csv"
        f.write_text(text)
        with pytest.raises(ValueError):
            load_path_csv(f)

    def test_csv_rejects_bad_header(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("time,theta,phi,R\n0,1,0,1\n")
        with pytest.raises(ValueError):
            load_path_csv(f)
