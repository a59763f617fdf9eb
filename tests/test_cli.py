import json
import subprocess
import sys

import numpy as np
import pytest


def run_cli(*args, cwd=None, timeout=None):
    return subprocess.run([sys.executable, "-m", "nadphase", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=timeout)


def write_path(file, thetas, dt=1.0):
    rows = "\n".join(f"{i * dt},{th},{0.3 * i * dt},0.5" for i, th in enumerate(thetas))
    file.write_text("t,theta,phi,R\n" + rows + "\n")


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


class TestEvolveCommand:
    def test_zero_coupling_rows(self, tmp_path):
        out = tmp_path / "t.csv"
        res = run_cli("evolve", "--theta-deg", "60", "--x", "0", "--tau", "10",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        header, data = read_csv(out)
        assert header == ["t", "Re_S", "Im_S", "Re_I", "Im_I", "rho", "A",
                          "unitarity_defect"]
        np.testing.assert_allclose(data[:, 1], 1.0, atol=1e-12)
        np.testing.assert_allclose(data[:, 2], 0.0, atol=1e-12)

    def test_sampled_path_input(self, tmp_path):
        path_file = tmp_path / "path.csv"
        ts = np.linspace(0.0, 5.0, 51)
        rows = "\n".join(f"{t},{1.2},{0.3 * t},{0.5}" for t in ts)
        path_file.write_text("t,theta,phi,R\n" + rows + "\n")
        out = tmp_path / "t.csv"
        res = run_cli("evolve", "--path-file", str(path_file), "--tau", "5",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        _, data = read_csv(out)
        assert np.max(data[:, 7]) <= 1e-9

    def test_tau_beyond_path_duration_rejected(self, tmp_path):
        path_file = tmp_path / "path.csv"
        ts = np.linspace(0.0, 1.0, 11)
        rows = "\n".join(f"{t},{1.2},{0.3 * t},{0.5}" for t in ts)
        path_file.write_text("t,theta,phi,R\n" + rows + "\n")
        res = run_cli("evolve", "--path-file", str(path_file), "--tau", "5",
                      "--out", str(tmp_path / "t.csv"))
        assert res.returncode == 2


class TestPhaseSweepCommand:
    def test_figure1_output(self, tmp_path):
        out = tmp_path / "fig1.csv"
        res = run_cli("phase-sweep", "--theta-deg", "60", "--xf", "0.3", "--s", "1",
                      "--grid", "512", "--out", str(out))
        assert res.returncode == 0, res.stderr
        header, data = read_csv(out)
        assert header == ["x", "rho_exact", "rho_first_iter", "rho_berry", "epsilon"]
        assert data.shape == (512, 5)
        assert data[0, 1] == 0.0
        assert abs(data[-1, 1] - 0.41158623) <= 1e-6
        assert abs(data[-1, 4] - 0.88930359) <= 1e-6

    def test_byte_identical_reruns(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            res = run_cli("phase-sweep", "--theta-deg", "60", "--xf", "0.3",
                          "--grid", "64", "--out", str(out))
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEigenCommand:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "eig.json"
        res = run_cli("eigen", "--theta-deg", "90", "--phi-deg", "0", "--r", "1",
                      "--omega", "1", "--out", str(out))
        assert res.returncode == 0, res.stderr
        payload = json.loads(out.read_text())
        r = 1 / np.sqrt(2)
        assert payload["E_plus"] == 1.0
        np.testing.assert_allclose(payload["v_plus"], [[r, 0.0], [r, 0.0]], atol=1e-12)
        assert payload["delta"] == pytest.approx(2.0)
        np.testing.assert_allclose(payload["Gamma_minus"], [0.0, -0.5], atol=1e-12)

    def test_stdout_default(self):
        res = run_cli("eigen", "--theta-deg", "0")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["v_minus"] == [[0.0, 0.0], [-1.0, 0.0]]


class TestNmrCommand:
    def test_table(self, tmp_path):
        out = tmp_path / "nmr.csv"
        res = run_cli("nmr", "--theta-deg", "60", "--x", "0.3", "--n", "3",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        header, data = read_csv(out)
        assert header == ["n", "x", "theta_deg", "Mx_exact", "Mx_approx",
                          "arg_exact", "arg_approx", "A2"]
        assert data.shape == (3, 8)
        np.testing.assert_allclose(data[:, 0], [1, 2, 3])
        assert np.all(data[:, 7] <= 1.0)


class TestConfigFile:
    def test_config_matches_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": "phase-sweep", "theta_deg": 60.0, "x_f": 0.3,
            "s": 1.0, "grid": 64, "out": str(tmp_path / "from_config.csv"),
        }))
        res = run_cli("--config", str(cfg))
        assert res.returncode == 0, res.stderr
        res = run_cli("phase-sweep", "--theta-deg", "60", "--xf", "0.3",
                      "--grid", "64", "--out", str(tmp_path / "from_flags.csv"))
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "from_config.csv").read_bytes() == \
               (tmp_path / "from_flags.csv").read_bytes()

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"theta_deg": 60.0, "x_f": 0.3, "grid": 512}))
        out = tmp_path / "o.csv"
        res = run_cli("phase-sweep", "--config", str(cfg), "--grid", "16",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        _, data = read_csv(out)
        assert data.shape[0] == 16


class TestExitCodes:
    def test_unknown_flag(self):
        assert run_cli("evolve", "--bogus", "1").returncode == 2

    def test_missing_required(self, tmp_path):
        res = run_cli("evolve", "--theta-deg", "60", "--x", "0.1",
                      "--out", str(tmp_path / "t.csv"))
        assert res.returncode == 2  # no --tau

    def test_tol_out_of_range(self, tmp_path):
        res = run_cli("evolve", "--theta-deg", "60", "--x", "0.1", "--tau", "1",
                      "--tol", "1e-3", "--out", str(tmp_path / "t.csv"))
        assert res.returncode == 2

    def test_unwritable_output(self):
        res = run_cli("eigen", "--theta-deg", "60", "--out",
                      "/nonexistent-dir/x.json")
        assert res.returncode == 4

    def test_no_command(self):
        assert run_cli().returncode == 2

    @pytest.mark.parametrize("args", [
        ("evolve", "--theta-deg", "60", "--x", "nan", "--tau", "3"),
        ("evolve", "--theta-deg", "60", "--x", "inf", "--tau", "3"),
        ("evolve", "--theta-deg", "60", "--x", "0.3", "--tau", "inf"),
        ("evolve", "--theta-deg", "60", "--x", "0.3", "--tau", "nan"),
        ("evolve", "--theta-deg", "60", "--x", "0.3", "--tau", "-5"),
        ("eigen", "--theta-deg", "60", "--omega", "nan"),
    ])
    def test_non_finite_or_negative_input(self, tmp_path, args):
        res = run_cli(*args, "--out", str(tmp_path / "o.csv"), timeout=30)
        assert res.returncode == 2, res.stderr
        assert "configuration error" in res.stderr

    @pytest.mark.parametrize("thetas", [
        [1.2, 1.2, float("nan"), 1.2, 1.2],   # a non-finite sample
        [1.2, 1.2, 3.5, 1.2, 1.2],            # a sample outside (0, pi)
    ])
    def test_bad_path_file(self, tmp_path, thetas):
        path_file = tmp_path / "path.csv"
        write_path(path_file, thetas)
        res = run_cli("evolve", "--path-file", str(path_file), "--tau", "2",
                      "--out", str(tmp_path / "t.csv"), timeout=30)
        assert res.returncode == 2, res.stderr

    def test_gauge_failure_in_numerics_is_numerical(self, tmp_path):
        # every sample is inside (0, pi), but the interpolant overshoots pi
        path_file = tmp_path / "path.csv"
        write_path(path_file, [1.0, 1.0, 1.0, 3.14, 3.14, 1.0, 1.0, 1.0])
        res = run_cli("evolve", "--path-file", str(path_file), "--tau", "5",
                      "--out", str(tmp_path / "t.csv"), timeout=30)
        assert res.returncode == 3, res.stderr
        assert "outside (0, pi)" in res.stderr
