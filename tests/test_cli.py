import contextlib
import io
import json
import math
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nadphase import _fmt, cli, engine, rotating


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

    def test_zero_tau_writes_one_row(self, tmp_path):
        out = tmp_path / "t.csv"
        res = run_cli("evolve", "--theta-deg", "40", "--x", "0.3", "--tau", "0",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        assert out.read_text().splitlines()[1:] == ["0,1,0,0,0,0,1,0"]
        # e² overflows at x = 1e300, but τ = 0 is one node: no step, and no step budget
        assert cli.main(["evolve", "--theta-deg", "60", "--x", "1e300", "--tau", "0",
                         "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1:] == ["0,1,0,0,0,0,1,0"]

    def test_long_precession_runs(self, tmp_path):
        # the steps follow a precession exactly, so 4,000 time units take 2,048
        # steps (the quarter-turn rule), where lab-frame steps ran out of budget
        out = tmp_path / "t.csv"
        assert cli.main(["evolve", "--theta-deg", "60", "--x", "0.3", "--tau", "4000",
                         "--out", str(out)]) == 0
        _, data = read_csv(out)
        assert len(data) == 2049 and data[-1, 0] == 4000
        exact = rotating.exact_S(0.3, math.radians(60), data[:, 0])
        assert np.max(np.abs(data[:, 1] + 1j * data[:, 2] - exact)) <= 1e-8

    def test_tau_beyond_path_duration_rejected(self, tmp_path):
        path_file = tmp_path / "path.csv"
        ts = np.linspace(0.0, 1.0, 11)
        rows = "\n".join(f"{t},{1.2},{0.3 * t},{0.5}" for t in ts)
        path_file.write_text("t,theta,phi,R\n" + rows + "\n")
        res = run_cli("evolve", "--path-file", str(path_file), "--tau", "5",
                      "--out", str(tmp_path / "t.csv"))
        assert res.returncode == 2


def test_csv_values_have_12_significant_digits():
    rng = np.random.default_rng(0)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1.7976931348623157e308]
    values = special + list(rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 300, 2000))
    text = _fmt.csv_text(["a", "b"], np.reshape(values, (-1, 2)))
    assert text == "a,b\n" + "".join(f"{a:.12g},{b:.12g}\n" for a, b in zip(*[iter(values)] * 2))


def test_written_csv_is_the_csv_text(tmp_path):
    # write_csv streams its rows; the file holds the bytes csv_text builds whole
    from nadphase import nmr
    table = nmr.magnetization_table(0.3, math.radians(60.0), 7)
    _fmt.write_csv(tmp_path / "m.csv", nmr.MAGNETIZATION_HEADER, table)
    text = _fmt.csv_text(nmr.MAGNETIZATION_HEADER, table)
    assert (tmp_path / "m.csv").read_bytes() == text.encode()
    assert text.count("\n") == 8 and not text.endswith("\n\n")


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


# per command: the fields of a config file, and the same run as flags
CONFIG_RUNS = {
    "eigen": ({"theta_deg": 60, "phi_deg": 10, "r": 1.3, "omega": 0.4},
              ["--theta-deg", "60", "--phi-deg", "10", "--r", "1.3", "--omega", "0.4"]),
    "evolve": ({"theta_deg": 60, "x": 0.3, "tau": 5, "tol": "1e-9"},
               ["--theta-deg", "60", "--x", "0.3", "--tau", "5", "--tol", "1e-9"]),
    "phase-sweep": ({"theta_deg": 60.0, "x_f": 0.3, "s": 1.0, "grid": 64},
                    ["--theta-deg", "60", "--xf", "0.3", "--grid", "64"]),
    "nmr": ({"theta_deg": 30, "x": 0.3, "n": 5}, ["--theta-deg", "30", "--x", "0.3", "--n", "5"]),
    "validate": ({"tol": 1e-10}, []),
}


class TestConfigFile:
    @pytest.mark.parametrize("command", sorted(CONFIG_RUNS))
    def test_config_matches_flags(self, tmp_path, command):
        fields, flags = CONFIG_RUNS[command]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "command": command, **fields, "out": str(tmp_path / "from_config"),
        }))
        from_config = run_cli("--config", str(cfg))
        from_flags = run_cli(command, *flags, "--out", str(tmp_path / "from_flags"))
        assert from_config.returncode == from_flags.returncode, from_config.stderr
        assert from_flags.returncode == (3 if command == "validate" else 0), from_flags.stderr
        assert (tmp_path / "from_config").read_bytes() == \
               (tmp_path / "from_flags").read_bytes()

    def test_flags_override_config(self, tmp_path):
        # the command in argv wins over the file's, and a flag over a field
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"command": "nmr", "theta_deg": 60.0, "x_f": 0.3,
                                   "grid": 512}))
        out = tmp_path / "o.csv"
        res = run_cli("phase-sweep", "--config", str(cfg), "--grid", "16",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        header, data = read_csv(out)
        assert header[0] == "x" and data.shape[0] == 16

    @pytest.mark.parametrize("command, fields", [
        ("phase-sweep", {"grid": "many"}),
        ("nmr", {"x": [1]}),
        ("nmr", {"out": None}),
        ("nmr", {"theta_deg": True}),
        ("nmr", {"n": {"value": 2}}),
        ("nmr", {"grid": 64}),     # a field of another command
        ("nmr", {"x_f": 0.3}),
        ("evolve", {"x_f": 0.3}),
        ("phase-sweep", {"x": 0.3}),
    ])
    def test_mistyped_or_foreign_field_exits_2(self, tmp_path, command, fields):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(fields))
        base = {"phase-sweep": ["--xf", "0.3"], "nmr": ["--x", "0.3"],
                "evolve": ["--x", "0.3", "--tau", "1"]}[command]
        res = run_cli(command, "--theta-deg", "60", *base, "--config", str(cfg),
                      "--out", "o.csv", cwd=tmp_path, timeout=30)
        assert res.returncode == 2, res.stderr
        assert "configuration error" in res.stderr or "error: argument" in res.stderr
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_config_without_a_file(self):
        res = run_cli("nmr", "--theta-deg", "60", "--x", "0.3", "--config")
        assert res.returncode == 2
        assert "error: argument --config" in res.stderr


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

    def test_unwritable_output_fails_before_the_numerics(self, tmp_path, capsys):
        start = time.perf_counter()
        assert cli.main(["validate", "--out", str(tmp_path / "no-dir" / "x.json")]) == 4
        assert time.perf_counter() - start <= 0.2
        assert "I/O error" in capsys.readouterr().err

    def test_no_command(self):
        assert run_cli().returncode == 2

    @pytest.mark.parametrize("args", [
        ("evolve", "--theta-deg", "60", "--x", "nan", "--tau", "3"),
        ("evolve", "--theta-deg", "60", "--x", "inf", "--tau", "3"),
        ("evolve", "--theta-deg", "60", "--x", "0.3", "--tau", "inf"),
        ("evolve", "--theta-deg", "60", "--x", "0.3", "--tau", "nan"),
        ("evolve", "--theta-deg", "60", "--x", "0.3", "--tau", "-5"),
        ("eigen", "--theta-deg", "60", "--omega", "nan"),
        ("eigen", "--theta-deg", "60", "--r", "nan"),
        ("eigen", "--theta-deg", "60", "--r", "-1"),
        ("eigen", "--theta-deg", "60", "--r", "0"),
        ("eigen", "--theta-deg", "60", "--phi-deg", "inf"),
        ("eigen", "--theta-deg", "200"),
        ("eigen", "--theta-deg", "nan"),
        ("nmr", "--theta-deg", "60", "--x", "0.3", "--n", "1000000000"),
        ("nmr", "--theta-deg", "60", "--x", "nan"),
        ("nmr", "--theta-deg", "60", "--x", "inf"),
        ("nmr", "--theta-deg", "nan", "--x", "0.3"),
        ("nmr", "--theta-deg", "0", "--x", "1"),
        ("nmr", "--theta-deg", "200", "--x", "0.3"),
        ("nmr", "--theta-deg", "60", "--x", "0.3", "--n", "0"),
        ("nmr", "--theta-deg", "60", "--x", "0.3", "--n", "-3"),
        ("nmr", "--theta-deg", "60", "--x", "0"),
        ("nmr", "--theta-deg", "60", "--x", "-0.3"),
        ("phase-sweep", "--theta-deg", "60", "--xf", "nan"),
        ("phase-sweep", "--theta-deg", "nan", "--xf", "0.3"),
        ("phase-sweep", "--theta-deg", "60", "--xf", "0.3", "--s", "1e300"),
        ("phase-sweep", "--theta-deg", "60", "--xf", "1e-300"),
        ("phase-sweep", "--theta-deg", "60", "--xf", "0.3", "--grid", "10000000000"),
        ("phase-sweep", "--theta-deg", "200", "--xf", "0.3"),
        ("phase-sweep", "--theta-deg", "-1", "--xf", "0.3"),
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

    def test_gauge_failure_between_samples_is_a_configuration_error(self, tmp_path):
        # every sample is inside (0, pi), but the interpolant overshoots pi: refused at build
        path_file = tmp_path / "path.csv"
        write_path(path_file, [1.0, 1.0, 1.0, 3.14, 3.14, 1.0, 1.0, 1.0])
        res = run_cli("evolve", "--path-file", str(path_file), "--tau", "5",
                      "--out", str(tmp_path / "t.csv"), timeout=30)
        assert res.returncode == 2, res.stderr
        assert "configuration error" in res.stderr and "outside (0, pi)" in res.stderr


# In-process fuzzing of cli.main: seeded argument vectors, each a valid call
# of one subcommand with one or two flags dropped or set to a non-finite,
# negative, huge, tiny or malformed value, a bad path file or a bad config.
FUZZ_SEED = 1
FUZZ_CASES = 60
CASE_SECONDS = 5.0  # evolve's step budget ends a run in about 1.4 s
FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "-1e300", "0.3", "2.5", "60", "x"]
INTS = ["-2", "0", "1", "3", "2.5", "nan", "1000000000", "10000000000"]
VALID = {
    "eigen": {"--theta-deg": "60", "--phi-deg": "10", "--r": "1", "--omega": "0.4"},
    "evolve": {"--theta-deg": "60", "--x": "0.3", "--tau": "5", "--tol": "1e-10"},
    "phase-sweep": {"--theta-deg": "60", "--xf": "0.3", "--s": "1", "--grid": "64",
                    "--tol": "1e-10"},
    "nmr": {"--theta-deg": "60", "--x": "0.3", "--n": "3"},
    "validate": {"--tol": "1e-10"},
}
SMOOTH = [f"{0.5 * i},{1.2 + 0.1 * i},{0.3 * i},0.5" for i in range(12)]
PATH_FILES = {
    "good": SMOOTH,
    "bad_header": ["t,theta,phi"] + SMOOTH,
    "empty": None,
    "header_only": [],
    "text": SMOOTH[:5] + ["1e9,abc,0,0.5"],
    "non_monotone": ["0,1.2,0,0.5", "1,1.2,0,0.5", "0.5,1.2,0,0.5", "2,1.2,0,0.5", "3,1.2,0,0.5"],
    "repeated_t": ["0,1.2,0,0.5", "1,1.2,0,0.5", "1,1.2,0,0.5", "2,1.2,0,0.5", "3,1.2,0,0.5"],
    "three_rows": SMOOTH[:3],
    "three_columns": [row.rsplit(",", 1)[0] for row in SMOOTH],
    "ragged": SMOOTH[:5] + ["3,1.2,0"],
    "nan": SMOOTH[:5] + ["3,nan,0,0.5"] + SMOOTH[7:],
    "negative_R": SMOOTH[:5] + ["3,1.2,0,-0.5"] + SMOOTH[7:],
    "overshoot": [f"{i},{th},{0.3 * i},0.5" for i, th in enumerate([1, 1, 1, 3.14, 3.14, 1, 1, 1])],
    "huge_t": [f"{i}e300,1.2,{i},0.5" for i in range(6)],
}
MALFORMED = sorted(set(PATH_FILES) - {"good"})


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on huge_t
@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_path_file_is_a_configuration_error(tmp_path, capsys, name):
    rows = PATH_FILES[name]
    path = tmp_path / "path.csv"
    path.write_text("" if rows is None else "\n".join(["t,theta,phi,R"] + rows) + "\n")
    assert cli.main(["evolve", f"--path-file={path}", "--tau=2",
                     f"--out={tmp_path / 'out.csv'}"]) == 2
    assert "configuration error" in capsys.readouterr().err


CONFIGS = {"not_json": "{", "a_list": "[1, 2]", "unknown_field": '{"bogus": 1}',
           "wrong_type": '{"grid": "many", "x": [1]}', "nmr": '{"command": "nmr", "n": 2}'}


def _fuzz_argv(rng, files):
    command = rng.choice(sorted(VALID))
    flags = dict(VALID[command])
    candidates = sorted(flags) + {"evolve": ["--path-file"]}.get(command, [])
    for flag in rng.sample(candidates, min(rng.choice([1, 2]), len(candidates))):
        if flag in flags and rng.random() < 0.2:
            del flags[flag]
        else:
            pool = {"--grid": INTS, "--n": INTS, "--path-file": files["paths"]}.get(flag, FLOATS)
            flags[flag] = rng.choice(pool)
    argv = [command] + [f"{flag}={value}" for flag, value in flags.items()]
    argv.append(f"--out={files['bad_out'] if rng.random() < 0.1 else files['out']}")
    if rng.random() < 0.15:
        argv += ["--config", rng.choice(files["configs"])]
    return argv


class _Overrun(BaseException):  # not an Exception, so cli.main cannot turn it into exit 3
    pass


def _raise_overrun(signum, frame):
    raise _Overrun


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on huge inputs
def test_fuzzed_arguments_exit_cleanly_and_in_time(tmp_path, capsys):
    files = {"paths": [str(tmp_path / "missing.csv"), str(tmp_path)],
             "out": str(tmp_path / "out"), "bad_out": str(tmp_path / "no-dir" / "out"),
             "configs": [str(tmp_path / "missing.json")]}
    for name, rows in PATH_FILES.items():
        (tmp_path / f"{name}.csv").write_text(
            "" if rows is None else "\n".join(["t,theta,phi,R"] + rows) + "\n")
        files["paths"].append(str(tmp_path / f"{name}.csv"))
    for name, text in CONFIGS.items():
        (tmp_path / f"{name}.json").write_text(text)
        files["configs"].append(str(tmp_path / f"{name}.json"))
    rng = random.Random(FUZZ_SEED)
    argvs = [_fuzz_argv(rng, files) for _ in range(FUZZ_CASES)]
    argvs += [["evolve", f"--path-file={path}", "--tau=2", f"--out={files['out']}"]
              for path in files["paths"]]
    # a run that hangs is stopped at twice the bound, and then fails the bound
    previous = signal.signal(signal.SIGALRM, _raise_overrun)
    try:
        for argv in argvs:
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 2 * CASE_SECONDS)
            try:
                code = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects a value it cannot parse
                code = exc.code
            except _Overrun:
                code = None
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            capsys.readouterr()
            assert code in (0, 2, 3, 4), argv
            assert elapsed <= CASE_SECONDS, (argv, elapsed)
            if argv[0] == "eigen" and code == 0:  # strict JSON: no NaN or Infinity
                out = next(a for a in argv if a.startswith("--out=")).split("=", 1)[1]
                json.loads(Path(out).read_text(), parse_constant=_reject_constant)
    finally:
        signal.signal(signal.SIGALRM, previous)


# Each value up to 1e308 in size; the angle within its range, where the other values matter.
WIDE = st.floats(-1e308, 1e308)
LARGE_INPUTS = {
    "eigen": {"theta-deg": st.floats(0.0, 180.0), "phi-deg": WIDE, "r": WIDE, "omega": WIDE},
    "nmr": {"theta-deg": st.floats(0.0, 180.0), "x": WIDE, "n": st.integers(-1, 300)},
    "evolve": {"theta-deg": st.floats(0.0, 180.0), "x": WIDE, "tau": WIDE},
}


@settings(max_examples=150, deadline=None)
@example(["nmr", "--theta-deg=60", "--x=1e300", "--n=1"])  # x² overflows
@example(["eigen", "--theta-deg=60", "--r=1e308", "--omega=1e308"])  # δ = 2R − ω cosθ overflows
@example(["evolve", "--theta-deg=60", "--x=0.3", "--tau=1e12"])  # over MAX_STEPS steps
@example(["evolve", "--theta-deg=60", "--x=1e200", "--tau=1e-195"])  # a step squares Γ₋
@example(["evolve", "--theta-deg=0", "--x=1", "--tau=1e300"])  # e = 0, and a step squares h
@given(st.sampled_from(sorted(LARGE_INPUTS)).flatmap(lambda command: st.fixed_dictionaries(
    LARGE_INPUTS[command]).map(lambda flags: [command, *(f"--{k}={v}" for k, v in flags.items())])))
def test_large_inputs_give_finite_output_or_exit_2(argv):
    # flags are passed as --flag=value, as argparse reads a bare -1e308 as an option
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = cli.main([*argv, f"--out={out}"])
        assert code in (0, 2), argv
        if code == 0 and argv[0] == "eigen":  # strict JSON: no NaN or Infinity
            json.loads(out.read_text(), parse_constant=_reject_constant)
        elif code == 0:
            assert np.all(np.isfinite(np.loadtxt(out, delimiter=",", skiprows=1))), argv


def _samples(t, theta, phi, R):
    return [(float(a), float(b), float(c), float(d)) for a, b, c, d in zip(t, theta, phi, R)]


@st.composite
def sampled_paths(draw):
    """4–20 samples at times of order 1e−200 to 1e200, with θ in (0, π), and R and φ's rate
    each of order 1e−3 to 1e7 per unit of that time; and an end time in [0, duration]."""
    n = draw(st.integers(4, 20))
    scale = 10.0 ** draw(st.integers(-200, 200))
    t = scale * np.cumsum([0.0, *draw(st.lists(st.floats(0.1, 10.0), min_size=n - 1,
                                               max_size=n - 1))])

    def rate():
        return 10.0 ** draw(st.floats(-3.0, 7.0)) / scale

    def wiggle(size):
        return np.array(draw(st.lists(st.floats(-size, size), min_size=n, max_size=n)))

    theta = draw(st.floats(0.2, math.pi - 0.2)) + wiggle(0.1)
    rows = _samples(t, theta, rate() * t + wiggle(1.0), rate() * (1.0 + wiggle(0.5)))
    return rows, rows[-1][0] * draw(st.floats(0.0, 1.0))


# Paths that the spline or the step budget cannot carry. Before they were refused, R_dips exited 0
# through R < 0, theta_leaves exited 3 once numerics had started, and too_many_steps ran 2¹⁹ steps
# of NaN and exited 3.
_K = np.arange(11.0)
CANNOT_CARRY = {
    "R_dips": (_samples([0.0, 1.0, 1.1, 2.0, 3.0, 4.0], np.ones(6), [0.0, 0.5, 0.55, 1.0, 1.5, 2.0],
                        [1.0, 1.0, 0.01, 1.0, 1.0, 1.0]), 4.0),
    "theta_leaves": (_samples([0.0, 1.0, 1.05, 2.0, 3.0, 4.0], [0.2, 0.2, 3.0, 0.2, 0.2, 0.2],
                              [0.0, 0.5, 0.525, 1.0, 1.5, 2.0], np.ones(6)), 4.0),
    "too_many_steps": (_samples(_K, np.full(11, 1.2), 1e200 * _K, np.ones(11)), 1e-190),
}
# θ steps up at the last of 19 samples while φ turns at 1,000: e·τ/π is about 6e3, far inside the
# budget, yet the error estimate stalls at 8.7e-10 > tol near t = 18 and the run ends at 2¹⁹ steps
_T = np.arange(19.0)
STALLS = (_samples(_T, np.r_[np.ones(18), 1.0625], 1e3 * _T, np.ones(19)), 18.0)


def _evolve_path(rows, tau):
    """cli.main's exit code and stderr on evolve of the samples ``rows`` up to ``tau``, and the
    CSV it wrote as an array (None unless the exit code is 0)."""
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        file, out = Path(tmp) / "path.csv", Path(tmp) / "out.csv"
        file.write_text("t,theta,phi,R\n" + "".join(f"{a!r},{b!r},{c!r},{d!r}\n"
                                                     for a, b, c, d in rows))
        code = cli.main(["evolve", f"--path-file={file}", f"--tau={tau!r}", f"--out={out}"])
        table = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2) if code == 0 else None
    return code, err.getvalue(), table


@pytest.mark.parametrize("name", sorted(CANNOT_CARRY))
def test_a_path_the_spline_or_the_steps_cannot_carry_exits_2_before_any_step(name, monkeypatch):
    monkeypatch.setattr(engine, "_magnus_steps", None)  # any step would raise and exit 3
    code, err, _ = _evolve_path(*CANNOT_CARRY[name])
    assert code == 2 and "configuration error" in err, err


@settings(max_examples=40, deadline=None)
@example(CANNOT_CARRY["R_dips"])
@example(CANNOT_CARRY["theta_leaves"])
@example(CANNOT_CARRY["too_many_steps"])
@example(STALLS)
@given(sampled_paths())
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in a refused path's numbers
def test_sampled_paths_give_finite_output_or_exit_2(path):
    # The one exit 3 left is the step doubling missing tol by MAX_STEPS steps, as on STALLS: the
    # refusal bounds the quarter-turn count from below, and no closed form bounds the steps tol needs
    code, err, table = _evolve_path(*path)
    assert code in (0, 2) or f"at {engine.MAX_STEPS} steps" in err, (path, err)
    assert code != 0 or np.all(np.isfinite(table)), path
