import dataclasses
import math

import numpy as np
import pytest

from nadphase import cli, engine, validate


def test_fails_exactly_the_two_first_iteration_checks():
    # every other check passes at the default tolerance, so a regression in
    # any of them shows here although the exit code is 3 either way
    report = validate.run_validation(1e-10)
    failed = {c["name"] for c in report["checks"] if not c["pass"]}
    assert failed == {"figure1_first_iter_gap", "nmr_arg_order"}
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["unitarity_defect"]["max_error"] <= 1e-11


def test_evolve_csv_and_validate_report_repeat_byte_for_byte(tmp_path):
    outputs = []
    for i in range(2):
        csv, report = tmp_path / f"t{i}.csv", tmp_path / f"r{i}.json"
        assert cli.main(["evolve", "--x", "0.3", "--theta-deg", "60",
                         "--tau", str(2 * math.pi / 0.3), "--out", str(csv)]) == 0
        assert cli.main(["validate", "--out", str(report)]) == 3
        outputs.append((csv.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]
    assert b"steps" not in outputs[0][0] and b"error_estimate" not in outputs[0][1]


# One-line defects of engine.assemble that the reconstruction check must see; with P₋ alone,
# validate failed only its two designed checks on each
ASSEMBLE_DEFECTS = {
    "T_minus_sign": lambda res, S: {"T_minus": -res.T_minus},
    "P_plus_from_S": lambda res, S: {"P_plus": res.P_plus * S / np.conj(S)},
    "T_plus_sign": lambda res, S: {"T_plus": -res.T_plus},
}


@pytest.mark.parametrize("defect", sorted(ASSEMBLE_DEFECTS))
def test_reconstruction_sees_each_amplitude(defect, monkeypatch):
    assemble = engine.assemble

    def broken(traj, path, t):
        res, S = assemble(traj, path, t), complex(traj.amplitudes(t)[0])
        return dataclasses.replace(res, **ASSEMBLE_DEFECTS[defect](res, S))

    monkeypatch.setattr(engine, "assemble", broken)
    [check] = validate.check_reconstruction(1e-10)
    assert check["name"] == "reconstruction_amplitudes" and not check["pass"], check
