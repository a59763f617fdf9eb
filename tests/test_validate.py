import math

from nadphase import cli, validate


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
