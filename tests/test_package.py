"""The package's import rule: ``import nadphase`` and the numpy-only
subcommands load no scipy module, and every exported name still resolves."""

import importlib
import json
import subprocess
import sys

import pytest

import nadphase

# Runs in a fresh interpreter: imports nadphase, then runs each argument
# vector through cli.main, and prints the scipy modules loaded after each step.
_CHILD = """
import json, sys
import nadphase
from nadphase import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

steps = [["import nadphase", 0, scipy_modules()]]
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    steps.append([" ".join(argv), code, scipy_modules()])
print(json.dumps(steps))
"""


def test_numpy_only_subcommands_load_no_scipy(tmp_path):
    argvs = [
        ["eigen", "--theta-deg", "60", "--omega", "0.4", "--out", str(tmp_path / "e.json")],
        ["evolve", "--theta-deg", "60", "--x", "0.3", "--tau", "5", "--out",
         str(tmp_path / "t.csv")],
        ["nmr", "--theta-deg", "60", "--x", "0.3", "--n", "3", "--out", str(tmp_path / "m.csv")],
    ]
    res = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argvs)],
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    steps = json.loads(res.stdout)
    assert len(steps) == 1 + len(argvs)
    for step, code, loaded in steps:
        assert code == 0, step
        assert loaded == [], f"{step} loaded {loaded[:5]}"


def test_every_export_is_its_modules_object():
    for module, names in nadphase._EXPORTS.items():
        submodule = importlib.import_module(f"nadphase.{module}")
        for name in names:
            assert getattr(nadphase, name) is getattr(submodule, name), name
            assert name in dir(nadphase), name


def test_paths_forwards_the_sampled_names():
    from nadphase import paths, sampled
    from nadphase.paths import SampledPath, load_path_csv

    assert SampledPath is sampled.SampledPath is paths.SampledPath
    assert load_path_csv is sampled.load_path_csv is paths.load_path_csv


@pytest.mark.parametrize("module", ["nadphase", "nadphase.paths"])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(importlib.import_module(module), "no_such_name")
