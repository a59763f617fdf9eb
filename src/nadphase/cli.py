"""Command-line front end.

Subcommands: ``eigen`` (instantaneous eigensystem and couplings), ``evolve``
(amplitude trajectory to CSV), ``phase-sweep`` (the three-curve phase dataset
to CSV), ``nmr`` (magnetization table to CSV), and ``validate`` (the
cross-oracle suite to a JSON report). Angles are taken in degrees on the
command line and converted to radians internally. ``--config file.json``
sets fields of one command: each key is a field of that command's flags
(``theta_deg`` for ``--theta-deg``, ``x_f`` for ``--xf``), each value a number
or a string, typed as its flag is. Flags given on the command line override
the file. All outputs are deterministic for a fixed configuration.

Exit codes: 0 success, 2 configuration error (any ValueError: a flag refused here or
an input the library refuses before its numerics, such as a run past ``evolve``'s
step budget), 3 numerical failure (including failed validation checks), 4 I/O error
(an unwritable ``--out`` is found before the numerics run).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys

from . import engine, nmr, paths
from ._fmt import format_value, json_text, write_csv
from .paths import PrecessingPath, coupling_at, instantaneous_eigensystem, make_kernel


class ConfigError(ValueError):
    pass


def _write_json(obj, out: str | None) -> None:
    """``obj`` as JSON to the file ``out``, or to stdout when it is not given."""
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json_text(obj))


def _cmd_eigen(cfg: argparse.Namespace) -> int:
    if cfg.theta_deg is None:
        raise ConfigError("eigen requires --theta-deg")
    if not (0 <= cfg.theta_deg <= 180 and math.isfinite(cfg.phi_deg) and 0 < cfg.r < math.inf):
        raise ConfigError("eigen needs --theta-deg in [0, 180], a finite --phi-deg and a finite "
                          f"--r > 0, got {cfg.theta_deg}, {cfg.phi_deg} and {cfg.r}")
    theta = math.radians(cfg.theta_deg)
    phi = math.radians(cfg.phi_deg)
    E_plus, E_minus, v_plus, v_minus = instantaneous_eigensystem(theta, phi, cfg.r)
    payload = {
        "theta_deg": cfg.theta_deg,
        "phi_deg": cfg.phi_deg,
        "R": cfg.r,
        "E_plus": float(E_plus),
        "E_minus": float(E_minus),
        "v_plus": [[v.real, v.imag] for v in v_plus],
        "v_minus": [[v.real, v.imag] for v in v_minus],
    }
    if cfg.omega is not None:
        frame = coupling_at(PrecessingPath(R=cfg.r, theta=theta, omega=cfg.omega), 0.0)
        payload.update({
            "omega": cfg.omega,
            "gamma_rate_plus": frame.gamma_rate_plus,
            "gamma_rate_minus": frame.gamma_rate_minus,
            "Gamma_minus": [frame.Gamma_minus.real, frame.Gamma_minus.imag],
            "delta": frame.delta,
        })
    _write_json(payload, cfg.out)
    return 0


def _cmd_evolve(cfg: argparse.Namespace) -> int:
    if cfg.tau is None:
        raise ConfigError("evolve requires --tau")
    if cfg.out is None:
        raise ConfigError("evolve requires --out")
    if not cfg.path_file and (cfg.theta_deg is None or cfg.x is None):
        raise ConfigError("evolve requires --theta-deg and --x (or --path-file)")
    path = (paths.load_path_csv(cfg.path_file) if cfg.path_file  # loads nadphase.sampled
            else PrecessingPath.dimensionless(cfg.x, math.radians(cfg.theta_deg)))
    traj = engine.evolve(make_kernel(path), cfg.tau, tol=cfg.tol)  # refuses τ and the budget
    write_csv(cfg.out, engine.TRAJECTORY_HEADER, engine.trajectory_table(traj))
    return 0


def _cmd_phase_sweep(cfg: argparse.Namespace) -> int:
    from . import sweep
    if cfg.theta_deg is None or cfg.x_f is None:
        raise ConfigError("phase-sweep requires --theta-deg and --xf")
    if cfg.out is None:
        raise ConfigError("phase-sweep requires --out")
    sweep_cfg = sweep.SweepConfig(theta=math.radians(cfg.theta_deg), x_f=cfg.x_f, s=cfg.s,
                                  grid=cfg.grid, tol=cfg.tol)
    curve = sweep.figure1_dataset(sweep_cfg)
    write_csv(cfg.out, sweep.FIGURE1_HEADER, sweep.figure1_table(curve))
    return 0


def _cmd_nmr(cfg: argparse.Namespace) -> int:
    if cfg.theta_deg is None or cfg.x is None:
        raise ConfigError("nmr requires --theta-deg and --x")
    if cfg.out is None:
        raise ConfigError("nmr requires --out")
    table = nmr.magnetization_table(cfg.x, math.radians(cfg.theta_deg), cfg.n)
    write_csv(cfg.out, nmr.MAGNETIZATION_HEADER, table)
    return 0


def _cmd_validate(cfg: argparse.Namespace) -> int:
    from . import validate
    report = validate.run_validation(tol=cfg.tol)
    _write_json(report, cfg.out)
    for check in report["checks"]:
        status = "pass" if check["pass"] else "FAIL"
        sys.stderr.write(
            f"{status:4s}  {check['name']}: max_error={format_value(check['max_error'])}"
            f" tolerance={format_value(check['tolerance'])}\n")
    return 0 if report["pass"] else 3


# Each configuration field as (flag, type, default, help). A command takes the
# fields _COMMANDS lists, both as flags and as keys of a --config file.
_FIELDS = {
    "theta_deg": ("--theta-deg", float, None, None),
    "phi_deg": ("--phi-deg", float, 0.0, "default %(default)s"),
    "r": ("--r", float, 1.0, "field magnitude, default %(default)s"),
    "omega": ("--omega", float, None, "include precession couplings at this rate"),
    "x": ("--x", float, None, "dimensionless drive (2R = 1 units)"),
    "x_f": ("--xf", float, None, None),
    "s": ("--s", float, 1.0, "precession cycle count, default %(default)s"),
    "tau": ("--tau", float, None, "end time"),
    "n": ("--n", int, 1, "number of cycles, default %(default)s"),
    "grid": ("--grid", int, 512, "default %(default)s"),
    "tol": ("--tol", float, 1e-10, "default %(default)s"),
    "path_file": ("--path-file", str, None, "sampled path CSV (t,theta,phi,R)"),
    "out": ("--out", str, None, None),
}

_COMMANDS = {
    "eigen": (_cmd_eigen, "instantaneous eigensystem (JSON)",
              ("theta_deg", "phi_deg", "r", "omega", "out")),
    "evolve": (_cmd_evolve, "amplitude trajectory (CSV)",
               ("theta_deg", "x", "tau", "tol", "path_file", "out")),
    "phase-sweep": (_cmd_phase_sweep, "phase-correction curves A, B, C (CSV)",
                    ("theta_deg", "x_f", "s", "grid", "tol", "out")),
    "nmr": (_cmd_nmr, "transverse magnetization per cycle (CSV)",
            ("theta_deg", "x", "n", "out")),
    "validate": (_cmd_validate, "cross-oracle validation report (JSON)", ("tol", "out")),
}


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The ``--config`` pre-parser, and the full parser that includes it."""
    config = argparse.ArgumentParser(prog="nadphase", add_help=False, allow_abbrev=False)
    config.add_argument("--config", help="JSON file of the command's fields; flags override it")
    parser = argparse.ArgumentParser(
        prog=config.prog, parents=[config], allow_abbrev=False,
        description="Two-level-system evolution engine: persistence amplitudes, "
                    "non-adiabatic phase corrections, and NMR observables.")
    sub = parser.add_subparsers(dest="command")
    for command, (_, summary, fields) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for field in fields:
            flag, kind, default, help_text = _FIELDS[field]
            p.add_argument(flag, dest=field, type=kind, default=default, help=help_text)
    return config, parser


def _splice_config(file: str, argv: list) -> list:
    """``argv`` with the fields of the JSON config ``file`` inserted as
    ``--flag=value`` right after the command (the ``=`` keeps a value such as
    ``-0.3`` from being read as an option), so argparse types them as it types
    flags and a later flag overrides them. A command in ``argv`` wins."""
    with open(file) as fh:
        fields = json.load(fh)
    if not isinstance(fields, dict):
        raise ConfigError("config file must hold a JSON object")
    command = fields.pop("command", None)
    if argv and not argv[0].startswith("-"):
        command, argv = argv[0], argv[1:]
    if not (isinstance(command, str) and command in _COMMANDS):
        raise ConfigError(f"choose a command from {', '.join(_COMMANDS)}; got {command!r}")
    takes = _COMMANDS[command][2]
    for key, value in fields.items():
        if key not in takes:
            raise ConfigError(f"{command} takes no configuration field '{key}'")
        if isinstance(value, bool) or not isinstance(value, (int, float, str)):
            raise ConfigError(f"configuration field '{key}' must be a number or a string, "
                              f"got {json.dumps(value)}")
    return [command, *(f"{_FIELDS[key][0]}={value}" for key, value in fields.items()), *argv]


def main(argv=None) -> int:
    config, parser = build_parser()
    opts, argv = config.parse_known_args(sys.argv[1:] if argv is None else argv)
    try:
        if opts.config is not None and argv[:1] not in (["-h"], ["--help"]):
            argv = _splice_config(opts.config, argv)
    except ConfigError as exc:
        print(f"nadphase: configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"nadphase: cannot read config: {exc}", file=sys.stderr)
        return 2

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    fields = vars(args)
    try:
        if "tol" in fields and not 0 < args.tol <= 1e-4:
            raise ConfigError(f"tol must lie in (0, 1e-4], got {args.tol}")
        out = args.out  # checked before any numerics; the file is not opened yet
        if out is not None and (os.path.isdir(out)
                                or not os.access(os.path.dirname(os.path.abspath(out)), os.W_OK)):
            raise OSError(f"cannot write {out!r}: not a file in a writable directory")
        return _COMMANDS[args.command][0](args)
    except ValueError as exc:  # ConfigError, and any input the library refuses
        print(f"nadphase: configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"nadphase: I/O error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:
        print(f"nadphase: numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
