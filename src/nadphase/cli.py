"""Command-line front end.

Subcommands: ``eigen`` (instantaneous eigensystem and couplings), ``evolve``
(amplitude trajectory to CSV), ``phase-sweep`` (the three-curve phase dataset
to CSV), ``nmr`` (magnetization table to CSV), and ``validate`` (the
cross-oracle suite to a JSON report). Angles are taken in degrees on the
command line and converted to radians internally. A JSON file mirroring the
configuration fields can be passed with ``--config``; explicit flags override
its values. All outputs are deterministic for a fixed configuration.

Exit codes: 0 success, 2 configuration error, 3 numerical failure (including
failed validation checks), 4 I/O error (an unwritable ``--out`` is found before
the numerics run).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass

from . import engine, nmr, paths
from ._fmt import format_value, json_text, write_csv
from .paths import PrecessingPath, coupling_at, instantaneous_eigensystem, make_kernel


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    theta_deg: float | None = None
    phi_deg: float = 0.0
    r: float = 1.0
    omega: float | None = None
    x: float | None = None
    x_f: float | None = None
    s: float = 1.0
    tau: float | None = None
    n: int = 1
    grid: int = 512
    tol: float = 1e-10
    path_file: str | None = None
    out: str | None = None

    def validate(self) -> None:
        if not 0 < self.tol <= 1e-4:
            raise ConfigError(f"tol must lie in (0, 1e-4], got {self.tol}")
        if self.tau is not None and not 0 <= self.tau < math.inf:
            raise ConfigError(f"tau must be finite and non-negative, got {self.tau}")
        if self.command == "evolve" and self.x is not None and self.x_f is not None:
            raise ConfigError("evolve takes x, not x_f")
        if self.command == "phase-sweep" and self.x is not None:
            raise ConfigError("phase-sweep takes x_f, not x")


def _write_json(obj, out: str | None) -> None:
    """``obj`` as JSON to the file ``out``, or to stdout when it is not given."""
    with open(out, "w", newline="") if out else contextlib.nullcontext(sys.stdout) as fh:
        fh.write(json_text(obj))


def _cmd_eigen(cfg: RunConfig) -> int:
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
        try:
            path = PrecessingPath(R=cfg.r, theta=theta, omega=cfg.omega)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        frame = coupling_at(path, 0.0)
        payload.update({
            "omega": cfg.omega,
            "gamma_rate_plus": frame.gamma_rate_plus,
            "gamma_rate_minus": frame.gamma_rate_minus,
            "Gamma_minus": [frame.Gamma_minus.real, frame.Gamma_minus.imag],
            "delta": frame.delta,
        })
    _write_json(payload, cfg.out)
    return 0


def _cmd_evolve(cfg: RunConfig) -> int:
    if cfg.tau is None:
        raise ConfigError("evolve requires --tau")
    if cfg.out is None:
        raise ConfigError("evolve requires --out")
    if not cfg.path_file and (cfg.theta_deg is None or cfg.x is None):
        raise ConfigError("evolve requires --theta-deg and --x (or --path-file)")
    try:
        if cfg.path_file:
            path = paths.load_path_csv(cfg.path_file)  # loads nadphase.sampled
        else:
            path = PrecessingPath.dimensionless(cfg.x, math.radians(cfg.theta_deg))
    except ValueError as exc:  # a malformed file or an out-of-range parameter
        raise ConfigError(str(exc)) from exc
    if cfg.path_file and cfg.tau > path.duration:
        raise ConfigError(f"tau = {cfg.tau} exceeds path duration {path.duration}")
    traj = engine.evolve(make_kernel(path), cfg.tau, tol=cfg.tol)
    write_csv(cfg.out, engine.TRAJECTORY_HEADER, engine.trajectory_table(traj))
    return 0


def _cmd_phase_sweep(cfg: RunConfig) -> int:
    from . import sweep  # loads scipy, which the other commands do not need
    if cfg.theta_deg is None or cfg.x_f is None:
        raise ConfigError("phase-sweep requires --theta-deg and --xf")
    if cfg.out is None:
        raise ConfigError("phase-sweep requires --out")
    try:
        sweep_cfg = sweep.SweepConfig(theta=math.radians(cfg.theta_deg), x_f=cfg.x_f,
                                      s=cfg.s, grid=cfg.grid, tol=cfg.tol)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    curve = sweep.figure1_dataset(sweep_cfg)
    write_csv(cfg.out, sweep.FIGURE1_HEADER, sweep.figure1_table(curve))
    return 0


def _cmd_nmr(cfg: RunConfig) -> int:
    if cfg.theta_deg is None or cfg.x is None:
        raise ConfigError("nmr requires --theta-deg and --x")
    if cfg.out is None:
        raise ConfigError("nmr requires --out")
    try:
        table = nmr.magnetization_table(cfg.x, math.radians(cfg.theta_deg), cfg.n)
    except ValueError as exc:  # x, theta or n outside its domain
        raise ConfigError(str(exc)) from exc
    write_csv(cfg.out, nmr.MAGNETIZATION_HEADER, table)
    return 0


def _cmd_validate(cfg: RunConfig) -> int:
    from . import validate
    report = validate.run_validation(tol=cfg.tol)
    _write_json(report, cfg.out)
    for check in report["checks"]:
        status = "pass" if check["pass"] else "FAIL"
        sys.stderr.write(
            f"{status:4s}  {check['name']}: max_error={format_value(check['max_error'])}"
            f" tolerance={format_value(check['tolerance'])}\n")
    return 0 if report["pass"] else 3


_COMMANDS = {
    "eigen": _cmd_eigen,
    "evolve": _cmd_evolve,
    "phase-sweep": _cmd_phase_sweep,
    "nmr": _cmd_nmr,
    "validate": _cmd_validate,
}


def build_parser() -> argparse.ArgumentParser:
    # argparse defaults are suppressed so values absent from the command line
    # fall through to the JSON config and then to the RunConfig defaults
    S = argparse.SUPPRESS
    parser = argparse.ArgumentParser(
        prog="nadphase",
        description="Two-level-system evolution engine: persistence amplitudes, "
                    "non-adiabatic phase corrections, and NMR observables.")
    parser.add_argument("--config", default=S,
                        help="JSON file mirroring the run configuration")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("eigen", help="instantaneous eigensystem (JSON)")
    p.add_argument("--theta-deg", type=float, default=S)
    p.add_argument("--phi-deg", type=float, default=S, help="default 0")
    p.add_argument("--r", type=float, default=S, help="field magnitude, default 1")
    p.add_argument("--omega", type=float, default=S,
                   help="include precession couplings at this rate")
    p.add_argument("--out", default=S)

    p = sub.add_parser("evolve", help="amplitude trajectory (CSV)")
    p.add_argument("--theta-deg", type=float, default=S)
    p.add_argument("--x", type=float, default=S, help="dimensionless drive (2R = 1 units)")
    p.add_argument("--tau", type=float, default=S, help="end time")
    p.add_argument("--tol", type=float, default=S, help="default 1e-10")
    p.add_argument("--path-file", default=S, help="sampled path CSV (t,theta,phi,R)")
    p.add_argument("--out", default=S)

    p = sub.add_parser("phase-sweep", help="phase-correction curves A, B, C (CSV)")
    p.add_argument("--theta-deg", type=float, default=S)
    p.add_argument("--xf", type=float, dest="x_f", default=S)
    p.add_argument("--s", type=float, default=S, help="precession cycle count, default 1")
    p.add_argument("--grid", type=int, default=S, help="default 512")
    p.add_argument("--tol", type=float, default=S, help="default 1e-10")
    p.add_argument("--out", default=S)

    p = sub.add_parser("nmr", help="transverse magnetization per cycle (CSV)")
    p.add_argument("--theta-deg", type=float, default=S)
    p.add_argument("--x", type=float, default=S)
    p.add_argument("--n", type=int, default=S, help="number of cycles, default 1")
    p.add_argument("--out", default=S)

    p = sub.add_parser("validate", help="cross-oracle validation report (JSON)")
    p.add_argument("--tol", type=float, default=S, help="default 1e-10")
    p.add_argument("--out", default=S)

    return parser


def _config_from_args(args: argparse.Namespace, overrides: dict) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise ConfigError(f"unknown configuration field '{key}'")
        setattr(cfg, key, value)
    for key in vars(cfg):
        if hasattr(args, key):
            setattr(cfg, key, getattr(args, key))
    cfg.command = args.command
    return cfg


def _extract_config_path(argv: list) -> str | None:
    # handled before argparse so --config works in any position
    for i, token in enumerate(argv):
        if token == "--config":
            if i + 1 >= len(argv):
                raise ConfigError("--config needs a file argument")
            path = argv[i + 1]
            del argv[i:i + 2]
            return path
        if token.startswith("--config="):
            del argv[i]
            return token.split("=", 1)[1]
    return None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()

    overrides = {}
    try:
        config_path = _extract_config_path(argv)
        if config_path:
            with open(config_path) as fh:
                overrides = json.load(fh)
            if not isinstance(overrides, dict):
                raise ConfigError("config file must hold a JSON object")
    except ConfigError as exc:
        print(f"nadphase: configuration error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"nadphase: cannot read config: {exc}", file=sys.stderr)
        return 2

    wants_help = argv[:1] in (["-h"], ["--help"])
    if not wants_help and (not argv or argv[0].startswith("-")):
        command = overrides.pop("command", None)
        if command not in _COMMANDS:
            parser.print_usage(sys.stderr)
            return 2
        argv = [command] + argv
    else:
        overrides.pop("command", None)

    args = parser.parse_args(argv)

    try:
        cfg = _config_from_args(args, overrides)
        cfg.validate()
    except (ConfigError, TypeError, ValueError) as exc:
        print(f"nadphase: configuration error: {exc}", file=sys.stderr)
        return 2

    try:
        out = cfg.out  # checked before any numerics; the file is not opened yet
        if out is not None and (os.path.isdir(out)
                                or not os.access(os.path.dirname(os.path.abspath(out)), os.W_OK)):
            raise OSError(f"cannot write {out!r}: not a file in a writable directory")
        return _COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
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
