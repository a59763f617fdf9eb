"""The four workloads: what each operation runs, and the oracle that checks it.

Each workload has three functions. ``prepare`` turns generated parameters
into inputs (untimed). ``run`` makes the operation's calls into nadphase
through a Recorder, which times them. ``check`` compares the outputs with an
independent oracle and is timed apart, as oracle time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from nadphase import cli, engine, nmr, rotating, sweep
from nadphase.paths import PrecessingPath, load_path_csv, make_kernel

from .inputs import write_path_csv
from .tracing import KernelCounter, Tracer, counting_kernel

S_TOL = 1e-8          # engine S against rotating.exact_S, per step and midpoint
EPSILON_TOL = 1e-6    # sweep ε against sweep.epsilon_unwrap
MX_TOL = 1e-8         # nmr Mx_exact against nmr.direct_expectation
# acceptance criteria 4 and 8, red by design; any other failing set is a failure
VALIDATE_EXPECTED_FAILURES = frozenset({"figure1_first_iter_gap", "nmr_arg_order"})


class Recorder:
    """Times the calls an operation makes into nadphase and, when a tracer is
    given, records a span around each. ``elapsed`` sums the call times."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.elapsed = 0.0
        self.counts = Counter()

    def call(self, name: str, fn, *args):
        t0 = time.perf_counter()
        if self.tracer is None:
            value = fn(*args)
        else:
            with self.tracer.span(name):
                value = fn(*args)
        self.elapsed += time.perf_counter() - t0
        return value

    def probe(self, name: str, fn, *args) -> None:
        """A call the benchmark makes in the traced run only, outside any
        operation's latency."""
        if self.tracer is not None:
            with self.tracer.span(name):
                fn(*args)


@dataclass
class Check:
    ok: bool
    err: float | None = None        # largest oracle error; None where the oracle is exact
    defect: float | None = None     # largest | |S|² + |I|² − 1 |
    digest: str = ""                # hash of the output, for bit-identity across passes
    note: str = ""


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable
    run: Callable
    check: Callable
    sizing_ops_per_s: float   # run size per second of --seconds (about the baseline rate)
    in_process: bool = True


def _digest(*arrays) -> str:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _evolve(rec: Recorder, kernel, t_end: float, tol: float):
    """evolve, with the kernel wrapped to count RHS calls when tracing."""
    if rec.tracer is None:
        return rec.call("engine.evolve", engine.evolve, kernel, t_end, tol)
    counter = KernelCounter()
    traj = rec.call("engine.evolve", engine.evolve, counting_kernel(kernel, counter), t_end, tol)
    rec.tracer.aggregate(rec.tracer.last, "paths.kernel", counter.total_calls, counter.busy)
    rec.counts["engine.rhs_calls"] += counter.calls["F"]
    rec.counts["engine.evolve.steps"] += len(traj.ts) - 1
    return traj


def _check_trajectory(x, theta, traj, table):
    """Max |S − exact_S| at every step and step midpoint, and the unitarity defect."""
    ts = table[:, 0]
    mids = 0.5 * (ts[:-1] + ts[1:])
    S_mid, I_mid = traj.amplitudes(mids)
    err = max(np.max(np.abs(table[:, 1] + 1j * table[:, 2] - rotating.exact_S(x, theta, ts))),
              np.max(np.abs(S_mid - rotating.exact_S(x, theta, mids)), initial=0.0))
    defect = max(np.max(table[:, 7]),
                 np.max(np.abs(np.abs(S_mid) ** 2 + np.abs(I_mid) ** 2 - 1.0), initial=0.0))
    return float(err), float(defect)


# precessing-batch ---------------------------------------------------------

def _run_precessing(p, _, rec, ctx):
    x, theta = p["x"], math.radians(p["theta_deg"])
    tau = p["cycles"] * 2 * math.pi / x
    path = rec.call("paths.PrecessingPath", PrecessingPath.dimensionless, x, theta)
    kernel = rec.call("paths.make_kernel", make_kernel, path)
    traj = _evolve(rec, kernel, tau, p["tol"])
    table = rec.call("engine.readout", engine.trajectory_table, traj)
    end = rec.call("engine.readout", engine.assemble, traj, path, tau)
    return traj, table, end


def _check_precessing(p, out, ctx):
    traj, table, end = out
    x, theta = p["x"], math.radians(p["theta_deg"])
    err, defect = _check_trajectory(x, theta, traj, table)
    # P₋ at the end time from the rotating-frame eigen-decomposition
    sol = rotating.solve_rotating_frame(x, theta)
    tau = float(table[-1, 0])
    P_exact = np.exp(-0.5j * x * tau) * (sol.a_plus ** 2 * np.exp(-0.5j * sol.Omega0 * tau)
                                         + sol.a_minus ** 2 * np.exp(0.5j * sol.Omega0 * tau))
    err = max(err, abs(end.P_minus - P_exact))
    return Check(ok=err <= S_TOL, err=err, defect=defect,
                 digest=_digest(table, np.array([end.P_minus, end.T_minus, end.rho])))


# sampled-path -------------------------------------------------------------

def _prepare_sampled(p, ctx):
    file = ctx.workdir / f"path-{ctx.next_id()}.csv"
    write_path_csv(p, file)
    return file


def _run_sampled(p, file, rec, ctx):
    path = rec.call("paths.load_path_csv", load_path_csv, file)
    kernel = rec.call("paths.make_kernel", make_kernel, path)
    traj = _evolve(rec, kernel, path.duration, p["tol"])
    table = rec.call("engine.readout", engine.trajectory_table, traj)
    return traj, table


def _check_sampled(p, out, ctx):
    traj, table = out
    err, defect = _check_trajectory(p["x"], math.radians(p["theta_deg"]), traj, table)
    return Check(ok=err <= S_TOL, err=err, defect=defect, digest=_digest(table))


# sweep-nmr ----------------------------------------------------------------

def _sweep_config(p):
    return sweep.SweepConfig(theta=math.radians(p["theta_deg"]), x_f=p["x_f"],
                             s=float(p["s"]), grid=p["grid"])


def _run_sweep_nmr(p, _, rec, ctx):
    theta = math.radians(p["theta_deg"])
    curve = rec.call("sweep.figure1_dataset", sweep.figure1_dataset, _sweep_config(p))
    table = rec.call("nmr.magnetization_table", nmr.magnetization_table,
                     p["x_f"], theta, p["n_max"])
    for n in range(1, p["n_max"] + 1):
        rec.probe("rotating.exact_rho", rotating.exact_rho, p["x_f"], theta,
                  2 * math.pi * n / p["x_f"])
    return curve, table


def _check_sweep_nmr(p, out, ctx):
    curve, table = out
    theta = math.radians(p["theta_deg"])
    eps_err = float(np.max(np.abs(curve.eps - sweep.epsilon_unwrap(_sweep_config(p), curve.xs))))
    mx_err = max(abs(row[3] - nmr.direct_expectation(p["x_f"], theta, int(row[0])).real)
                 for row in table)
    ok = eps_err <= EPSILON_TOL and mx_err <= MX_TOL
    return Check(ok=ok, err=max(eps_err, mx_err), digest=_digest(
        curve.eps, curve.rho_exact, curve.rho_first_iter, table),
        note="" if ok else f"eps_err={eps_err:.3g} mx_err={mx_err:.3g}")


# cli-mix ------------------------------------------------------------------

def _prepare_cli(p, ctx):
    i = ctx.next_id()
    return ctx.workdir / f"cli-{i}.out", ctx.workdir / f"cli-{i}.err"


def _child(argv, out, err_file, ctx):
    with open(err_file, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "nadphase", *argv, "--out", str(out)],
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=err, env=ctx.child_env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.child_peak_rss_kb = max(ctx.child_peak_rss_kb, usage.ru_maxrss)
    return proc.returncode


def _run_cli(p, prepared, rec, ctx):
    out, err = prepared
    code = rec.call(f"cli.{p['command']}", _child, p["args"], out, err, ctx)
    return code, out, err


def _in_process(ctx, argv):
    """cli.main on the same arguments, in this process; cached per argument list."""
    key = tuple(argv)
    if key not in ctx.cli_reference:
        out = ctx.workdir / "reference.out"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--out", str(out)])
        ctx.cli_reference[key] = (code, out.read_bytes())
        out.unlink()
    return ctx.cli_reference[key]


def _check_cli(p, result, ctx):
    code, out, err = result
    data = out.read_bytes() if out.exists() else b""
    ref_code, ref_data = _in_process(ctx, p["args"])
    notes = []
    if p["command"] == "validate":
        expected = 3
        failing = {c["name"] for c in json.loads(data or b"{}").get("checks", []) if not c["pass"]}
        if failing != VALIDATE_EXPECTED_FAILURES:
            notes.append(f"failing checks {sorted(failing)}")
    else:
        expected = 0
    if code != expected or ref_code != expected:
        stderr = err.read_text(errors="replace").strip().splitlines()[-1:]
        notes.append(f"exit {code} (in process {ref_code}), expected {expected}: {stderr}")
    if data != ref_data:
        notes.append("output bytes differ from cli.main in process")
    return Check(ok=not notes, digest=hashlib.blake2b(data, digest_size=16).hexdigest(),
                 note="; ".join(notes))


def _no_prepare(p, ctx):
    return None


WORKLOADS = {
    w.name: w for w in (
        Workload("precessing-batch", _no_prepare, _run_precessing, _check_precessing,
                 sizing_ops_per_s=12.0),
        Workload("sampled-path", _prepare_sampled, _run_sampled, _check_sampled,
                 sizing_ops_per_s=2.0),
        Workload("sweep-nmr", _no_prepare, _run_sweep_nmr, _check_sweep_nmr,
                 sizing_ops_per_s=4.0),
        Workload("cli-mix", _prepare_cli, _run_cli, _check_cli,
                 sizing_ops_per_s=0.75, in_process=False),
    )
}


class Context:
    """Per-run state shared by a workload's operations."""

    def __init__(self, workdir: Path, child_env: dict):
        self.workdir = workdir
        self.child_env = child_env
        self.cli_reference: dict = {}
        self.child_peak_rss_kb = 0
        self._ids = 0

    def next_id(self) -> int:
        self._ids += 1
        return self._ids
