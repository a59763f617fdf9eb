"""Closed-loop runs of one workload: untraced for the end-to-end metrics,
traced for the per-layer metrics."""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from nadphase import validate

from . import stats
from .inputs import CLI_SUBCOMMANDS, DESIGNS, Spec, specs
from .tracing import Tracer
from .workloads import WORKLOADS, Context, Recorder

SETUP_PROBES = 5      # fresh interpreters per setup_s measurement
IMPORT_PROBES = 3     # `python -X importtime` runs per traced run
MIN_OPS = stats.TAIL_BEYOND + 1   # so that the tail percentile always exists
CAP_FACTOR = 4        # a run stops early once it has taken CAP_FACTOR × --seconds

# Each of these workloads reaches layers the others do not. A traced run also
# makes this many operations of each of them but its own (the census), so
# every per-layer metric is a live measurement on every workload; the census
# adds nothing to the layers the traced workload reaches itself.
CENSUS = {"sampled-path": 1, "sweep-nmr": 1, "cli-mix": len(CLI_SUBCOMMANDS)}

# validate checks timed one by one in the traced run, named as in validate.ALL_CHECKS
VALIDATE_CHECKS = (
    "check_engine_vs_rotating_frame", "check_endpoint_values", "check_figure1",
    "check_sliced_propagator", "check_series", "check_adiabatic_limit", "check_nmr",
    "check_sweep_vs_unwrap", "check_coupling_finite_difference", "check_reconstruction",
    "check_exact_s_code_paths", "check_nogeo_gap", "check_rho_cross_module",
)


@dataclass
class PassResult:
    latencies: list = field(default_factory=list)
    ok: list = field(default_factory=list)
    oracle_s: float = 0.0
    max_err: float | None = None
    max_defect: float | None = None
    digests: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.ok)

    @property
    def failed(self) -> int:
        return self.ok.count(False)

    @property
    def ops_per_s(self) -> float:
        """Passed operations per second of timed program calls."""
        return self.ok.count(True) / sum(self.latencies)


def run_size(name: str, seconds: float, min_ops: int = MIN_OPS) -> int:
    """Operations in a run: whole blocks, about ``seconds`` of work at the
    workload's reference rate, and at least ``min_ops``."""
    block = DESIGNS[name].block
    want = max(min_ops, WORKLOADS[name].sizing_ops_per_s * seconds)
    return block * math.ceil(want / block)


def run_op(workload, spec, ctx, rec: Recorder, res: PassResult) -> None:
    """Run one operation through ``rec``, check it, and record it in ``res``.
    A failure is counted against the attempts; it does not stop the run."""
    prepared = workload.prepare(spec.params, ctx)
    rec.elapsed = 0.0
    if rec.tracer is not None:
        rec.tracer.op = spec.index
    try:
        out = workload.run(spec.params, prepared, rec, ctx)
    except Exception as exc:
        res.latencies.append(rec.elapsed)
        res.ok.append(False)
        res.digests.append(None)
        res.notes.append(f"op {spec.index} {spec.params}: {type(exc).__name__}: {exc}")
        return
    res.latencies.append(rec.elapsed)
    t0 = time.perf_counter()
    try:
        check = workload.check(spec.params, out, ctx)
    except Exception as exc:
        check = None
        res.notes.append(f"op {spec.index} check raised {type(exc).__name__}: {exc}")
    res.oracle_s += time.perf_counter() - t0
    res.ok.append(check is not None and check.ok)
    res.digests.append(None if check is None else check.digest)
    if check is None:
        return
    if not check.ok:
        res.notes.append(f"op {spec.index} {spec.params}: err={check.err} {check.note}")
    if check.err is not None:
        res.max_err = max(res.max_err or 0.0, check.err)
    if check.defect is not None:
        res.max_defect = max(res.max_defect or 0.0, check.defect)


def _capped(ops, cap: float, res: PassResult):
    """``ops``, cut short once MIN_OPS have run and the clock has passed ``cap``."""
    for n, spec in enumerate(ops):
        if n >= MIN_OPS and time.perf_counter() >= cap:
            res.notes.append(f"stopped after {n} of {len(ops)} operations at the time cap")
            return
        yield spec


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_times(root: Path, workload: str, seed: int, seconds: float) -> list[float]:
    """Wall time of fresh interpreters that import nadphase, generate the
    run's operations and prepare the first one (``run.py --setup-probe``)."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, env=child_env(root), stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def setup_probe(root: Path, workload: str, seed: int, seconds: float) -> None:
    """Body of ``--setup-probe``: nadphase is already imported by the caller."""
    w = WORKLOADS[workload]
    with tempfile.TemporaryDirectory(dir=scratch_dir(root)) as tmp:
        ctx = Context(Path(tmp), child_env(root))
        ops = specs(workload, seed, run_size(workload, seconds))
        w.prepare(ops[0].params, ctx)


def import_times(root: Path) -> tuple[float, float]:
    """Median `import nadphase` time, and the part spent in scipy modules,
    from ``python -X importtime``."""
    totals, scipy_parts = [], []
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import nadphase"],
                              check=True, env=child_env(root), capture_output=True, text=True)
        total = scipy_self = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 or "self" in parts[0]:
                continue
            name = parts[2].strip()
            if name == "nadphase":
                total = int(parts[1])
            if name == "scipy" or name.startswith("scipy."):
                scipy_self += int(parts[0].split(":")[1])
        totals.append(total / 1e6)
        scipy_parts.append(scipy_self / 1e6)
    return statistics.median(totals), statistics.median(scipy_parts)


def scratch_dir(root: Path) -> Path:
    path = root / ".perfbench"
    path.mkdir(exist_ok=True)
    return path


def provenance(root: Path, seed: int) -> dict:
    commit = "unknown"
    if (root / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
    }


def _peak_rss_mb(workload, ctx) -> float:
    if workload.in_process:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return ctx.child_peak_rss_kb / 1024


def measure(root: Path, name: str, seed: int, seconds: float) -> dict:
    """The untraced run: end-to-end metrics."""
    w = WORKLOADS[name]
    setup = setup_times(root, name, seed, seconds)
    ops = specs(name, seed, run_size(name, seconds))
    res = PassResult()
    rec = Recorder()
    with tempfile.TemporaryDirectory(dir=scratch_dir(root)) as tmp:
        ctx = Context(Path(tmp), child_env(root))
        for spec in _capped(ops, time.perf_counter() + CAP_FACTOR * seconds, res):
            run_op(w, spec, ctx, rec, res)
        peak = _peak_rss_mb(w, ctx)
    tail = stats.tail(res.latencies)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (res.ops_per_s, "1/s"),
        "latency_p50_s": (statistics.median(res.latencies), "s"),
        "latency_tail_s": (tail[0], "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    report = {
        "failed_frac": (res.failed / res.attempted, "1"),
        "max_err": (res.max_err, "1"),
        "unitarity_defect_max": (res.max_defect, "1"),
        "oracle_s": (res.oracle_s, "s"),
    }
    extra = {"tail_percentile": tail[1], "tail_samples": tail[2], "setup_runs": setup,
             "timed_s": sum(res.latencies)}
    return {"attempted": res.attempted, "failed": res.failed, "notes": res.notes,
            "metrics": metrics, "report": report, "extra": extra}


def _median_span(tracer: Tracer, name: str) -> float:
    durations = [s.duration for s in tracer.spans if s.name == name]
    return statistics.median(durations) if durations else 0.0


def _own_or_census(own: PassResult, census: PassResult, attr: str) -> float:
    """The traced workload's value, or the census's where the workload has none."""
    value = getattr(own, attr)
    return (getattr(census, attr) or 0.0) if value is None else value


def trace(root: Path, name: str, seed: int, seconds: float) -> dict:
    """The traced run: every operation of a fixed set runs twice, untraced and
    traced, in alternating order so that neither side gains from running
    second; per-layer metrics come from the traced runs, the census (see
    CENSUS), and the benchmark's own calls into validate."""
    w = WORKLOADS[name]
    ops = specs(name, seed, run_size(name, seconds / 2, min_ops=1))
    tracer = Tracer()
    plain, traced, census = PassResult(), PassResult(), PassResult()
    sides = [(Recorder(), plain), (Recorder(tracer), traced)]
    with tempfile.TemporaryDirectory(dir=scratch_dir(root)) as tmp:
        ctx = Context(Path(tmp), child_env(root))
        for spec in _capped(ops, time.perf_counter() + CAP_FACTOR * seconds, plain):
            for rec, res in (sides if spec.index % 2 == 0 else sides[::-1]):
                run_op(w, spec, ctx, rec, res)
        for other, n in CENSUS.items():
            if other != name:
                for spec in specs(other, seed, n):
                    run_op(WORKLOADS[other], Spec(len(ops) + census.attempted, spec.params),
                           ctx, sides[1][0], census)
    counts = sides[1][0].counts
    mismatched = sum(a is not None and b is not None and a != b
                     for a, b in zip(plain.digests, traced.digests))
    tracer.op = -1
    with tracer.span("validate.run_validation"):
        validate.run_validation()
    for fn in validate.ALL_CHECKS:
        with tracer.span(f"validate.{fn.__name__}"):
            fn(1e-10)
    import_s, scipy_s = import_times(root)

    totals = tracer.totals()

    def total(span, key="s"):
        return totals.get(span, {}).get(key, 0)

    overhead = sum(plain.latencies) / sum(traced.latencies)
    steps = counts["engine.evolve.steps"]
    rhs = counts["engine.rhs_calls"]
    metrics = {
        "paths.make_kernel.s": (total("paths.make_kernel"), "s"),
        "paths.make_kernel.calls": (total("paths.make_kernel", "calls"), "count"),
        "paths.kernel.calls": (total("paths.kernel", "calls"), "count"),
        "paths.kernel.s": (total("paths.kernel"), "s"),
        "paths.load_path_csv.s": (total("paths.load_path_csv"), "s"),
        "engine.evolve.self_s": (total("engine.evolve", "self_s"), "s"),
        "engine.evolve.steps": (steps, "count"),
        "engine.rhs_calls": (rhs, "count"),
        "engine.steps_per_rhs": (steps / rhs if rhs else 0.0, "ratio"),
        "engine.readout.s": (total("engine.readout"), "s"),
        "engine.readout.calls": (total("engine.readout", "calls"), "count"),
        "engine.unitarity_defect_max": (_own_or_census(traced, census, "max_defect"), "1"),
        "sweep.figure1_dataset.s": (total("sweep.figure1_dataset"), "s"),
        "nmr.magnetization_table.s": (total("nmr.magnetization_table"), "s"),
        "rotating.exact_rho.s": (total("rotating.exact_rho"), "s"),
        "rotating.exact_rho.calls": (total("rotating.exact_rho", "calls"), "count"),
        "validate.run_validation.s": (total("validate.run_validation"), "s"),
        **{f"validate.{c}.s": (total(f"validate.{c}"), "s") for c in VALIDATE_CHECKS},
        "cli.import_s": (import_s, "s"),
        "cli.import.scipy_s": (scipy_s, "s"),
        **{f"cli.{c}.s": (_median_span(tracer, f"cli.{c}"), "s") for c in CLI_SUBCOMMANDS},
        "oracle.s": (traced.oracle_s, "s"),
        "oracle.max_err": (_own_or_census(traced, census, "max_err"), "1"),
        "trace.ops_per_s_ratio": (overhead, "ratio"),
    }
    report = {
        "untraced_ops_per_s": (plain.ops_per_s, "1/s"),
        "traced_ops_per_s": (traced.ops_per_s, "1/s"),
        "bit_mismatches": (mismatched, "count"),
    }
    notes = plain.notes + traced.notes + census.notes
    if mismatched:
        notes.append(f"{mismatched} traced outputs differ from the untraced ones")
    spans_file = scratch_dir(root) / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(spans_file)
    return {"attempted": plain.attempted + traced.attempted + census.attempted,
            "failed": plain.failed + traced.failed + census.failed + mismatched,
            "notes": notes,
            "metrics": metrics, "report": report,
            "extra": {"ops_per_pass": len(ops), "spans": len(tracer.spans),
                      "spans_file": str(spans_file)}}
