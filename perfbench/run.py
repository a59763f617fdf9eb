"""nadphase benchmark: seeded closed-loop workloads, checked against oracles.

    python3 perfbench/run.py --workload precessing-batch --seed 1 --seconds 25 --trace 0

Workloads (one operation at a time, one process; cli-mix runs one child
process at a time):

  precessing-batch  PrecessingPath -> make_kernel -> evolve -> trajectory_table,
                    assemble; S checked against rotating.exact_S
  sampled-path      the same physics from a path CSV: load_path_csv ->
                    make_kernel -> evolve -> trajectory_table
  sweep-nmr         sweep.figure1_dataset and nmr.magnetization_table, checked
                    against sweep.epsilon_unwrap and nmr.direct_expectation
  cli-mix           `python -m nadphase <subcommand>` children, checked for exit
                    code and output bytes against cli.main in process

With --trace 0 the run times a seed-determined list of operations, sized to
take about --seconds at the workload's reference rate (so two commits
compared on one seed run identical inputs), and reports the end-to-end
metrics. A run that is much slower stops early after 4 × --seconds.
With --trace 1 it runs half as many operations, each twice (untraced and
traced, in alternating order), and reports per-layer metrics from the spans
of the traced runs and the tracing overhead. ``--workload all`` runs every
workload in turn.

Human-readable lines (every metric with its unit, provenance) come first;
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Spans and a full result record are written
under .perfbench/ in the checkout. nadphase is imported from src/ beside this
directory; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("precessing-batch", "sampled-path", "sweep-nmr", "cli-mix")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def _print_report(name, args, out, prov) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"# nadphase benchmark: workload={name} seed={args.seed} "
          f"seconds={args.seconds:g} {mode}")
    print("# provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"# operations: attempted={out['attempted']} failed={out['failed']}")
    for key, (value, unit) in {**out["metrics"], **out["report"]}.items():
        print(f"{key:44s} {_fmt(value):>14s} {unit}")
    for key, value in out["extra"].items():
        print(f"# {key}: {value}")
    for note in out["notes"][:10]:
        print(f"# note: {note}")


def _run_all(args) -> int:
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "nadphase" / "__init__.py").is_file():
        print(f"perfbench: no nadphase sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import nadphase
    if Path(nadphase.__file__).resolve().parent != ROOT / "src" / "nadphase":
        print(f"perfbench: imported nadphase from {nadphase.__file__}", file=sys.stderr)
        return 2
    from nadbench import runner

    if args.setup_probe:
        runner.setup_probe(ROOT, args.workload, args.seed, args.seconds)
        return 0
    prov = runner.provenance(ROOT, args.seed)
    run = runner.trace if args.trace else runner.measure
    out = run(ROOT, args.workload, args.seed, args.seconds)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": prov, "attempted": out["attempted"], "failed": out["failed"],
              "notes": out["notes"],
              **{k: {"value": v, "unit": u} for k, (v, u) in
                 {**out["metrics"], **out["report"]}.items()},
              "extra": out["extra"]}
    result_file = runner.scratch_dir(ROOT) / (
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    result_file.write_text(json.dumps(record, indent=1) + "\n")
    _print_report(args.workload, args, out, prov)
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
