"""Seeded input generation.

A run is a seed-determined list of whole blocks of operations. Within a
block of N, the parameters that set an operation's cost (drive x, cycle
count, angle, sample count, n_max, s) lie on a rank-1 lattice
u_j = frac(j·z/N + Δ) with a seeded shift Δ, and the block runs in a seeded
random order. Each such parameter then takes exactly one value per 1/N-wide
stratum of its range in every block, and the shifts are balanced across
blocks (see Design), so the cost mix of a run barely depends on the seed
while the seed still moves every value. That keeps the run-to-run spread of
the timings small. Parameters that do not set the cost (window start, CLI
arguments) are plain seeded uniform draws.

This module imports no part of nadphase: the program receives only the
generated values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("precessing-batch", "sampled-path", "sweep-nmr", "cli-mix")
CLI_SUBCOMMANDS = ("eigen", "evolve", "phase-sweep", "nmr", "validate")


def _lerp(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _pick_int(u: float, lo: int, hi: int) -> int:
    """Integer in [lo, hi], each value taking an equal share of [0, 1)."""
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


@dataclass(frozen=True)
class Spec:
    """One generated operation: its index in the run and its parameters."""

    index: int
    params: dict


def _precessing(u, rng) -> dict:
    return {
        "x": _lerp(u[0], 0.02, 0.6),
        "cycles": _pick_int(u[1], 1, 5),
        "theta_deg": _lerp(u[2], 10.0, 170.0),
        "tol": 1e-10,
    }


def _sampled(u, rng) -> dict:
    # x and cycles are narrower than on precessing-batch: one RHS call costs
    # about 160 us here, so x = 0.02 over 5 cycles would take seconds per op
    return {
        "x": _lerp(u[0], 0.1, 0.6),
        "cycles": _pick_int(u[1], 1, 3),
        "samples": _pick_int(u[2], 101, 801),
        "theta_deg": _lerp(u[3], 10.0, 170.0),
        "t0": rng.uniform(0.0, 5.0),
        "tol": 1e-10,
    }


# sweep.epsilon_sweep integrates dε/dx from x = 0 and looks for tangent poles
# only inside (0, x_f); it keeps a margin of 0.05/slope around each pole, with
# slope ≈ π·|cos θ|·s/x_f near x = 0. When s/x_f lies within POLE_GAP = 0.05/π
# of a half-integer, a pole lies within that margin of x = 0, and on one side
# of the half-integer it lies just below x = 0, where the sweep does not look:
# ε then errs by up to 4e-6 against sweep.epsilon_unwrap, above the 1e-6
# check. That is a defect of nadphase, not of the inputs; test_perfbench.py
# holds it as an expected failure. Until it is fixed, an x_f in the gap is
# moved to the nearer edge of the gap.
POLE_GAP = 0.05 / math.pi


def _off_start_pole(x_f: float, s: int) -> float:
    q = s / x_f
    offset = q - math.floor(q) - 0.5
    if abs(offset) >= POLE_GAP:
        return x_f
    return s / (math.floor(q) + 0.5 + math.copysign(POLE_GAP, offset))


def _sweep_nmr(u, rng) -> dict:
    s = _pick_int(u[2], 1, 10)
    return {
        "x_f": _off_start_pole(_lerp(u[0], 0.05, 0.6), s),
        "n_max": _pick_int(u[1], 1, 50),
        "s": s,
        "theta_deg": rng.uniform(10.0, 170.0),
        "grid": 512,
    }


def _cli(u, rng) -> dict:
    command = CLI_SUBCOMMANDS[_pick_int(u[0], 0, 4)]
    theta = rng.uniform(10.0, 170.0)
    if command == "eigen":
        args = ["--theta-deg", theta, "--phi-deg", rng.uniform(0.0, 360.0),
                "--r", rng.uniform(0.5, 2.0), "--omega", rng.uniform(0.1, 1.0)]
    elif command == "evolve":
        args = ["--theta-deg", theta, "--x", rng.uniform(0.1, 0.6),
                "--tau", rng.uniform(1.0, 10.0)]
    elif command == "phase-sweep":
        args = ["--theta-deg", theta, "--xf", rng.uniform(0.1, 0.6), "--s", 1,
                "--grid", int(rng.integers(64, 257))]
    elif command == "nmr":
        args = ["--theta-deg", theta, "--x", rng.uniform(0.1, 0.6),
                "--n", int(rng.integers(1, 6))]
    else:
        args = []
    return {"command": command, "args": [command] + [repr(a) if isinstance(a, float)
                                                     else str(a) for a in args]}


@dataclass(frozen=True)
class Design:
    """Block size N, lattice generating vector z, the shift schedule of each
    lattice coordinate, and the map from a point u ∈ [0, 1)^len(z) to
    operation parameters.

    Shift schedules across the blocks b = 0, 1, ... of a run:
      "anti"    Δ, 1 − Δ, Δ, ...: antithetic blocks, for a coordinate whose
                cost is steep at one end (1/x near the smallest x);
      "rot<L>"  Δ + b/L: over L blocks every lattice row takes each of L
                levels once (cycle counts);
      "random"  a fresh seeded shift for every block.
    """

    block: int
    z: tuple
    shifts: tuple
    draw: object


# z was chosen by a search over vectors coprime to N for the smallest spread
# of a cost model's block sum, median and tail under random shifts
DESIGNS = {
    "precessing-batch": Design(40, (1, 17, 27), ("anti", "rot5", "random"), _precessing),
    "sampled-path": Design(10, (1, 7, 3, 9), ("anti", "rot3", "random", "random"), _sampled),
    "sweep-nmr": Design(50, (1, 21, 33), ("anti", "random", "random"), _sweep_nmr),
    "cli-mix": Design(5, (1,), ("random",), _cli),
}


def _shift(schedule: str, base: float, b: int, rng) -> float:
    if schedule == "anti":
        return base if b % 2 == 0 else 1.0 - base
    if schedule.startswith("rot"):
        return (base + b / int(schedule[3:])) % 1.0
    return rng.random()


def specs(workload: str, seed: int, n: int) -> list[Spec]:
    """The first ``n`` operations of the workload's stream for ``seed``;
    equal seeds give equal lists."""
    design = DESIGNS[workload]
    z = np.array(design.z)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    base = rng.random(len(z))
    out = []
    for b in range(-(-n // design.block)):
        shift = np.array([_shift(s, d, b, rng) for s, d in zip(design.shifts, base)])
        for j in rng.permutation(design.block):
            u = [float(v) for v in (j * z / design.block + shift) % 1.0]
            out.append(Spec(len(out), design.draw(u, rng)))
    return out[:n]


def write_path_csv(params: dict, file: Path) -> None:
    """Write the sampled-path input: the precessing path θ = const, φ = x·t,
    R = 1/2 (so 2R = 1), sampled on the window [t0, t0 + cycles·2π/x].

    Times are written relative to the window start, so the file's t runs from
    0 and φ starts at x·t0. S does not depend on that start (a constant phase
    of F moves only I), which the exact_S check relies on. A file whose t
    starts above 0 would make evolve extrapolate the spline back to t = 0; that
    path errs up to about 1e-8 and is left to the path-validation work.
    """
    x, theta = params["x"], math.radians(params["theta_deg"])
    duration = params["cycles"] * 2 * math.pi / x
    t = np.linspace(0.0, duration, params["samples"])
    lines = ["t,theta,phi,R"]
    lines += [f"{float(u)!r},{theta!r},{float(x * (u + params['t0']))!r},0.5" for u in t]
    file.write_text("\n".join(lines) + "\n")
