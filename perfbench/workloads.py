"""The benchmark's workloads, their inputs and the checks on their outputs.

A workload runs in units: one unit is one set of CLI commands (``confluence``,
``stokes``) or one round of the evaluation sweep (``eval-sweep``: build three
sums, then evaluate them at a batch of points).  Every unit returns its wall
time, the latency of each operation and the count of failed operations.  A
failed operation never aborts the run.

Tolerances are the acceptance suite's pinned ones (tests/test_acceptance.py
criteria 2, 3, 4 and 8, tests/test_cli.py::test_stokes_command).
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import exp1

from qborel import classical as cl
from qborel import qsummation as qs
from qborel.cli import main as cli_main
from qborel.operators import LinearOperator
from qborel.series import Polynomial, PowerSeries, SectorPoint

# z delta_q y + y = z at q = 1.05; the CLI reads it as the q-independent
# family whose limit is the Euler equation z delta y + y = z.
QEULER_DOC = {"kind": "q_difference", "basis": "delta_q", "q": 1.05,
              "coefficients": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
              "rhs": [[0.0, 0.0], [1.0, 0.0]]}

CONFLUENCE_Z = 0.1
CONFLUENCE_GRID = "1.5,1.2,1.1,1.05,1.02,1.01"
STOKES_GRID = "1.2,1.1,1.05"
SMOKE_CONFLUENCE_GRID = "1.5,1.2"
SMOKE_STOKES_GRID = "1.2"

SWEEP_Q = 1.05
SWEEP_FIRST_Z = 0.1          # point of the cold-start value (acceptance 2)
SWEEP_POINTS = 20            # points per round
SWEEP_ORDER_SEED = 0         # fixed order of the |z| strata, the same for every seed
SWEEP_ABS_Z = (0.05, 0.3)
SWEEP_MAX_ARG = 0.45

FINAL_ERROR_MAX = 5e-2       # acceptance 3
STOKES_ABS_TOL = 1e-6        # acceptance 8: |J e^(-1/z)| = 2 pi
INVARIANCE_MAX = 1e-6        # acceptance 8: sigma_q-invariance residual
EULER_RTOL = 1e-8            # acceptance 2: multisum vs e^(1/z) E1(1/z)
CROSS_RTOL = 1e-8            # acceptance 4: discrete vs theta q-sum
CLASSICAL_RTOL = 1e-8        # confluence "# classical:" line vs the oracle


def euler_oracle(z: complex) -> complex:
    """e^(1/z) E1(1/z), the Borel sum of sum (-1)^n n! z^(n+1) for Re z > 0."""
    return complex(cmath.exp(1.0 / z) * exp1(1.0 / z))


@dataclass
class Unit:
    """Outcome of one unit of work."""

    wall: float = 0.0
    first: float = 0.0                     # ready to first checked result
    latencies: list = field(default_factory=list)   # seconds per operation
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)


def csv_digest(text: str) -> str:
    """SHA-256 of a CLI CSV without its '# op:' line (it names the input path)."""
    kept = [line for line in text.splitlines(keepends=True) if not line.startswith("# op:")]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def _parse_csv(text: str):
    meta, rows = {}, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif line:
            rows.append(line.split(","))
    return meta, rows[1:]


# ---------------------------------------------------------------------------
# CLI workloads


@dataclass
class CliWorkload:
    """A set of in-process CLI commands on the q-Euler family document."""

    name: str
    commands: list                          # (label, argv, expected rows)
    oracle_scale: float = 1.0               # != 1 feeds a deliberately wrong oracle
    reference: dict = field(default_factory=dict)   # label -> first digest

    def run_unit(self, workdir: str, index: int) -> Unit:
        """Run every command once; all sets are identical, whatever the index."""
        unit = Unit()
        t0 = time.perf_counter()
        for label, argv, expected in self.commands:
            out = os.path.join(workdir, f"{self.name}-{label}.csv")
            c0 = time.perf_counter()
            rc, error = _run_cli(argv + ["--out", out])
            text = ""
            if rc == 0:
                with open(out) as fh:
                    text = fh.read()
            elapsed = time.perf_counter() - c0
            bad, problems = self.check(label, rc, text, expected)
            if error:
                problems.append(f"{label}: {error}")
            digest = csv_digest(text)
            ref = self.reference.setdefault(label, digest)
            if digest != ref:
                bad = [True] * expected
                problems.append(f"{label}: CSV digest {digest[:16]} differs from "
                                f"the run's first {ref[:16]}")
            unit.digests[label] = digest
            unit.attempted += expected
            unit.failed += sum(bad)
            unit.problems += problems
            # the CLI writes its table at once: each row's share of the command
            unit.latencies += [elapsed / expected] * expected
            if not unit.first:
                unit.first = time.perf_counter() - t0
        unit.wall = time.perf_counter() - t0
        return unit

    def check(self, label, rc, text, expected):
        if rc != 0:
            return [True] * expected, [f"{label}: exit code {rc}"]
        meta, rows = _parse_csv(text)
        if len(rows) != expected:
            return [True] * expected, [f"{label}: {len(rows)} rows, expected {expected}"]
        if self.name == "confluence":
            return self._check_confluence(label, meta, rows)
        return self._check_stokes(label, meta, rows)

    def _check_confluence(self, label, meta, rows):
        problems = []
        errs = [float(r[-1]) for r in rows]
        bad = [not math.isfinite(e) for e in errs]
        for i in range(1, len(errs)):
            if not errs[i] < errs[i - 1]:
                bad[i] = True
                problems.append(f"{label}: error at row {i} does not decrease")
        if not errs[-1] < FINAL_ERROR_MAX:
            bad[-1] = True
            problems.append(f"{label}: final error {errs[-1]:.3e} >= {FINAL_ERROR_MAX}")
        oracle = euler_oracle(complex(CONFLUENCE_Z)).real * self.oracle_scale
        classical = float(meta.get("classical", "nan"))
        whole_table = []
        if not abs(classical - oracle) <= CLASSICAL_RTOL * abs(oracle):
            whole_table.append(f"classical value {classical!r} vs oracle {oracle!r}")
        if meta.get("verdict") != "monotone":
            whole_table.append(f"verdict {meta.get('verdict')!r}")
        if whole_table:
            bad = [True] * len(rows)
            problems += [f"{label}: {p}" for p in whole_table]
        return bad, problems

    def _check_stokes(self, label, meta, rows):
        problems = []
        bad = []
        target = 2.0 * math.pi * self.oracle_scale
        for row in rows:
            q, status = row[0], row[-1]
            ok = status == "ok"
            if ok and q == "classical":
                ok = abs(float(row[5]) - target) < STOKES_ABS_TOL
            elif ok:
                ok = float(row[6]) < INVARIANCE_MAX
            if not ok:
                problems.append(f"{label}: row q={q} status={status} out of tolerance")
            bad.append(not ok)
        if meta.get("verdict") != "approaching-classical":
            bad = [True] * len(rows)
            problems.append(f"{label}: verdict {meta.get('verdict')!r}")
        return bad, problems


def _run_cli(argv) -> tuple[int, str]:
    """Exit code and error text of one in-process CLI command; an exception
    the CLI does not handle is a failed command, not a stopped benchmark."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return cli_main(argv), err.getvalue().strip()
        except Exception as exc:  # noqa: BLE001 - the benchmark must keep running
            return -1, f"{type(exc).__name__}: {exc}"


def _write_family(workdir: str) -> str:
    path = os.path.join(workdir, "qeuler.json")
    with open(path, "w") as fh:
        json.dump(QEULER_DOC, fh)
    return path


def confluence_workload(workdir: str, smoke: bool, oracle_scale: float) -> CliWorkload:
    path = _write_family(workdir)
    grid = SMOKE_CONFLUENCE_GRID if smoke else CONFLUENCE_GRID
    rows = len(grid.split(","))
    # continuous first: cold_start_s is a unit's first command, and the 3 s
    # discrete table alone, two samples a run, spreads too much between runs
    commands = [
        (mode, ["confluence", "--op", path, "--direction", "0", "--z", f"{CONFLUENCE_Z!r},0",
                "--q-grid", grid, "--mode", mode], rows)
        for mode in ("continuous", "discrete")
    ]
    return CliWorkload("confluence", commands, oracle_scale)


def stokes_workload(workdir: str, smoke: bool, oracle_scale: float) -> CliWorkload:
    path = _write_family(workdir)
    grid = SMOKE_STOKES_GRID if smoke else STOKES_GRID
    commands = [
        ("discrete", ["stokes", "--op", path, "--direction", repr(math.pi),
                      f"--z=-0.2,0,{math.pi!r}", "--q-grid", grid, "--mode", "discrete"],
         1 + len(grid.split(",")))
    ]
    return CliWorkload("stokes", commands, oracle_scale)


# ---------------------------------------------------------------------------
# Evaluation sweep


def euler_operator() -> LinearOperator:
    return LinearOperator("differential", "delta",
                          (Polynomial([1.0]), Polynomial([0.0, 1.0])),
                          None, PowerSeries([0.0, 1.0]))


def q_euler_operator(q: float) -> LinearOperator:
    return LinearOperator("q_difference", "delta_q",
                          (Polynomial([1.0]), Polynomial([0.0, 1.0])),
                          q, PowerSeries([0.0, 1.0]))


def sweep_points(seed, count: int) -> np.ndarray:
    """Points with |z| log-uniform in SWEEP_ABS_Z and |arg z| < SWEEP_MAX_ARG,
    in visiting order.  Latin-hypercube sampling puts one point in each
    stratum of each coordinate.  The i-th point lies in the |z| stratum given
    by a fixed permutation, the same for every seed: the growth of the
    requested q-grid range, and so the number and size of the grid rebuilds,
    is then the same in every round of every run.  The seed, anything
    numpy's default_rng accepts, moves the points within their strata."""
    rng = np.random.default_rng(seed)
    lo, hi = math.log(SWEEP_ABS_Z[0]), math.log(SWEEP_ABS_Z[1])
    strata = np.random.default_rng(SWEEP_ORDER_SEED).permutation(count)
    u = (strata + rng.random(count)) / count
    v = (rng.permutation(count) + rng.random(count)) / count
    return np.exp(lo + (hi - lo) * u) * np.exp(1j * SWEEP_MAX_ARG * (2.0 * v - 1.0))


@dataclass
class SweepWorkload:
    """Build the classical Euler sum and the q = 1.05 discrete and theta
    q-sums once per round, then evaluate all three at each point.  Round i
    draws its points from (seed, i), so a run covers many points; the order
    of their |z| strata is the same in every round (see sweep_points)."""

    seed: int
    points: int = SWEEP_POINTS
    oracle_scale: float = 1.0

    def __post_init__(self):
        self.euler = euler_operator()
        self.qeuler = q_euler_operator(SWEEP_Q)

    def run_unit(self, workdir: str, index: int) -> Unit:
        zs = sweep_points([self.seed, index], self.points)
        points = [complex(SWEEP_FIRST_Z)] + [complex(z) for z in zs]
        unit = Unit()
        t0 = time.perf_counter()
        sums = None
        try:
            sums = (cl.multisum(None, self.euler, 0.0),
                    qs.q_multisum(None, self.qeuler, 0.0, mode="discrete"),
                    qs.q_multisum(None, self.qeuler, 0.0, mode="theta"))
        except Exception as exc:  # noqa: BLE001 - counted as failed points below
            unit.problems.append(f"build: {type(exc).__name__}: {exc}")
        for z in points:
            if sums is None:
                unit.attempted += 1
                unit.failed += 1
            else:
                self._point(unit, sums, z)
            if not unit.first:
                unit.first = time.perf_counter() - t0
        unit.wall = time.perf_counter() - t0
        return unit

    def _point(self, unit: Unit, sums, z: complex):
        unit.attempted += 1
        zp = SectorPoint.from_complex(z)
        t = time.perf_counter()
        try:
            values = [S(zp) for S in sums]
        except Exception as exc:  # noqa: BLE001 - a failed point, the sweep goes on
            unit.latencies.append(time.perf_counter() - t)
            unit.failed += 1
            unit.problems.append(f"z={z:.6g}: {type(exc).__name__}: {exc}")
            return
        unit.latencies.append(time.perf_counter() - t)
        classical, discrete, theta = values
        oracle = euler_oracle(z) * self.oracle_scale
        rel = abs(classical - oracle) / abs(oracle)
        cross = abs(discrete - theta) / abs(discrete)
        if not (rel < EULER_RTOL and cross < CROSS_RTOL):
            unit.failed += 1
            unit.problems.append(f"z={z:.6g}: classical rel err {rel:.2e}, "
                                 f"discrete vs theta {cross:.2e}")


def make_workload(name: str, seed: int, workdir: str, smoke: bool = False,
                  oracle_scale: float = 1.0):
    """Generate a workload's inputs from its seed.  The CLI workloads run the
    acceptance suite's pinned inputs, so the seed does not change them."""
    if name == "confluence":
        return confluence_workload(workdir, smoke, oracle_scale)
    if name == "stokes":
        return stokes_workload(workdir, smoke, oracle_scale)
    if name == "eval-sweep":
        return SweepWorkload(seed, points=10 if smoke else SWEEP_POINTS,
                             oracle_scale=oracle_scale)
    raise ValueError(f"unknown workload {name!r}")
