"""Compare the CLI of two source trees, command by command.

    python tools/cli_drift.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts.  The
script writes its own operator files to a temporary directory, runs every
command below once on each tree (``python -m qborel.cli`` with that tree on
PYTHONPATH) and prints, per command, whether the CSV on stdout, the stderr
text or the exit code differs.  It exits non-zero only when a command of the
head tree exits outside the CLI's contract {0, 2, 3, 4}; a difference is
reported, not judged.  For a CSV that differs it also prints the largest
relative change over the numeric cells both trees wrote, and names that cell.
"""

from __future__ import annotations

import difflib
import json
import math
import os
import subprocess
import sys
import tempfile

PI = repr(math.pi)

OPERATORS = {
    "euler": {"kind": "differential", "basis": "delta",
              "coefficients": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
              "rhs": [[0.0, 0.0], [1.0, 0.0]]},
    "qeuler": {"kind": "q_difference", "basis": "delta_q", "q": 1.05,
               "coefficients": [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
               "rhs": [[0.0, 0.0], [1.0, 0.0]]},
    # -2 y + delta y + z delta^2 y = z^2: the coefficient recurrence
    # (n - 2) a_n + (n - 1)^2 a_(n-1) = [n = 2] is resonant at n = 2
    "resonant": {"kind": "differential", "basis": "delta",
                 "coefficients": [[[-2.0, 0.0]], [[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                 "rhs": [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]},
    # z sigma_q^2 y + sigma_q y - y = 0: the rz-Borel operator of its
    # theta chain has the zero polynomial as its coefficient b_0
    "sigma_zero": {"kind": "q_difference", "basis": "sigma_q", "q": 1.05,
                   "coefficients": [[[-1.0, 0.0]], [[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
    # (1 - z) delta y + y = z: a convergent series, summed without sections
    "convergent": {"kind": "differential", "basis": "delta",
                   "coefficients": [[[1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]],
                   "rhs": [[0.0, 0.0], [1.0, 0.0]]},
    # (1 - z) delta_q y + y = z: a q-family whose limit is "convergent"
    "qconvergent": {"kind": "q_difference", "basis": "delta_q", "q": 1.05,
                    "coefficients": [[[1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]],
                    "rhs": [[0.0, 0.0], [1.0, 0.0]]},
}
# b0 = 1 + sqrt(q - 1), b1 = z with limit Euler: fails (A1) and (A3) on the
# q-grid 1.5, 1.3, 1.2
OPERATORS["failing_family"] = {"kind": "q_difference_family", "basis": "delta_q",
                               "coefficients": [[[[1.0, 0.0], [1.0, 0.0]]],
                                                [[[0.0, 0.0]], [[1.0, 0.0]]]],
                               "rhs": [[0.0, 0.0], [1.0, 0.0]],
                               "limit": OPERATORS["euler"]}

MODES = ("discrete", "continuous", "theta")
Z0 = ["--z", "0.1,0", "--z", "0.2,0.05"]
Z_PI = [f"--z=-0.2,0,{PI}", f"--z=-0.25,0,{PI}"]


def commands(ops: dict[str, str]) -> list[tuple[str, list[str]]]:
    """(name, argv) of every compared command."""
    out = [("sum", ["sum", "--op", ops["euler"], "--direction", "0"] + Z0)]
    for mode in MODES:
        for limit in (False, True):
            out.append((f"qsum-{mode}" + ("-limit" if limit else ""),
                        ["qsum", "--op", ops["qeuler"], "--direction", "0", "--mode", mode]
                        + Z0 + (["--limit-op", ops["euler"]] if limit else [])))
    out.append(("qsum-discrete-at-pi",
                ["qsum", "--op", ops["qeuler"], "--direction", PI, "--mode", "discrete"] + Z_PI))
    # a lateral ray pi/8 from the pole spirals in w = z^3
    out.append(("qsum-continuous-lateral",
                ["qsum", "--op", ops["qeuler"], "--direction", repr(math.pi + math.pi / 24),
                 "--mode", "continuous", f"--z=-0.2,0,{PI}"]))
    out.append(("qsum-theta-limit-at-pi",
                ["qsum", "--op", ops["qeuler"], "--direction", PI, "--mode", "theta",
                 "--limit-op", ops["euler"]] + Z_PI))
    for mode in MODES:
        out.append((f"confluence-{mode}",
                    ["confluence", "--op", ops["qeuler"], "--direction", "0", "--z", "0.1,0",
                     "--q-grid", "1.5,1.3,1.2", "--mode", mode]))
    # the benchmark's q-grid, down to q = 1.01 (one node per q-step)
    out.append(("confluence-continuous-benchmark-grid",
                ["confluence", "--op", ops["qeuler"], "--direction", "0", "--z", "0.1,0",
                 "--q-grid", "1.5,1.2,1.1,1.05,1.02,1.01", "--mode", "continuous"]))
    for mode in MODES:
        out.append((f"stokes-{mode}",
                    ["stokes", "--op", ops["qeuler"], "--direction", PI, "--q-grid", "1.3,1.2",
                     "--mode", mode] + Z_PI))
    out.append(("stokes-no-q-grid", ["stokes", "--op", ops["qeuler"], "--direction", PI] + Z_PI))
    out.append(("stokes-off-singular",
                ["stokes", "--op", ops["qeuler"], "--direction", "0.5", "--z", "0.2,0.1",
                 "--q-grid", "1.3,1.2"]))
    out.append(("hypergeom", ["hypergeom", "--upper", "3,5", "--p", "0.8333333333333334",
                              "--z", "0.15,0"]))
    out.append(("hypergeom-r3", ["hypergeom", "--upper", "0.2,0.7,3", "--p", "0.8",
                                 "--z", "0.15,0", "--direction", "0.5"]))
    # the README example: the classical-limit row and its p-grid
    out.append(("hypergeom-limit", ["hypergeom", "--upper", "3,5", "--p", "0.8333333333333334",
                                    "--z", "0.15,0", "--alphas", "0.3,0.9",
                                    "--p-grid", "0.7,0.8,0.9,0.95,0.99", "--z", "2.0,0"]))
    # the later points ask a wider window of the cached theta grid
    out.append(("qsum-theta-regrow", ["qsum", "--op", ops["qeuler"], "--direction", "0",
                                      "--mode", "theta", "--z", "0.3,0", "--z", "0.05,0",
                                      "--z", "0.2,0.1"]))
    # the later points grow the cached grids down and up: |w| = |z|^3 moves
    # 16 e-folds below the first point's grid, then 5.4 above it, past its
    # 5 e-fold slack
    regrow = ["--direction", "0", "--z", "0.1,0", "--z", "5e-4,0", "--z", "0.6,0"]
    out.append(("sum-regrow", ["sum", "--op", ops["euler"]] + regrow))
    for mode in ("discrete", "continuous"):
        out.append((f"qsum-{mode}-regrow",
                    ["qsum", "--op", ops["qeuler"], "--mode", mode] + regrow))
    out.append(("validate", ["validate", "--op", ops["qeuler"], "--q-grid", "1.5,1.2,1.1"]))
    out.append(("sum-resonant", ["sum", "--op", ops["resonant"], "--direction", "0",
                                 "--z", "0.1,0"]))
    out.append(("qsum-theta-sigma-zero-coefficient",
                ["qsum", "--op", ops["sigma_zero"], "--direction", "0", "--mode", "theta",
                 "--z", "0.1,0"]))
    out.append(("sum-convergent", ["sum", "--op", ops["convergent"], "--direction", "0",
                                   "--z", "0.1,0", "--z", "0.3,0.1"]))
    # exit paths: the table of a failing family (exit 4), a family and an
    # operator without a ladder, nodes that underflow and a point beyond the
    # reach of a convergent series' terms
    out.append(("confluence-failing-family",
                ["confluence", "--op", ops["failing_family"], "--direction", "0",
                 "--z", "0.1,0", "--q-grid", "1.5,1.3,1.2"]))
    out.append(("stokes-convergent-limit",
                ["stokes", "--op", ops["qconvergent"], "--direction", "0", "--z", "0.2,0.1",
                 "--q-grid", "1.3,1.2"]))
    out.append(("ladder-convergent", ["ladder", "--op", ops["convergent"]]))
    out.append(("sum-subnormal-nodes", ["sum", "--op", ops["euler"], "--direction", "0",
                                        "--z", f"{10.0 ** -93.5!r},0"]))
    out.append(("sum-convergent-past-its-reach",
                ["sum", "--op", ops["convergent"], "--direction", "0", "--z", "1.02,0"]))
    # malformed numbers: each exits 2 without a traceback
    out += [
        ("hypergeom-bad-upper", ["hypergeom", "--upper", "abc", "--p", "0.5"]),
        ("hypergeom-bad-p-grid", ["hypergeom", "--alphas", "0.5,1.7", "--p-grid", "0.5,x"]),
        ("hypergeom-bad-betas", ["hypergeom", "--alphas", "0.5,1.7", "--betas", "q"]),
        ("sum-nan-z", ["sum", "--op", ops["euler"], "--z", "nan,0"]),
        ("sum-inf-z", ["sum", "--op", ops["euler"], "--z", "inf,0"]),
        ("sum-nan-direction", ["sum", "--op", ops["euler"], "--direction", "nan",
                               "--z", "0.1,0"]),
        ("confluence-nan-q-grid", ["confluence", "--op", ops["qeuler"], "--z", "0.1,0",
                                   "--q-grid", "nan,1.2"]),
    ]
    return out


def _cells(csv_text: str) -> dict[str, str]:
    """The cells of a CLI CSV by name: "# key" for a metadata line, and
    "row i, column" for a data cell (rows counted from 1 below the header)."""
    cells, header, row = {}, None, 0
    for line in csv_text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            cells[f"# {key}"] = value
        elif header is None:
            header = line.split(",")
        elif line:
            row += 1
            for name, value in zip(header, line.split(",")):
                cells[f"row {row}, {name}"] = value
    return cells


def largest_change(base: str, head: str) -> tuple[float, str, str, str] | None:
    """(relative change, cell, base value, head value) of the numeric cell
    of two CSVs that moved most, |a - b|/max(|a|, |b|); None when no finite
    numeric cell of one is finite and numeric in the other."""
    worst = None
    head_cells = _cells(head)
    for name, a in _cells(base).items():
        try:
            x, y = float(a), float(head_cells[name])
        except (KeyError, ValueError):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        rel = abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0
        if worst is None or rel > worst[0]:
            worst = (rel, name, a, head_cells[name])
    return worst


def run(src: str, argv: list[str]) -> tuple[str, str, int]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "qborel.cli"] + argv, env=env,
                          capture_output=True, text=True, timeout=600)
    return proc.stdout, proc.stderr, proc.returncode


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_src, head_src = argv
    broken = []
    with tempfile.TemporaryDirectory() as tmp:
        ops = {}
        for name, doc in OPERATORS.items():
            ops[name] = os.path.join(tmp, f"{name}.json")
            with open(ops[name], "w") as fh:
                json.dump(doc, fh)
        for name, cmd in commands(ops):
            base, head = run(base_src, cmd), run(head_src, cmd)
            diffs = [what for what, a, b in zip(("csv", "stderr", "exit"), base, head) if a != b]
            print(f"{name}: " + (f"differs in {', '.join(diffs)}" if diffs else "identical")
                  + f" (exit {base[2]} -> {head[2]})")
            if "csv" in diffs:
                worst = largest_change(base[0], head[0])
                if worst is not None:
                    print(f"    largest relative change {worst[0]:.2e} at {worst[1]} "
                          f"({worst[2]} -> {worst[3]})")
                for line in difflib.unified_diff(base[0].splitlines(), head[0].splitlines(),
                                                 lineterm="", n=0):
                    if not line.startswith(("---", "+++", "@@")):
                        print(f"    csv {line}")
            if "stderr" in diffs:
                # the last line names the error; a traceback above it
                # differs between trees by its paths alone
                for side, text in (("-", base[1]), ("+", head[1])):
                    print(f"    stderr {side}{(text.splitlines() or [''])[-1]}")
            if head[2] not in (0, 2, 3, 4):
                broken.append(name)
    if broken:
        print(f"head exits outside {{0, 2, 3, 4}}: {', '.join(broken)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
