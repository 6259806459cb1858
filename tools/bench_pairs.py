"""Paired end-to-end benchmark of two source trees.

    python tools/bench_pairs.py PARENT_ROOT HEAD_ROOT --out BENCH_<PR>.json \
        [--claim WORKLOAD:METRIC]

PARENT_ROOT and HEAD_ROOT are the roots of two checkouts, each with its own
perfbench/ and src/.  PARENT_ROOT must be the top of a git checkout, whose
commit the report names: make it with ``git worktree add PARENT_ROOT
<commit>``, as CI's drift step does.  For every workload of
HEAD_ROOT/BENCHMARK.json the script runs, one process at a time,

    python3 perfbench/run.py --workload W --seed 500+n --seconds 30 --trace 0

from each root in pairs n = 1..10: the parent first in odd pairs, the head
first in even ones.  Then it runs one traced unit per root and workload
(--seed 1 --seconds 10 --trace 1).  Of each run it reads only the last line
of standard output, perfbench's JSON result; it edits nothing under
perfbench/.

The output file holds every run, and per workload and end-to-end metric each
side's median and quartiles, the relative change of the medians, the pairs
the head wins (by the metric's "better" direction) and whether the head's
median stays within the metric's bound.  For the claimed metric it also
gives the verdict of the gain rule: the head better in at least 9 of 10
pairs, and the medians further apart than the parent's interquartile range.
The claim is not met either when the change fails more operations than the
parent on the claimed workload or when any run of the change there reports
an incorrect result; the report names the reason.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PAIRS = 10
SECONDS = 30.0


def perfbench(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """perfbench's JSON result line for one run from root."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {' '.join(argv)} in {root} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def revision(root: str) -> str:
    """The commit checked out at root, which must be the top of a git
    checkout: a local path or an enclosing repository's commit would stand
    in for the parent's in the report."""
    proc = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                          capture_output=True, text=True)
    top, _, commit = proc.stdout.strip().partition("\n")
    if proc.returncode != 0 or os.path.realpath(top) != os.path.realpath(root):
        raise SystemExit(f"bench_pairs: {root} is not the top of a git checkout; make the "
                         f"parent tree with git worktree add")
    return commit


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(runs: list[dict], spec: dict) -> dict:
    """Per end-to-end metric: medians, quartiles, wins and the bound."""
    sides = {side: sorted((r for r in runs if r["side"] == side), key=lambda r: r["pair"])
             for side in ("parent", "change")}
    out = {}
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name] for r in sides["parent"]]
        change = [r["metrics"][name] for r in sides["change"]]
        if not parent or len(parent) != len(change):
            continue
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        rel = (cm - pm) / pm if pm else 0.0
        within = rel <= metric["bound"] if lower else -rel <= metric["bound"]
        out[name] = {"pairs": len(parent), "bound": metric["bound"],
                     "parent_median": pm, "parent_q1": p1, "parent_q3": p3,
                     "change_median": cm, "change_q1": c1, "change_q3": c3,
                     "rel_change": rel, "change_better_in": wins,
                     "verdict": "within bound" if within else "worse than bound"}
    out["failed_ops"] = {side: sum(r["failed"] for r in rs) for side, rs in sides.items()}
    out["failed_ops"].update({f"{side}_attempted": sum(r["attempted"] for r in rs)
                              for side, rs in sides.items()})
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_root")
    parser.add_argument("head_root")
    parser.add_argument("--out", required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC whose gain the change claims")
    args = parser.parse_args(argv)
    roots = {"parent": args.parent_root, "change": args.head_root}
    parent = revision(args.parent_root)
    with open(os.path.join(args.head_root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = []
    for workload in workloads:
        for pair in range(1, PAIRS + 1):
            order = ("parent", "change") if pair % 2 else ("change", "parent")
            for side in order:
                result = perfbench(roots[side], workload, 500 + pair, SECONDS, 0)
                runs.append({"pair": pair, "workload": workload, "side": side,
                             "seed": 500 + pair, "correct": result["correct"],
                             "attempted": result["attempted"], "failed": result["failed"],
                             "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
                print(f"{workload} pair {pair} {side}: "
                      f"{ {k: round(v, 4) for k, v in runs[-1]['metrics'].items()} }",
                      file=sys.stderr, flush=True)
    summary = {w: summarize([r for r in runs if r["workload"] == w], spec) for w in workloads}

    traced = {}
    for workload in workloads:
        layers = {side: {k: v["value"] for k, v in
                         perfbench(root, workload, 1, 10.0, 1)["metrics"].items()}
                  for side, root in roots.items()}
        keys = [k for k in layers["change"] if k.endswith((".calls", ".self_s"))
                and (layers["parent"].get(k) or layers["change"][k])]
        traced[workload] = {side: {k: layers[side].get(k, 0.0) for k in keys}
                            for side in roots}

    report = {
        "description": "perfbench result lines of the parent tree and of this change, "
                       "run by tools/bench_pairs.py with the unchanged perfbench/ harness",
        "parent": parent,
        "command": f"python3 perfbench/run.py --workload <workload> --seed <500 + pair> "
                   f"--seconds {SECONDS:g} --trace 0",
        "machine": f"{os.cpu_count()}-core {platform.processor() or platform.machine()}, "
                   f"Python {platform.python_version()}, one benchmark process at a time",
        "pairing": "each pair runs parent and change back to back on one seed and workload; "
                   "odd pairs run the parent first, even pairs the change",
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        s = summary[workload][metric]
        gap = abs(s["change_median"] - s["parent_median"])
        iqr = s["parent_q3"] - s["parent_q1"]
        failed = summary[workload]["failed_ops"]
        wrong = sum(not r["correct"] for r in runs
                    if r["workload"] == workload and r["side"] == "change")
        reasons = [text for broken, text in [
            (s["change_better_in"] < 9, f"better in {s['change_better_in']} of {s['pairs']} pairs"),
            (gap <= iqr, f"median gap {gap:.4g} within the parent's IQR {iqr:.4g}"),
            (failed["change"] > failed["parent"],
             f"{failed['change']} failed operations against the parent's {failed['parent']}"),
            (wrong > 0, f"{wrong} runs of the change report an incorrect result")] if broken]
        report["claim"] = {
            "metric": metric, "workload": workload,
            "rule": "change better in >= 9 of 10 pairs and median difference > parent "
                    "interquartile range",
            "parent_median": s["parent_median"], "change_median": s["change_median"],
            "change_better_in": s["change_better_in"], "parent_iqr": iqr,
            "met": not reasons, "not_met_because": reasons,
        }
    report["series"] = [{"name": "final", "code": "this change as committed",
                         "summary": summary, "runs": runs}]
    report["traced"] = {"command": "python3 perfbench/run.py --workload <workload> --seed 1 "
                                   "--seconds 10 --trace 1",
                        "note": "one traced unit per side and workload; the layers that are "
                                "nonzero on either side",
                        "layers": traced}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    for workload, metrics in summary.items():
        for name, s in metrics.items():
            if name != "failed_ops":
                print(f"{workload:10s} {name:13s} parent {s['parent_median']:.4g} change "
                      f"{s['change_median']:.4g} ({100 * s['rel_change']:+.1f} %, better in "
                      f"{s['change_better_in']}/{s['pairs']}) {s['verdict']}")
    if "claim" in report:
        print(f"claim {args.claim}: "
              + ("met" if report["claim"]["met"] else "not met: " + "; ".join(reasons)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
