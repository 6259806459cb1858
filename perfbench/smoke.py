"""Smoke test of the benchmark itself (about two minutes on 2 cores).

Run from the root of a source checkout:

    python3 perfbench/smoke.py

For each workload at minimal size it checks that every metric declared in
BENCHMARK.json is printed with its unit, in an untraced and a traced run; that
a deliberately wrong oracle makes operations fail; and that the benchmark
exits non-zero, without a result line, when the qborel sources are missing.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, *extra: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.strip().splitlines()


def result_of(workload: str, *extra: str) -> dict:
    rc, lines = run(workload, "--smoke", *extra)
    assert rc == 0, f"{workload} {extra}: exit code {rc}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def assert_declared(result: dict, declared: list[dict], label: str):
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    wanted = {m["name"]: m["unit"] for m in declared}
    assert printed == wanted, (
        f"{label}: missing {sorted(set(wanted) - set(printed))}, "
        f"extra {sorted(set(printed) - set(wanted))}, "
        f"unit mismatches {[k for k in wanted if k in printed and printed[k] != wanted[k]]}")
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (label, name)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for workload in (w["name"] for w in bench["workloads"]):
        plain = result_of(workload, "--trace", "0")
        assert plain["correct"] and plain["failed"] == 0, (workload, plain)
        assert_declared(plain, bench["end_to_end"], f"{workload} --trace 0")

        traced = result_of(workload, "--trace", "1")
        assert traced["correct"] and traced["failed"] == 0, (workload, traced)
        assert_declared(traced, bench["per_layer"], f"{workload} --trace 1")
        assert traced["metrics"]["trace.closure_error"]["value"] < 0.01

        wrong = result_of(workload, "--trace", "0", "--corrupt-oracle")
        assert wrong["failed"] > 0 and not wrong["correct"], (workload, wrong)
        print(f"smoke {workload}: ok ({plain['attempted']} operations; a wrong "
              f"oracle fails {wrong['failed']}/{wrong['attempted']})")

    bare = os.path.join(ROOT, ".perfbench_work", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines = run("eval-sweep", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert rc != 0 and not any(line.startswith("{") for line in lines), (rc, lines)
    print("smoke bare directory: exits", rc, "without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
