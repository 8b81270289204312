"""Self-test of the benchmark at smoke size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it runs a smoke-size
measured run and a smoke-size traced run, and asserts that each prints
every metric BENCHMARK.json names, with its unit, that the outputs were
correct, and that the traced and untraced processes emitted identical
samples.  Last, it asserts that the benchmark fails without printing a
result in a directory holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
SMOKE_GRID_VERTICES = 16  # prepare.py's smoke grid is 4 x 4


def run(cwd, workload, trace):
    proc = subprocess.run(RUN + ["--workload", workload, "--seed", "7", "--seconds", "1",
                                 "--trace", str(trace), "--smoke"],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines, expected):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    assert result["failed"] == 0, result
    metrics = result["metrics"]
    assert list(metrics) == list(expected), (list(metrics), list(expected))
    for name, unit in expected.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert math.isfinite(metrics[name]["value"]), (name, metrics[name])
    return metrics


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        code, lines = run(root, workload, 0)
        assert code == 0, (workload, code, lines[-5:])
        metrics = check_result(lines, end_to_end)
        assert all(m["value"] > 0 for m in metrics.values()), (workload, metrics)
        code, lines = run(root, workload, 1)
        assert code == 0, (workload, code, lines[-5:])
        assert "traced and untraced samples identical: True" in lines, workload
        metrics = check_result(lines, per_layer)
        if workload == "ust_grid":
            assert metrics["ust.pinv_calls_per_tree"]["value"] == SMOKE_GRID_VERTICES - 1
        print(f"ok {workload}")

    bare = os.path.join(root, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    code, lines = run(bare, "ust_grid", 0)
    assert code != 0 and not (lines and lines[-1].startswith("{")), (code, lines)
    print("ok bare directory fails without a result")


if __name__ == "__main__":
    main()
