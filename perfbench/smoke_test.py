"""Smoke test of the benchmark at tiny sizes (one round, one wide-tier
instance per shape).

    python3 perfbench/smoke_test.py        # or: python3 -m pytest perfbench/smoke_test.py

Checks that one seed gives identical input and answer digests on two runs,
that every answer is right, and that every metric named in BENCHMARK.json
is printed: the end-to-end ones for each workload, the per-layer ones by
the traced run.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("kernels", "oracle", "cli")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload, trace, seed=3):
    """(last-line result, results-file children) of one tiny run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--rounds", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(HERE, "out", f"results-{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        return line, json.load(fh)["children"]


def test_digests_repeat_and_metrics_complete():
    names = [m["name"] for m in spec()["end_to_end"]]
    for workload in WORKLOADS:
        first, children = run(workload, 0)
        second, children_again = run(workload, 0)
        assert first["correct"] and first["failed"] == 0, workload
        assert sorted(first["metrics"]) == sorted(names), workload
        for key in ("input_digest", "answer_digest", "attempted"):
            assert children[0][key] == children_again[0][key], (workload, key)
        assert second["attempted"] == first["attempted"]


def test_traced_run_reports_every_layer():
    names = [m["name"] for m in spec()["per_layer"]]
    line, _ = run("kernels", 1)
    assert line["correct"], line
    assert sorted(line["metrics"]) == sorted(names)
    for name, metric in line["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


if __name__ == "__main__":
    test_digests_repeat_and_metrics_complete()
    test_traced_run_reports_every_layer()
    print("smoke test passed")
