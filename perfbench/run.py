"""semikit benchmark: end-to-end and per-layer metrics for three workloads.

    python3 perfbench/run.py --workload {kernels,oracle,cli,all} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; semikit is imported from ``src/``. Each
workload runs in its own fresh child process (``child.py``), one child at a
time, driven closed-loop by a single caller. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 if any answer was wrong, 2 if the benchmark
could not run. A results file with the run stamp goes to ``perfbench/out/``.

``--trace 0`` prints the end-to-end metrics of the named workload.
``--trace 1`` runs every workload twice for a fixed number of rounds, once
plain and once with span recorders bound in, and prints the per-layer
metrics plus each workload's tracing overhead (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("kernels", "oracle", "cli")
# Set-up is sampled this many times per run (the measured child included).
SETUP_SAMPLES = 7
# Fixed rounds per workload in the traced run, so self times compare
# across commits.
TRACE_ROUNDS = {"kernels": 40, "oracle": 30, "cli": 4}
CHILD_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


def stamp(seed):
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or commit
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "seed": seed,
        "loadavg_start": os.getloadavg(),
    }


def child(workload, seed, tag, *flags):
    """Run one child to completion; return (result dict, seconds from
    spawn to inputs ready)."""
    name = f"{workload}-seed{seed}-{tag}-{os.getpid()}"
    result_path = os.path.join(OUT, f"{name}.json")
    work = os.path.join(OUT, f"work-{name}")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--work", work, "--result", result_path, *flags]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child exited with {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    return result, result["ready"] - t0


def run_plain(workload, seed, seconds, extra):
    setups = []
    for i in range(SETUP_SAMPLES - 1):
        _, setup = child(workload, seed, f"setup{i}", "--setup-only", *extra)
        setups.append(setup)
    result, setup = child(workload, seed, "plain", "--seconds", str(seconds), *extra)
    setups.append(setup)
    s = result["summary"]
    metrics = {name: s[name] for name in END_TO_END if name != "setup_s"}
    metrics["setup_s"] = statistics.median(setups)
    result["setup_samples_s"] = setups
    return result, metrics


def same_answers(a, b):
    """Equal stream answers, and equal wide-tier answers wherever neither
    run hit the deadline (an instance near it may overrun in only one)."""
    if a["stream_answer_digest"] != b["stream_answer_digest"]:
        return False
    return all(x["answer"] == y["answer"]
               for x, y in zip(a["wide_tier"]["instances"], b["wide_tier"]["instances"])
               if x["status"] != "timeout" and y["status"] != "timeout")


def run_traced(seed, extra):
    results, metrics = [], {}
    for workload in WORKLOADS:
        rounds = ["--rounds", str(TRACE_ROUNDS[workload])]
        plain, _ = child(workload, seed, "untraced", *rounds, *extra)
        traced, _ = child(workload, seed, "traced", "--trace", "1", *rounds, *extra)
        results += [plain, traced]
        for name, m in traced["layers"].items():
            metrics[name] = m["value"]
        metrics[f"trace.overhead_ratio.{workload}"] = traced["busy_s"] / plain["busy_s"]
        if not same_answers(plain, traced):
            traced["failures"].append("traced answers differ from untraced answers")
            traced["failed"] += 1
    return results, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--rounds", type=int, default=0, help="fixed round count instead of --seconds")
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "semikit", "__init__.py")):
        print(f"error: no semikit source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    run_stamp = stamp(args.seed)
    extra = (["--tiny"] if args.tiny else []) + (["--rounds", str(args.rounds)] if args.rounds else [])
    try:
        if args.trace:
            results, values = run_traced(args.seed, extra)
            units = {name: unit for r in results for name, unit in
                     ((n, m["unit"]) for n, m in r.get("layers", {}).items())}
            units.update({f"trace.overhead_ratio.{w}": "ratio" for w in WORKLOADS})
        else:
            names = WORKLOADS if args.workload == "all" else (args.workload,)
            results, values, units = [], {}, {}
            for workload in names:
                result, metrics = run_plain(workload, args.seed, args.seconds, extra)
                results.append(result)
                prefix = f"{workload}." if args.workload == "all" else ""
                for name, value in metrics.items():
                    values[prefix + name] = value
                    units[prefix + name] = END_TO_END[name]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    run_stamp["loadavg_end"] = os.getloadavg()
    run_stamp["backend"] = results[0]["backend"]
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    for r in results:
        for msg in r["failures"]:
            print(f"WRONG [{r['workload']}] {msg}", file=sys.stderr)
        for name, outcome in r.get("known_defects", {}).items():
            print(f"KNOWN DEFECT [{r['workload']}] {name}: {outcome}", file=sys.stderr)
    line = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"results-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"stamp": run_stamp, "result": line, "children": results}, fh, indent=1)
    for r in results:
        if "summary" in r:
            s = r["summary"]
            print(f"# {r['workload']}: {s['samples']} ops, tail = p{s['op_tail_percentile']:.3f} "
                  f"({s['op_tail_beyond']} beyond), timeouts {r['timeouts']}")
    print(json.dumps(line))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
