"""One workload in one fresh process: set up, run closed-loop, check answers.

Started by ``run.py``; not meant to be run by hand. A single caller issues
each operation after the previous one returns. The child writes a JSON
summary to ``--result``; with ``--setup-only`` it stops as soon as its
inputs are ready, which is how ``run.py`` samples set-up time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# CPU-time deadline of each oracle wide-tier operation.
WIDE_DEADLINE_S = 0.3
# The cli workload rotates through this many input sets and command seeds;
# each round is compared with the first round of the same set.
CLI_VARIANTS = 16
SCALAR_CHAIN_STEPS = 20000


class DeadlineExceeded(BaseException):
    """Raised from the SIGPROF handler when an operation overruns."""


_armed = False


def _on_deadline(signum, frame):
    if _armed:
        raise DeadlineExceeded()


def timed_call(call, deadline):
    """Run ``call`` under an optional CPU-time deadline (a one-shot
    ITIMER_PROF, so no extra thread or process).

    Returns (value, exception, seconds, timed_out)."""
    global _armed
    value = exc = None
    if deadline:
        _armed = True
        signal.setitimer(signal.ITIMER_PROF, deadline)
    t0 = time.perf_counter()
    try:
        try:
            value = call()
        except Exception as e:  # the op's check decides whether it was expected
            exc = e
        t1 = time.perf_counter()
        _armed = False
        timed_out = False
    except DeadlineExceeded:
        t1 = time.perf_counter()
        _armed = False
        timed_out = True
    if deadline:
        signal.setitimer(signal.ITIMER_PROF, 0)
    return value, exc, t1 - t0, timed_out


def scalar_chain(draw, seed):
    """Scalar-layer throughput: add, mul, inv and ordered_diff over a fixed
    pool of operands, in operations per second. Every answer is checked."""
    from fractions import Fraction
    from semikit import add, inv, mul, ordered_diff

    rng = random.Random(f"scalar:{seed}")
    pool = [draw(rng) for _ in range(64)]
    pool = [x for x in pool if x.numerator] or [draw(rng)]
    results = []
    t0 = time.perf_counter()
    for i in range(SCALAR_CHAIN_STEPS // 4):
        a, b = pool[i % len(pool)], pool[(7 * i + 3) % len(pool)]
        results.append(ordered_diff(mul(a, inv(b)), add(a, b)).gap)
    elapsed = time.perf_counter() - t0
    F = lambda x: Fraction(x.numerator, x.denominator)
    for i, got in enumerate(results):
        a, b = F(pool[i % len(pool)]), F(pool[(7 * i + 3) % len(pool)])
        if F(got) != abs(a / b - (a + b)):
            raise AssertionError("scalar chain answer is wrong")
    return SCALAR_CHAIN_STEPS / elapsed


class Runner:
    def __init__(self, tracer):
        self.tracer = tracer
        self.records = []  # (class, seconds, "ok" | "fail" | "timeout")
        self.failures = []
        self.inputs = hashlib.sha256()
        self.answers = hashlib.sha256()

    def run(self, op, deadline=None):
        from workloads import WrongAnswer

        self.inputs.update(op.token.encode() + b"\n")
        call = op.call
        if self.tracer is not None:
            self.tracer.op += 1
            call = self.tracer.wrap("op." + op.cls, call)
        value, exc, seconds, timed_out = timed_call(call, deadline)
        if timed_out:
            status, answer = "timeout", f"timeout>{deadline}s"
        else:
            try:
                answer, status = op.check(value, exc), "ok"
            except WrongAnswer as e:
                answer, status = "wrong", "fail"
                if len(self.failures) < 20:
                    self.failures.append(f"{op.cls}: {e}")
        self.answers.update(answer.encode() + b"\n")
        self.records.append((op.cls, seconds, status))
        return seconds, status, answer


def summarize(records, stream_count):
    """End-to-end figures over the op records; the first ``stream_count``
    records are the closed-loop stream, the rest the oracle wide tier."""
    lat = sorted(sec for _, sec, _ in records)
    n = len(lat)
    top = sorted(records, key=lambda rec: rec[1])[max(0, n - 11):]
    tail_classes = {}
    for cls, _, _ in top:
        tail_classes[cls] = tail_classes.get(cls, 0) + 1
    stream = records[:stream_count]
    stream_ok = sum(1 for _, _, status in stream if status == "ok")
    stream_busy = sum(sec for _, sec, _ in stream)
    ok = sum(1 for _, _, status in records if status == "ok")
    tail_index = max(0, n - 11)
    return {
        "ops_per_s": stream_ok / stream_busy if stream_busy else 0.0,
        "op_p50_ms": statistics.median(lat) * 1e3 if lat else 0.0,
        "op_tail_ms": lat[tail_index] * 1e3 if lat else 0.0,
        "op_tail_percentile": 100.0 * (tail_index + 1) / n if n else 0.0,
        "op_tail_beyond": n - 1 - tail_index,
        "tail_classes": tail_classes,
        "samples": n,
        "ok_ratio": ok / n if n else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "stream_ops": stream_count,
        "stream_busy_s": stream_busy,
    }


def per_class(records):
    groups = {}
    for cls, sec, status in records:
        groups.setdefault(cls, []).append((sec, status))
    return {
        cls: {
            "count": len(items),
            "p50_ms": statistics.median(s for s, _ in items) * 1e3,
            "busy_s": sum(s for s, _ in items),
            "not_ok": sum(1 for _, st in items if st != "ok"),
        }
        for cls, items in sorted(groups.items())
    }


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--rounds", type=int, default=0, help="fixed round count; 0 = run for --seconds")
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--work", required=True, help="scratch directory for the cli inputs and reports")
    p.add_argument("--result", required=True)
    args = p.parse_args(argv)

    sys.path.insert(0, SRC)
    import semikit

    if not os.path.abspath(semikit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"semikit imported from {semikit.__file__}, not from {SRC}")
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install([workloads])
    runner = Runner(tracer)

    def rng(r):
        return random.Random(f"{args.workload}:{args.seed}:{r}")

    wide_ops = []
    if args.workload == "kernels":
        make_round = lambda r: workloads.kernels_round(rng(r), r)
    elif args.workload == "oracle":
        make_round = lambda r: workloads.oracle_round(rng(r), r)
        wide_ops = workloads.oracle_wide(rng("wide"), args.tiny)
    elif args.workload == "cli":
        variants = []
        for v in range(CLI_VARIANTS):
            work = os.path.join(args.work, f"v{v}")
            os.makedirs(work, exist_ok=True)
            variants.append((workloads.cli_inputs(rng(f"inputs{v}"), work), work, {}))
            for name in sorted(os.listdir(work)):
                with open(os.path.join(work, name), "rb") as fh:
                    runner.inputs.update(name.encode() + b"\0" + fh.read())
        make_round = lambda r: workloads.cli_round(*variants[r % CLI_VARIANTS])
    else:
        raise SystemExit(f"unknown workload {args.workload!r}")
    ops = make_round(0)
    ready = time.monotonic()

    result = {"workload": args.workload, "seed": args.seed, "ready": ready}
    if args.setup_only:
        shutil.rmtree(args.work, ignore_errors=True)
        with open(args.result, "w", encoding="utf-8") as fh:
            json.dump(result, fh)
        return 0

    signal.signal(signal.SIGPROF, _on_deadline)
    loop_start = time.perf_counter()
    rounds = 0
    while True:
        for op in ops:
            runner.run(op)
        rounds += 1
        if args.rounds:
            if rounds >= args.rounds:
                break
        elif time.perf_counter() - loop_start >= args.seconds:
            break
        ops = make_round(rounds)
    stream_count = len(runner.records)
    stream_answers = runner.answers.hexdigest()
    wide = []
    for op in wide_ops:
        seconds, status, answer = runner.run(op, WIDE_DEADLINE_S)
        wide.append({"class": op.cls, "status": status,
                     "seconds": seconds if status != "timeout" else answer,
                     "answer": hashlib.sha256(answer.encode()).hexdigest()[:16]})
    loop_wall = time.perf_counter() - loop_start
    shutil.rmtree(args.work, ignore_errors=True)
    if tracer is not None:
        tracer.uninstall()
    if args.workload == "kernels":
        result["known_defects"] = workloads.probe_known_defects()

    summary = summarize(runner.records, stream_count)
    result.update(
        backend=semikit.BACKEND,
        python=platform.python_version(),
        rounds=rounds,
        attempted=len(runner.records),
        failed=sum(1 for _, _, st in runner.records if st == "fail"),
        timeouts=sum(1 for _, _, st in runner.records if st == "timeout"),
        failures=runner.failures,
        input_digest=runner.inputs.hexdigest(),
        answer_digest=runner.answers.hexdigest(),
        stream_answer_digest=stream_answers,
        loop_wall_s=loop_wall,
        busy_s=sum(sec for _, sec, _ in runner.records),
        summary=summary,
        per_class=per_class(runner.records),
        wide_tier={"deadline_cpu_s": WIDE_DEADLINE_S, "instances": wide},
    )
    if tracer is not None:
        extra = {}
        if args.workload == "kernels":
            extra["scalar_small"] = scalar_chain(workloads.small, args.seed)
            extra["scalar_wide"] = scalar_chain(workloads.wide, args.seed)
        if args.workload == "cli":
            extra["report_bytes"] = sum(len(blob) for _, blob in variants[0][2].values())
        layers = tracing.layer_metrics(args.workload, tracer.spans, runner.records, extra)
        result["layers"] = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
        result["spans"] = len(tracer.spans)
        tracer.dump(os.path.splitext(args.result)[0] + ".spans.jsonl")
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
