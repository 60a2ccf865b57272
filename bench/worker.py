"""One round of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object.  Every operation of the list
runs exactly once, so each time is that of a fresh process: memo tables
and caches hold only what earlier operations of the same round put there.
``--t0`` is the parent's ``perf_counter`` just before it started this
process (the clock is system-wide on Linux), so ``setup_s`` runs from
process start to the first timed operation.  Times are also reported
scaled to a reference CPU speed (see ``probe``).  Answers are checked after
the timed region, and the peak resident set is read before the checks
allocate anything.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# Other tenants of a shared host slow the CPUs by up to half, in spells of a
# fraction of a second to minutes.  So every timed span is also scaled to a
# reference CPU speed: a fixed pure-Python loop (``probe``) is timed before
# the first operation, after the last, and whenever PROBE_EVERY_S have
# passed since the last probe; an operation's scaled time is its time times
# PROBE_REF_S over the mean of the probes on either side of it.
PROBE_REF_S = 0.001  # the probe on a quiet CPU of the reference machine
PROBE_EVERY_S = 0.05


def _probe_loop() -> int:
    table = dict.fromkeys(range(64), 0)
    total = 0
    for i in range(6000):
        k = i & 63
        table[k] += i * k % 7
        total += table[k] >> 3
    return total


def probe() -> float:
    """Fastest of three runs of the probe loop, with the collector off, so
    that fanocalc's heap cannot change the probe's cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            _probe_loop()
            best = min(best, perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scale(before: float, after: float) -> float:
    return PROBE_REF_S / ((before + after) / 2)


def run_ops(ops):
    """Time each operation; returns (solve seconds, [(op, result, error,
    seconds, scaled seconds)]).  Probes run between operations, never
    inside the timed spans."""
    records, pending = [], []
    before = probe()
    last = perf_counter()
    for i, op in enumerate(ops):
        start = perf_counter()
        try:
            result, error = op.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = perf_counter()
        pending.append([op, result, error, end - start])
        if end - last >= PROBE_EVERY_S or i == len(ops) - 1:
            after = probe()
            factor = scale(before, after)
            records += [(*rec, rec[3] * factor) for rec in pending]
            pending, before, last = [], after, perf_counter()
    return sum(rec[3] for rec in records), records


def check_records(records) -> tuple[int, int, list[str]]:
    """(failed, wrong, failure descriptions); a wrong answer is also a failure."""
    failed, wrong, notes = 0, 0, []
    for op, result, error, *_ in records:
        if error is not None:
            failed += 1
            notes.append(f"{op.name}: {error}")
            continue
        try:
            ok = bool(op.check(result))
        except Exception as exc:  # a check that cannot read the answer rejects it
            ok = False
            notes.append(f"{op.name}: check raised {type(exc).__name__}: {exc}")
        if not ok:
            failed += 1
            wrong += 1
            notes.append(f"{op.name}: wrong answer {str(result)[:200]}")
    return failed, wrong, notes


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()
    start = perf_counter()
    first_probe = probe()
    probe_s = perf_counter() - start

    tracer = None
    if args.trace and args.workload != "cli":  # cli children trace themselves
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    rng = random.Random(args.seed)
    ops = workloads.build(args.workload, rng, ROOT, traced=bool(args.trace))
    if args.workload == "cli":
        ops[0].run()  # untimed warm-up child: file cache, bytecode
    setup_s = perf_counter() - args.t0 - probe_s
    setup_scaled_s = setup_s * scale(first_probe, probe())
    solve_s, records = run_ops(ops)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    trace = None
    if tracer is not None:
        trace = tracer.snapshot()
    elif args.trace:
        import tracing

        trace = {}
        for _, result, error, *_ in records:
            if error is None:
                tracing.merge(trace, json.loads(result[1].strip().splitlines()[-1]))
    latencies = [[op.name, seconds, scaled] for op, _, _, seconds, scaled in records]
    failed, wrong, notes = check_records(records)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "setup_scaled_s": setup_scaled_s,
                "solve_s": solve_s,
                "peak_rss_mb": peak_rss_mb,
                "latencies": latencies,
                "attempted": len(records),
                "failed": failed,
                "wrong": wrong,
                "notes": notes,
                "trace": trace,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
