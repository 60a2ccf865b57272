"""Run one workload of the benchmark for a fixed time and print its metrics.

    python3 bench/run.py --workload grassmann --seed 1 --seconds 25 --trace 0

Each round is a fresh ``worker.py`` process that sets up, runs the
workload's whole operation list once (one operation at a time) and checks
every answer.  Rounds repeat until ``--seconds`` have passed; the last one
always finishes, so every run attempts whole rounds.  ``solve_s`` is the
sum over the list of each operation's median scaled time over the rounds
(scaled to a reference CPU speed: see ``worker.probe``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  A fuller record of the run goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS, cli_env  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
ROUND_TIMEOUT_S = 150


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _median(values):
    return statistics.median(values) if values else 0.0


def _import_probe() -> tuple[dict, float]:
    """Self and cumulative import times of fanocalc.cli, and the wall time
    of a bare interpreter, both from ``python -X importtime`` children."""
    env = cli_env(ROOT)
    probe = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import fanocalc.cli"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=60,
    )
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "pass"],
        capture_output=True, env=env, cwd=ROOT, timeout=60,
    )
    bare_ms = (perf_counter() - start) * 1000
    return tracing.parse_importtime(probe.stderr), bare_ms


def per_op(rounds) -> list[float]:
    """Each operation's median scaled time over the rounds, in list order."""
    return [statistics.median(times) for times in zip(*[[t[2] for t in r["latencies"]] for r in rounds])]


def end_to_end(rounds) -> dict:
    # Scaled times (worker.probe) take out the host's drift in CPU speed;
    # medians over the rounds take out what is left of single slow spells.
    times = per_op(rounds)
    return {
        "setup_s": {"value": _median([r["setup_scaled_s"] for r in rounds]), "unit": "s"},
        "solve_s": {"value": sum(times), "unit": "s"},
        "latency_p50_ms": {"value": _median(times) * 1000, "unit": "ms"},
        "peak_rss_mb": {"value": _median([r["peak_rss_mb"] for r in rounds]), "unit": "MB"},
    }


def per_layer(rounds, probes) -> dict:
    metrics = {}
    for name in tracing.span_names():
        # One round's count: every round repeats the same operations.
        metrics[f"{name}.calls"] = {"value": rounds[0]["trace"]["calls"].get(name, 0), "unit": "count"}
        metrics[f"{name}.self_s"] = {
            "value": _median([r["trace"]["self_s"].get(name, 0.0) for r in rounds]),
            "unit": "s",
        }
    for module in tracing.IMPORT_MODULES:
        short = module.split(".")[-1]
        metrics[f"import.{short}.self_ms"] = {
            "value": _median([times.get(module, (0, 0))[0] / 1000 for times, _ in probes]),
            "unit": "ms",
        }
    metrics["import.total_ms"] = {
        "value": _median([times.get("fanocalc.cli", (0, 0))[1] / 1000 for times, _ in probes]),
        "unit": "ms",
    }
    metrics["interpreter.start_ms"] = {"value": _median([bare for _, bare in probes]), "unit": "ms"}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops its worker: subprocess.run kills it on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    for needed in ("src/fanocalc/__init__.py", "tests/oracles.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            return _fail(f"{needed} is missing: run from a checkout of the repository")
    # Bytecode is written once here, as an installed package would have it,
    # so no round pays for compiling.
    if not compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1):
        return _fail("fanocalc does not compile")

    # Other tenants slow one CPU at a time, often for longer than a run, so
    # the rounds take turns on the CPUs this process may use: every
    # operation then has samples on each of them.
    cpus = sorted(os.sched_getaffinity(0))
    rounds, probes = [], []
    start = perf_counter()
    longest = 0.0
    while not rounds or perf_counter() - start < args.seconds:
        if perf_counter() - start + longest > DEADLINE_S:
            break
        cpu = cpus[len(rounds) % len(cpus)]
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--trace", str(args.trace), "--t0", repr(t0)],
            capture_output=True, text=True, cwd=ROOT, timeout=ROUND_TIMEOUT_S,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        longest = max(longest, perf_counter() - t0)
        if proc.returncode != 0:
            return _fail(f"round {len(rounds)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        if args.trace:
            probes.append(_import_probe())

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    metrics = per_layer(rounds, probes) if args.trace else end_to_end(rounds)
    summary = {
        "correct": all(r["wrong"] == 0 for r in rounds),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "pass_s": [r["solve_s"] for r in rounds],
        "solve_scaled_s": sum(per_op(rounds)),
        "setup_s": [r["setup_s"] for r in rounds],
        "setup_scaled_s": [r["setup_scaled_s"] for r in rounds],
        "notes": sorted({note for r in rounds for note in r["notes"]}),
        "op_scaled_ms": {
            name: seconds * 1000 for (name, *_), seconds in zip(rounds[0]["latencies"], per_op(rounds))
        },
        "callers": rounds[0]["trace"]["callers"] if args.trace else None,
        "summary": summary,
    }
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for note in record["notes"]:
        print(f"bench: {note}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
