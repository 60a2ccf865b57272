"""Steadiness check: run the benchmark N times and compare spreads to bounds.

    python3 bench/steady.py --workload certificates --runs 10 [--first-seed 1]
                            [--seed-step 1] [--trace 1]

Runs ``run.py`` once per seed (first-seed, first-seed + seed-step, ...) and prints,
for every metric, the median, the quartiles and the interquartile spread as
a share of the median, next to the bound in ``BENCHMARK.json``.  The
benchmark is steady when every spread except that of ``setup_s`` is below a
third of its bound.  With ``--trace 1`` it runs the traced benchmark,
prints the per-layer medians, and also reports whether the ``.calls``
counts repeated exactly, which they must for one seed (``--seed-step 0``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed-step", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    results = []
    for seed in (args.first_seed + i * args.seed_step for i in range(args.runs)):
        proc = subprocess.run(
            spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(doc)
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in doc["metrics"].items() if not args.trace)
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']} {values}", flush=True)

    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"\n{args.workload}: {len(results)} runs, failed share {sorted(shares)}, "
          f"correct {all(r['correct'] for r in results)}")
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    steady = True
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, rel = spread(values)
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            ok = rel < bound / 3
            steady &= ok
            mark = "ok" if ok else "WIDE"
        if args.trace and name.endswith(".calls"):
            mark = "exact" if len(set(values)) == 1 else "VARIES"
        bound_text = f"{bound:6.2f}" if bound is not None else "     -"
        print(f"{name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} {bound_text} {mark:5} "
              f"range {min(values):.6g}..{max(values):.6g}")
    if not args.trace:
        print("steady" if steady else "NOT steady: a spread is at or above a third of its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
