"""Self-test of the benchmark on a tiny size.

    python3 perfbench/selftest.py

For every workload, on a few evenly spaced jobs only:

* an untraced and a traced run print every metric BENCHMARK.json names,
  each with its unit, and report correct outputs;
* two traced runs give exactly the same counts;
* the traced and untraced runs give the same job outcomes and digest.

Exits 1 and names each broken property when one does not hold.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, measure

JOBS = 4
SEED = 1
COUNT_UNITS = ("count", "bytes")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        plain = measure(workload, SEED, 0.0, 0, limit=JOBS)
        traced = [measure(workload, SEED, 0.0, 1, limit=JOBS) for _ in range(2)]
        for run, wanted in ((plain, spec["end_to_end"]), (traced[0], spec["per_layer"])):
            missing = [m["name"] for m in wanted if not isinstance(run["metrics"].get(m["name"]), (int, float))]
            if missing:
                problems.append(f"{workload}: metrics not printed: {missing}")
            if not run["correct"] or run["attempted"] < 1:
                problems.append(f"{workload}: run not correct: {run['info']}")
        counts = [m["name"] for m in spec["per_layer"]
                  if m["unit"] in COUNT_UNITS or m["name"] == "averaging.phibar.hit_ratio"]
        moved = [n for n in counts if traced[0]["metrics"][n] != traced[1]["metrics"][n]]
        if moved:
            problems.append(f"{workload}: traced counts differ between runs: {moved}")
        for key in ("digest", "failing_jobs"):
            if plain["info"][key] != traced[0]["info"][key]:
                problems.append(f"{workload}: traced and untraced {key} differ")
        print(f"{workload}: {plain['attempted']} jobs, {plain['failed']} failing, "
              f"digest {plain['info']['digest'][:12]}")
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
