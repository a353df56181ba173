"""Benchmark launcher for lyapcert.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each step runs in a fresh
single-threaded process, one at a time: input generation from the seed,
the workload itself, timed for ``--seconds``, and (untraced runs only)
SETUP_RUNS set-up probes that import lyapcert and then run
load_config/build_system over every input.  Timed metrics are scaled to
the machine's nominal speed (see machine.py).  With ``--trace 0`` the last
line of output carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics of a traced run.  The lines
before it give the report digest, the failing jobs and the other facts the
metrics are read with.

Exit status is 0 only when every step ran; it is 2 when the checkout holds
no lyapcert sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_RUNS = 7
DEADLINE_S = 170  # every step must end within this many seconds of the start
# one BLAS/OpenMP thread: with two threads on a two-core machine the
# Kronecker solves ran slower and noisier
SINGLE_THREAD = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)}


def step(deadline: float, *args: str) -> dict:
    """Run one worker process to completion and parse its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env={**os.environ, **SINGLE_THREAD}, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, limit: int = 0) -> dict:
    """One benchmark run; ``limit`` keeps that many evenly spaced jobs (for the self-test)."""
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    tag = f"{workload}-{seed}"
    inputs = OUT / f"inputs-{tag}.json"
    step(deadline, "gen", "--workload", workload, "--seed", str(seed), "--inputs", str(inputs))
    if limit:
        doc = json.loads(inputs.read_text())
        doc["jobs"] = doc["jobs"][:: max(len(doc["jobs"]) // limit, 1)][:limit]
        inputs.write_text(json.dumps(doc))
    run = step(deadline, "run", "--inputs", str(inputs), "--seconds", str(seconds),
               "--trace", str(trace), "--spans", str(OUT / f"spans-{tag}.json"))
    if not trace:
        setup = [step(deadline, "setup", "--inputs", str(inputs)) for _ in range(SETUP_RUNS)]
        run["metrics"]["setup_s"] = statistics.median(s["setup_s"] for s in setup)
        run["info"]["unscaled"]["setup_s"] = statistics.median(s["unscaled_s"] for s in setup)
    return run


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="lyapcert benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lyapcert" / "__init__.py").is_file():
        print(f"error: no lyapcert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = measure(args.workload, args.seed, args.seconds, args.trace)
    for key, value in sorted(run["info"].items()):
        print(f"{key}: {json.dumps(value)}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": run["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
