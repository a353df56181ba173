"""One benchmark process: generate inputs, time set-up, or run a workload.

    python3 perfbench/worker.py gen   --workload W --seed N --inputs FILE
    python3 perfbench/worker.py setup --inputs FILE
    python3 perfbench/worker.py run   --inputs FILE --seconds S --trace 0|1 --spans FILE

``run.py`` starts each of these as a fresh process, one at a time.  Each
prints one JSON line.  Only the standard library is imported at module
level, so ``setup`` can time the import of lyapcert (and numpy under it).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_lyapcert():
    sys.path.insert(0, str(SRC))
    import lyapcert

    if not Path(lyapcert.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"lyapcert was imported from {lyapcert.__file__}, not from {SRC}")
    return lyapcert


def cmd_gen(args) -> dict:
    import inputs

    jobs = inputs.generate(args.workload, args.seed, ROOT)
    Path(args.inputs).write_text(json.dumps({"workload": args.workload, "seed": args.seed, "jobs": jobs}))
    return {"jobs": len(jobs)}


def cmd_setup(args) -> dict:
    jobs = json.loads(Path(args.inputs).read_text())["jobs"]
    docs = list({json.dumps(j["doc"], sort_keys=True): j["doc"] for j in jobs if j["kind"] == "cli"}.values())
    import machine

    start = time.perf_counter()
    with machine.Sampler() as sampler:
        _import_lyapcert()
        from lyapcert.frontend import config

        for doc in docs:
            config.build_system(config.load_config(doc))
    setup_s = time.perf_counter() - start - sampler.spent
    factor = machine.scale(sampler.samples or machine.edge())
    return {"setup_s": setup_s * factor, "unscaled_s": setup_s, "configs": len(docs)}


class Pass(NamedTuple):
    outcomes: list
    digest: str
    seconds: float  # sum of the job times, as measured
    scales: list  # per job: machine.scale of the reference runs inside it, or beside it if none


def run_pass(jobs: list, tracer=None) -> Pass:
    """Run every job once, measuring the machine's speed around and (untraced) inside it.

    Traced passes are not sampled, so that no reference run lands in a span.
    """
    import machine
    from jobs import run_job

    digest = hashlib.sha256()
    outcomes, scales = [], []
    before = machine.edge()
    for i, job in enumerate(jobs):
        inside = []
        if tracer is None:
            with machine.Sampler() as sampler:
                outcome = run_job(job)
            outcome.seconds -= sampler.spent
            inside = sampler.samples
        else:
            tracer.job = i
            outcome = run_job(job)
        after = machine.edge()
        scales.append(machine.scale(inside or before + after))
        before = after
        outcomes.append(outcome)
        digest.update(job["id"].encode("utf-8") + b"\0" + outcome.output + b"\0")
    return Pass(outcomes, digest.hexdigest(), sum(o.seconds for o in outcomes), scales)


def tail_fraction(jobs: int) -> float:
    """Highest percentile, as a fraction, with at least 10 of ``jobs`` beyond it.

    With 10 jobs or fewer no percentile qualifies and the maximum is used.
    It depends on the job count only, not on how many passes ran.
    """
    return (jobs - 11) / (jobs - 1) if jobs > 10 else 1.0


def quantile(times: list, fraction: float) -> float:
    """Linearly interpolated quantile of ``times``."""
    ordered = sorted(times)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


def _another_pass(start: float, done: int, seconds: float) -> bool:
    """Start another pass when at least half of it fits in the time left.

    Runs then end within half a pass of ``seconds`` either way, instead of
    overrunning by up to a whole pass.
    """
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * elapsed / done < seconds


def cmd_run(args) -> dict:
    """Whole passes over the job list for about ``--seconds``.

    Every estimator is independent of the number of passes: throughput is
    successes over time, and the median and the tail are taken over every
    run of every job.  Times are scaled to the machine's nominal speed
    (``machine.py``); the unscaled values are printed too.
    """
    _import_lyapcert()
    jobs = json.loads(Path(args.inputs).read_text())["jobs"]
    if args.trace:
        return _traced(jobs, args)
    passes = []
    start = time.perf_counter()
    while not passes or _another_pass(start, len(passes), args.seconds):
        passes.append(run_pass(jobs))
    ok = sum(o.ok for p in passes for o in p.outcomes)
    runs = len(passes) * len(jobs)

    def summary(scaled: bool) -> tuple:
        times = [[o.seconds * (f if scaled else 1.0) for o, f in zip(p.outcomes, p.scales)] for p in passes]
        every = [x for t in times for x in t]
        return ok / sum(every), 1000.0 * statistics.median(every), quantile(every, tail_at)

    tail_at = tail_fraction(len(jobs))
    jobs_per_s, p50_ms, tail_s = summary(scaled=True)
    raw_jobs_per_s, raw_p50_ms, raw_tail_s = summary(scaled=False)
    return _result(
        jobs,
        passes,
        {
            "jobs_per_s": jobs_per_s,
            "job_p50_ms": p50_ms,
            "job_tail_ms": 1000.0 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": ok / runs,
        },
        {
            "job_tail_percentile": 100.0 * tail_at,
            "job_runs": runs,
            "passes": len(passes),
            "timed_s": time.perf_counter() - start,
            "machine_scale": statistics.median(f for p in passes for f in p.scales),
            "unscaled": {"jobs_per_s": raw_jobs_per_s, "job_p50_ms": raw_p50_ms,
                         "job_tail_ms": 1000.0 * raw_tail_s},
        },
    )


def _traced(jobs: list, args) -> dict:
    """Alternate untraced and traced passes; per-layer numbers from the traced ones."""
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, layer_runs = [], [], []
    start = time.perf_counter()
    while not traced or _another_pass(start, len(traced), args.seconds):
        plain.append(run_pass(jobs))
        tracer.reset()
        tracer.install()
        try:
            traced.append(run_pass(jobs, tracer))
        finally:
            tracer.remove()
        layer_runs.append(tracer.metrics())
    Path(args.spans).write_text(json.dumps(tracer.spans()))
    metrics = {}
    for name, first in layer_runs[0].items():
        values = [run[name] for run in layer_runs]
        timed = name.endswith("self_s")
        metrics[name] = statistics.median(values) if timed else first
    metrics["trace.overhead_ratio"] = statistics.median(p.seconds for p in traced) / statistics.median(
        p.seconds for p in plain
    )
    counts_repeat = all(
        run[name] == layer_runs[0][name] for run in layer_runs for name in run if not name.endswith("self_s")
    )
    same_outcomes = all(
        [(o.ok, o.reason) for o in t.outcomes] == [(o.ok, o.reason) for o in plain[0].outcomes] for t in traced
    )
    shipped = {}
    for i, job in enumerate(jobs):
        if job["kind"] == "cli" and job["source"] != "generated":
            ms = statistics.median(1000.0 * p.outcomes[i].seconds for p in plain)
            shipped[f"{job['source']} {job['command']}"] = round(ms, 3)
    result = _result(jobs, plain + traced, metrics, {"passes": len(traced), "shipped_ms": shipped})
    result["correct"] = result["correct"] and counts_repeat and same_outcomes
    result["info"].update(counts_repeat=counts_repeat, traced_outcomes_match=same_outcomes)
    return result


def _result(jobs: list, passes: list, metrics: dict, info: dict) -> dict:
    """Outcome counts are per job, not per job run, so they depend on the seed alone.

    Every pass must give each job the same outcome and output; a pass that
    does not makes the run incorrect.
    """
    first = passes[0].outcomes
    digests = {p.digest for p in passes}
    outcomes_agree = all([(o.ok, o.reason) for o in p.outcomes] == [(o.ok, o.reason) for o in first]
                         for p in passes)
    wrong = [jobs[i]["id"] for p in passes for i, o in enumerate(p.outcomes) if o.wrong]
    info.update(
        digest=passes[0].digest,
        failing_jobs={jobs[i]["id"]: o.reason for i, o in enumerate(first) if not o.ok},
        wrong_outputs=sorted(set(wrong)),
        digests_agree=len(digests) == 1,
        outcomes_agree=outcomes_agree,
    )
    return {
        "correct": not wrong and len(digests) == 1 and outcomes_agree,
        "attempted": len(jobs),
        "failed": sum(not o.ok for o in first),
        "metrics": metrics,
        "info": info,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    gen = sub.add_parser("gen")
    gen.add_argument("--workload", required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--inputs", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--inputs", required=True)
    run = sub.add_parser("run")
    run.add_argument("--inputs", required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    result = {"gen": cmd_gen, "setup": cmd_setup, "run": cmd_run}[args.mode](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
