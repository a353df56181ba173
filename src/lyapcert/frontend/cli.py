"""Command-line entry point.

    lyapcert <command> --config FILE [--out FILE] [--seed N] [--no-timestamp]

Commands: simulate, linear, certify-local, converse, averaging,
timescales.  Each reads a config document, dispatches to the analysis
modules, and emits a JSON report; exit status is 0 when every requested
check passed, 2 when a check failed, 1 on error.  Options for a command
are taken from the config's matching ``analyses`` block; the table
``config.OPTIONS`` gives each one's type, bound and default, and
``load_config`` hands the handlers checked values with the defaults filled
in (README, "CLI options").

``linear`` reads its matrix through ``dynsys.linear_part``: it accepts
linear_tv systems and autonomous maps that are homogeneous linear about
their equilibrium, and refuses every other map with an error report.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Tuple

import numpy as np

from ..averaging import (
    budget_for_delta,
    check_drift_remainder,
    estimate_average,
    estimate_sigma,
)
from ..certcheck import CandidateFunction
from ..converse import (
    _fast_sample_set,
    build_exponential_converse,
    build_trajectory_converse,
    verify_converse,
)
from ..dynsys import (
    DynSystem,
    LinearTV,
    SlowFastSystem,
    fit_exponential_envelope,
    linear_part,
    simulate,
    trajectory_to_csv,
)
from ..errors import StageError
from ..linearize import (
    STABLE,
    certify_local_autonomous,
    certify_local_nonautonomous,
    validate_basin,
)
from ..rng import Rng
from ..stein import (
    TvLyapunov,
    classify_linear,
    instability_certificate,
    solve_stein_kron,
    verify_transition_decay,
)
from ..timescales import (
    _fast_envelope,
    certify_semiglobal,
    validate_rate,
    verify_composite,
)
from .config import COMMANDS, build_system, load_config
from .report import build_report, checks_from_reports, jsonable, write_report

__all__ = ["main", "run_command"]


def _subseed(seed: int, tag: int) -> int:
    return Rng(seed).at(tag)


def _cmd_simulate(system, opts: dict, seed: int):
    horizon = opts["horizon"]
    if isinstance(system, (LinearTV, SlowFastSystem)):
        system = system.system()  # a slow/fast pair as one map over (x, y) at its epsilon
    states = simulate(system, 0, np.asarray(opts["x0"]), horizon)
    results = [
        {
            "type": "trajectory",
            "t0": 0,
            "horizon": horizon,
            "states": jsonable(states),
            "csv": trajectory_to_csv(0, states),
        }
    ]
    return results, []


def _cmd_linear(system, opts: dict, seed: int):
    if isinstance(system, LinearTV):
        envelope = verify_transition_decay(system)
        P = TvLyapunov(system, envelope)(range(4))
        results = [
            {"type": "transition_decay", "envelope": jsonable(envelope)},
            {
                "type": "time_varying_certificate",
                "P_samples": {str(t): jsonable(P[t]) for t in range(4)},
            },
        ]
        return results, []
    if isinstance(system, SlowFastSystem) or not system.autonomous:
        raise ValueError("the linear analysis applies to autonomous or linear_tv systems")
    A = linear_part(system.shifted().map_fn, 0, system.dim)
    spectrum = classify_linear(A)
    results = [{"type": "spectrum", "A": jsonable(A), "spectrum": jsonable(spectrum)}]
    if spectrum.solvable:
        sol = solve_stein_kron(A, np.eye(system.dim))
        results.append({"type": "quadratic_certificate", "solution": jsonable(sol)})
    if spectrum.spectral_radius > 1.0:
        P1, gamma = instability_certificate(A)
        results.append(
            {"type": "instability_witness", "P1": jsonable(P1), "gamma": gamma}
        )
    return results, []


def _cmd_certify_local(system, opts: dict, seed: int):
    if not isinstance(system, DynSystem):
        raise ValueError("certify-local applies to autonomous or nonautonomous systems")
    radius = opts["domain_radius"]
    if system.autonomous:
        cert = certify_local_autonomous(system, domain_radius=radius, seed=_subseed(seed, 1))
    else:
        cert = certify_local_nonautonomous(system, domain_radius=radius, seed=_subseed(seed, 1))
    results = [{"type": "local_certificate", "certificate": jsonable(cert)}]
    checks = []
    if cert.verdict == STABLE:
        checks.append(validate_basin(system, cert, trials=opts["trials"], seed=_subseed(seed, 2)))
    return results, checks


def _cmd_converse(system, opts: dict, seed: int):
    radius, horizon, n_check = opts["radius"], opts["horizon"], opts["n_check"]
    if isinstance(system, LinearTV):
        system = system.system()
    if isinstance(system, SlowFastSystem):
        env = _fast_envelope(system, radius, Rng(_subseed(seed, 1)), horizon)
        cert = build_exponential_converse(system, env, radius=radius, seed=_subseed(seed, 2))
        ks, xs, yerrs = _fast_sample_set(system, radius, n_check, _subseed(seed, 3))
        reports = verify_converse(cert, ks, yerrs, xs)
    else:
        (starts,) = Rng(_subseed(seed, 1)).draw(8, ("ball", system.dim, radius))
        t0 = 0 if system.autonomous else np.arange(len(starts)) % 3
        env = fit_exponential_envelope(simulate(system.shifted(), t0, starts, horizon), t0)
        cert = build_trajectory_converse(system, env)
        ks, xs = Rng(_subseed(seed, 3)).draw(
            n_check, ("integer", 0, 3), ("ball", system.dim, radius)
        )
        reports = verify_converse(cert, ks, xs, None)
    results = [
        {"type": "envelope", "envelope": jsonable(env)},
        {"type": "converse_certificate", "certificate": jsonable(cert)},
    ]
    return results, reports


def _cmd_averaging(system, opts: dict, seed: int):
    if not isinstance(system, DynSystem):
        raise ValueError("averaging applies to autonomous or nonautonomous field definitions")
    # the map expressions define the increment field; the bound step is a
    # batch map, so a wrapper installed on map_fn still receives batches
    phi = system.step
    radius = opts["radius"]
    (balls,) = Rng(_subseed(seed, 1)).draw(opts["n_probes"], ("ball", system.dim, radius))
    probes = np.vstack([balls, radius * np.eye(system.dim)])
    avg = estimate_average(phi, probes)  # window sums up to T_max = 512
    T_list = opts["T_list"]
    table = estimate_sigma(phi, avg, T_list)
    budget = budget_for_delta(opts["delta"], table)
    i, k, x, eps = Rng(_subseed(seed, 2)).draw(
        opts["drift_samples"],
        ("integer", 0, len(T_list) - 1),
        ("integer", 0, 3),
        ("ball", system.dim, radius),
        ("uniform", 0.0, budget.eps_delta),
    )
    drift = check_drift_remainder(phi, avg, table, k, x, np.array(T_list)[i], eps)
    results = [
        {
            "type": "averaged_field",
            "T_used": avg.T_used,
            "convergence_gap": avg.convergence_gap,
            "warning": avg.warning,
        },
        {"type": "sigma_table", "L": table.L, "entries": {str(k): v for k, v in table.entries.items()}},
        {"type": "budget", "budget": jsonable(budget)},
    ]
    return results, [drift]


def _cmd_timescales(system, opts: dict, seed: int):
    if not isinstance(system, SlowFastSystem):
        raise ValueError("timescales applies to slow_fast systems")
    V = CandidateFunction.quadratic(np.eye(system.dim_x))
    cert = certify_semiglobal(system, opts["r"], V, seed=_subseed(seed, 1))
    reports = verify_composite(system, cert, n_samples=opts["n_samples"], seed=_subseed(seed, 2))
    reports.append(
        validate_rate(
            system,
            cert,
            trials=opts["trials"],
            horizon=opts["horizon"],
            seed=_subseed(seed, 3),
        )
    )
    results = [{"type": "composite_certificate", "certificate": jsonable(cert)}]
    return results, reports


_HANDLERS = {
    "simulate": _cmd_simulate,
    "linear": _cmd_linear,
    "certify-local": _cmd_certify_local,
    "converse": _cmd_converse,
    "averaging": _cmd_averaging,
    "timescales": _cmd_timescales,
}


def run_command(
    doc: dict,
    command: str,
    seed: Optional[int] = None,
    timestamp: bool = True,
) -> Tuple[dict, int]:
    """Dispatch one command against a config document.

    Returns (report, exit_code); never raises for analysis failures —
    they are folded into an error report with exit code 1.
    """
    try:
        cfg = load_config(doc)
        effective_seed = cfg.seed if seed is None else int(seed)
        system = build_system(cfg)
        results, reports = _HANDLERS[command](system, cfg.options_of(command), effective_seed)
        checks = checks_from_reports(reports)
        all_passed = all(c["passed"] for c in checks)
        status = "passed" if all_passed else "check_failed"
        report = build_report(command, doc, results, checks, status, timestamp)
        return report, 0 if all_passed else 2
    except Exception as exc:  # noqa: BLE001 - folded into the report
        error = {"type": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, StageError):
            error["stage"] = exc.stage
        report = build_report(command, doc, [], [], "error", timestamp, error=error)
        return report, 1


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lyapcert",
        description="certify stability and convergence rates of discrete-time systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument(
            "--no-timestamp",
            action="store_true",
            help="omit the generation time for byte-stable output",
        )
        if name == "simulate":
            p.add_argument("--csv", default=None, help="also write the trajectory CSV here")
    args = parser.parse_args(argv)

    try:
        with open(args.config, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        doc = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        error = {"type": "JSONDecodeError", "message": str(exc)}
        report = build_report(args.command, raw, [], [], "error", not args.no_timestamp, error=error)
        write_report(report, args.out)
        return 1

    report, code = run_command(doc, args.command, args.seed, not args.no_timestamp)
    write_report(report, args.out)
    if args.command == "simulate" and getattr(args, "csv", None) and report["results"]:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report["results"][0]["csv"])
    return code


if __name__ == "__main__":
    # ``python -m lyapcert.frontend.cli`` re-runs this module after the
    # package has imported it, so it is not an entry point
    sys.exit("lyapcert.frontend.cli is not an entry point: run `lyapcert` or `python -m lyapcert`")
