"""Running one benchmark job and checking its output.

A job is timed from outside the program around its public entry points:
``frontend.cli.run_command`` plus report rendering for CLI jobs, and the
``stein`` / ``certcheck`` functions for library jobs.  Every call goes
through a module attribute looked up at call time, so the tracer's
wrappers are seen when tracing is on.

A job fails when it raises, when its exit code is not 0, or when its
output check fails.  Only the last kind is a wrong answer; the first two
are failures the program reported itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from lyapcert import certcheck, dynsys, stein
from lyapcert.frontend import cli, report

GAP_TOL = 1e-8  # criterion 1: sup-norm gap between the two Stein routes
RESIDUAL_TOL = 1e-9  # criterion 1: Frobenius residual relative to |Q|


@dataclass
class Outcome:
    seconds: float
    ok: bool
    wrong: bool  # the program reported success but the output is wrong
    reason: str
    output: bytes


def run_job(job: dict) -> Outcome:
    work, check = (_stein_work, _stein_check) if job["kind"] == "stein" else (_cli_work, _cli_check)
    start = time.perf_counter()
    try:
        produced = work(job)
    except Exception as exc:  # noqa: BLE001 - a raising job is a counted failure
        reason = f"raised {type(exc).__name__}: {exc}"
        return Outcome(time.perf_counter() - start, False, False, reason, reason.encode("utf-8"))
    return check(job, produced, time.perf_counter() - start)


def _cli_work(job: dict):
    produced, code = cli.run_command(job["doc"], job["command"], None, False)
    return produced, code, report.render_report(produced)


def _cli_check(job: dict, produced, seconds: float) -> Outcome:
    doc, code, text = produced
    output = text.encode("utf-8")
    status = doc.get("status")
    if code != 0 or status != "passed":
        error = doc.get("error")
        failing = [c["name"] for c in doc.get("checks", []) if not c.get("passed")]
        detail = f"{error.get('type')}: {error.get('message')}" if error else ",".join(failing)
        return Outcome(seconds, False, False, f"exit {code} {status} ({detail})", output)
    expected = job["expect"].get("A")
    if expected is not None and doc["results"][0]["A"] != expected:
        reason = f"reported A {doc['results'][0]['A']} != generated {expected}"
        return Outcome(seconds, False, True, reason, output)
    return Outcome(seconds, True, False, "", output)


def _stein_work(job: dict):
    A = np.array(job["A"])
    Q = np.array(job["Q"])
    spectrum = stein.classify_linear(A)
    if job["rho"] > 1.0:
        P1, _ = stein.instability_certificate(A, Q)
        return spectrum, (P1,), None
    kron = stein.solve_stein_kron(A, Q)
    series = stein.solve_stein_series(A, Q)
    try:
        checks = _sampled_recheck(A, kron.P)
    except Exception as exc:  # noqa: BLE001 - counted, but must not hide the Stein checks
        checks = exc
    return spectrum, (kron, series), checks


def _sampled_recheck(A: np.ndarray, P: np.ndarray) -> tuple:
    V = certcheck.CandidateFunction.quadratic(P)
    grid = certcheck.shell_grid(A.shape[0], 1.0)
    system = dynsys.DynSystem(A.shape[0], lambda t, x: A @ x)
    return certcheck.check_positive_definite(V, grid), certcheck.check_decrease(V, system, grid, strict=True)


def _stein_check(job: dict, produced, seconds: float) -> Outcome:
    """Criteria 1 and 3 on both routes first; the sampled re-check after them."""
    spectrum, solved, checks = produced
    schur = job["rho"] < 1.0
    if checks is None:
        (P1,) = solved
        output = P1.tobytes()
        if spectrum.schur or not np.all(np.isfinite(P1)) or np.linalg.eigvalsh(P1)[0] >= 0.0:
            return Outcome(seconds, False, True, "instability witness is not indefinite", output)
        return Outcome(seconds, True, False, "", output)
    kron, series = solved
    output = kron.P.tobytes() + series.P.tobytes()
    A, Q = np.array(job["A"]), np.array(job["Q"])
    gap = float(np.linalg.norm(kron.P - series.P, ord=np.inf))
    q_norm = float(np.linalg.norm(Q, ord="fro"))
    residual = max(float(np.linalg.norm(A.T @ s.P @ A - s.P + Q, ord="fro")) for s in solved)
    problems = []
    if gap > GAP_TOL:
        problems.append(f"route gap {gap:.2e} > {GAP_TOL:.0e}")
    if residual > RESIDUAL_TOL * q_norm:
        problems.append(f"residual {residual:.2e} > {RESIDUAL_TOL:.0e}*|Q|")
    if spectrum.schur != schur or any(s.positive_definite != schur for s in solved):
        problems.append("P > 0 does not coincide with the matrix being Schur")
    if problems:
        return Outcome(seconds, False, True, "; ".join(problems), output)
    if isinstance(checks, Exception):
        reason = f"sampled re-check raised {type(checks).__name__}: {checks}"
        return Outcome(seconds, False, False, reason, output)
    failing = [c.condition for c in checks if not c.passed]
    if failing:
        return Outcome(seconds, False, False, "sampled re-check failed: " + ",".join(failing), output)
    return Outcome(seconds, True, False, "", output)
