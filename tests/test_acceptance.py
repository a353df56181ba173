"""End-to-end acceptance gate.

One test per shipping criterion, so ``pytest -v tests/test_acceptance.py``
prints exactly one pass/fail line for each.  Tolerances are pinned inline;
the heavy suites also assert their own wall-clock budgets.
"""

import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from lyapcert.averaging import (
    budget_for_delta,
    build_averaged_lyapunov,
    check_drift_remainder,
    estimate_average,
    estimate_sigma,
    fit_slow_constants,
    mu,
)
from lyapcert.certcheck import CandidateFunction
from lyapcert.converse import (
    build_exponential_converse,
    build_trajectory_converse,
    verify_converse,
)
from lyapcert.dynsys import (
    DynSystem,
    ExponentialEnvelope,
    LinearTV,
    SlowFastSystem,
    fit_exponential_envelope,
    simulate,
    transitions,
)
from lyapcert.frontend.cli import main, run_command
from lyapcert.frontend.config import load_config
from lyapcert.frontend.expressions import parse_expression, pretty
from lyapcert.frontend.report import render_report
from lyapcert.linearize import certify_local_autonomous, validate_basin
from lyapcert.rng import Rng
from lyapcert.stein import (
    classify_linear,
    instability_certificate,
    solve_stein_kron,
    solve_stein_series,
    verify_transition_decay,
)
from lyapcert.timescales import certify_semiglobal, validate_rate, verify_composite

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def scaled_spectrum_matrix(rng: Rng, n: int, rho_lo: float, rho_hi: float) -> np.ndarray:
    """Gaussian matrix rescaled to a spectral radius drawn from [rho_lo, rho_hi]."""
    while True:
        A = rng.matrix(n, n)
        rho = float(np.max(np.abs(np.linalg.eigvals(A))))
        if rho > 1e-9:
            return A * (rng.uniform(rho_lo, rho_hi) / rho)


def random_pd(rng: Rng, n: int) -> np.ndarray:
    B = rng.matrix(n, n)
    return B @ B.T + np.eye(n)


def test_criterion_01_stein_dual_route_agreement():
    # 200 contractions, both solvers, cross-route gap and per-route residuals
    start = time.perf_counter()
    rng = Rng(0xACC_01)
    worst_gap = 0.0
    worst_residual = 0.0
    for _ in range(200):
        n = rng.integer(2, 6)
        A = scaled_spectrum_matrix(rng, n, 0.1, 0.9)
        Q = random_pd(rng, n)
        kron = solve_stein_kron(A, Q)
        series = solve_stein_series(A, Q)
        worst_gap = max(worst_gap, float(np.linalg.norm(kron.P - series.P, ord=np.inf)))
        q_norm = float(np.linalg.norm(Q, ord="fro"))
        for sol in (kron, series):
            res = float(np.linalg.norm(A.T @ sol.P @ A - sol.P + Q, ord="fro"))
            worst_residual = max(worst_residual, res / q_norm)
    elapsed = time.perf_counter() - start
    assert worst_gap <= 1e-8
    assert worst_residual <= 1e-9
    assert elapsed < 10.0
    print(
        f"[criterion 01] PASS route gap {worst_gap:.2e} <= 1e-8, "
        f"residual {worst_residual:.2e} <= 1e-9, {elapsed:.1f}s < 10s"
    )


def test_criterion_02_scalar_closed_forms():
    stable = solve_stein_kron(np.array([[0.5]]), np.array([[1.0]]))
    assert stable.P[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert stable.positive_definite

    unstable = solve_stein_kron(np.array([[2.0]]), np.array([[1.0]]))
    assert unstable.P[0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert not unstable.positive_definite

    P1, gamma = instability_certificate(np.array([[2.0]]))
    assert P1[0, 0] == pytest.approx(-1.0 / 3.0, abs=1e-12)
    worst = 0.0
    for v in np.linspace(-2.0, 2.0, 41):
        x = np.array([v])
        value = -float(x @ P1 @ x)
        value_next = -float((2.0 * x) @ P1 @ (2.0 * x))
        worst = max(worst, abs((value_next - value) - v * v))
    assert worst <= 1e-10
    print(
        f"[criterion 02] PASS P(0.5)=4/3, P(2)=-1/3 within 1e-12; "
        f"growth increment matches |x|^2 within {worst:.1e} (gamma={gamma})"
    )


def test_criterion_03_definiteness_dichotomy():
    # positive definiteness of the solution must coincide with contraction
    rng = Rng(0xACC_03)
    checked = 0
    for _ in range(200):
        n = rng.integer(2, 6)
        A = scaled_spectrum_matrix(rng, n, 0.1, 0.9)
        report = classify_linear(A)
        assert report.schur and report.solvable
        sol = solve_stein_kron(A, random_pd(rng, n))
        assert sol.positive_definite == report.schur
        checked += 1
    for _ in range(50):
        n = rng.integer(2, 6)
        A = scaled_spectrum_matrix(rng, n, 1.05, 2.0)
        report = classify_linear(A)
        if not report.solvable:  # reciprocal eigenvalue pair: outside the hypothesis
            continue
        assert not report.schur
        sol = solve_stein_kron(A, random_pd(rng, n))
        assert sol.positive_definite == report.schur
        checked += 1
    assert checked >= 245
    print(f"[criterion 03] PASS definite <=> contractive on {checked} matrices, zero exceptions")


def test_criterion_04_converse_constructions():
    start = time.perf_counter()

    # halving map with the exact unit-gain envelope: one-step window, V = |x|^2
    sys = DynSystem(1, lambda t, x: 0.5 * np.asarray(x, dtype=float), autonomous=True)
    env = ExponentialEnvelope(gain=1.0, rate=math.log(2.0))
    cert = build_trajectory_converse(sys, env)
    assert cert.horizon == 1
    for v in (1.0, -0.6, 0.25, 0.03):
        x = np.array([v])
        assert cert.evaluator(0, x) == pytest.approx(v * v, rel=1e-12)
        dec = cert.evaluator(1, 0.5 * x) - cert.evaluator(0, x)
        assert dec == pytest.approx(-0.75 * v * v, rel=1e-12)
        assert dec <= -0.5 * v * v
        assert dec <= -cert.a3 * v * v * (1 - 1e-12)
    assert cert.a3 >= 0.5

    # five random contractive fast maps, full four-report re-verification
    rng = Rng(0xACC_04)
    for trial in range(5):
        n = rng.integer(2, 4)
        F = scaled_spectrum_matrix(rng, n, 0.3, 0.8)
        sysf = SlowFastSystem(
            dim_x=1,
            dim_y=n,
            phi=lambda k, x, y: np.zeros(1),
            varphi=lambda k, y, x, F=F: F @ y,
            ystar=lambda x, n=n: np.zeros(n),
            epsilon=0.01,
        )
        linear = DynSystem(n, lambda t, y, F=F: F @ y, autonomous=True)
        starts = [rng.ball(n, 1.0) for _ in range(4)]
        starts.extend(np.eye(n))
        trajectories = [simulate(linear, 0, y0, 24) for y0 in starts]
        env = fit_exponential_envelope(trajectories)
        fast_cert = build_exponential_converse(sysf, env, radius=1.0, seed=1000 + trial)
        ks, yerrs, xs = rng.draw(1000, ("integer", 0, 3), ("ball", n, 1.0), ("ball", 1, 1.0))
        reports = verify_converse(fast_cert, ks, yerrs, xs)
        names = [r.condition for r in reports]
        assert names == ["uniform_bounds", "decrement", "state_lipschitz", "parameter_lipschitz"]
        for r in reports:
            assert r.passed, f"trial {trial}: {r.condition} worst {r.worst_margin:.3e}"
        assert reports[0].samples_checked == 1000

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"[criterion 04] PASS one-step window V=|x|^2 with -0.75|x|^2 realized; "
        f"5x1000-sample re-verification clean, {elapsed:.1f}s < 30s"
    )


def test_criterion_05_local_basin():
    sys = DynSystem(
        1, lambda t, x: 0.5 * np.asarray(x, dtype=float) + np.asarray(x, dtype=float) ** 2,
        autonomous=True,
    )
    cert = certify_local_autonomous(sys, domain_radius=1.0)
    assert cert.gamma_star == pytest.approx(math.sqrt(1.75) - 1.0, abs=1e-9)

    report = validate_basin(sys, cert, trials=500)
    assert report.passed
    assert report.samples_checked == 500
    assert report.details["failures"] == 0

    inflated = dataclasses.replace(cert, delta_bar=1.1)
    with np.errstate(over="ignore", invalid="ignore"):
        witness = validate_basin(sys, inflated, trials=200)
    assert not witness.passed
    assert witness.details["failures"] >= 1
    assert witness.worst_point is not None
    bad_start = witness.worst_point[1]
    print(
        f"[criterion 05] PASS gamma*={cert.gamma_star:.9f}, 500/500 converged in the "
        f"certified ball; radius 1.1 refuted by start {bad_start}"
    )


def alternating_field(k, x):
    x = np.asarray(x, dtype=float)
    return -x + ((-1.0) ** k) * x


def test_criterion_06_averaging_budget():
    probes = [np.array([1.0]), np.array([-0.5]), np.array([0.25]), np.array([0.8])]
    avg = estimate_average(alternating_field, probes)
    T_list = [2, 4, 8, 16]
    table = estimate_sigma(alternating_field, avg, T_list)
    for T in T_list:
        assert table.sigma(T) <= 3.0 / T

    budget = budget_for_delta(1.0, table)
    assert budget.T_delta <= 4

    for eps in np.linspace(budget.eps_delta / 20.0, budget.eps_delta, 20):
        assert mu(budget.T_delta, float(eps), table.L, table.sigma(budget.T_delta)) <= 1.0

    rng = Rng(0xACC_06)
    samples = [
        (
            rng.integer(0, 7),
            rng.ball(1, 1.0),
            T_list[rng.integer(0, 3)],
            rng.uniform(0.0, budget.eps_delta),
        )
        for _ in range(200)
    ]
    k, x, T, eps = (np.array(v) for v in zip(*samples))
    drift = check_drift_remainder(alternating_field, avg, table, k, x, T, eps)
    assert drift.passed
    assert drift.samples_checked == 200
    print(
        f"[criterion 06] PASS sigma(T) <= 3/T on {T_list}, T_delta={budget.T_delta} <= 4, "
        f"mu <= 1 on 20 amplitudes, drift bound holds on 200 samples "
        f"(worst margin {drift.worst_margin:.2e})"
    )


def test_criterion_07_averaged_candidate_lift():
    field = lambda k, x: -np.asarray(x, dtype=float)
    probes = [np.array([1.0]), np.array([-0.5]), np.array([0.25])]
    avg = estimate_average(field, probes)
    table = estimate_sigma(field, avg, [1, 2, 4, 8, 16, 32, 64])
    V = CandidateFunction.quadratic(np.eye(1))
    constants = fit_slow_constants(V, avg)
    cert = build_averaged_lyapunov(V, constants, field, table, probes)

    rng = Rng(0xACC_07)
    eps_values = np.linspace(cert.eps_c / 5.0, cert.eps_c * (1.0 - 1e-9), 5)
    checked = 0
    violations = 0
    for _ in range(500):
        x = rng.ball(1, 1.0)
        n2 = float(x @ x)
        if n2 < 1e-16:
            continue
        checked += 1
        k = rng.integer(0, 3)
        for eps in eps_values:
            eps = float(eps)
            value = cert.evaluator(k, x, eps)
            if not (cert.a1 * n2 <= value * (1 + 1e-9) and value <= cert.a2 * n2 * (1 + 1e-9)):
                violations += 1
            x_next = x + eps * field(k, x)
            dv = cert.evaluator(k + 1, x_next, eps) - value
            if not dv <= -eps * cert.a3 * n2 * (1 - 1e-9):
                violations += 1
    assert checked == 500
    assert violations == 0
    print(
        f"[criterion 07] PASS window sum sandwiched and decrementing at rate eps*a3 "
        f"on 500 samples x 5 amplitudes below eps_c={cert.eps_c:.3e}, zero violations"
    )


def test_criterion_08_two_timescale_pipeline():
    start = time.perf_counter()
    sysf = SlowFastSystem(
        dim_x=1,
        dim_y=1,
        phi=lambda k, x, y: -x + y,
        varphi=lambda k, y, x: 0.5 * y,
        ystar=lambda x: np.zeros(1),
        epsilon=0.01,
    )
    cert = certify_semiglobal(sysf, r=1.0, V_slow=CandidateFunction.quadratic(np.eye(1)))
    assert cert.eps_r > 0.0
    assert cert.gamma_r > 0.0

    reports = verify_composite(
        sysf, cert, n_samples=1000, eps_values=(cert.eps_r / 4.0, cert.eps_r / 2.0)
    )
    names = [r.condition for r in reports]
    assert names == ["sandwich", "decrement_domination", "rate_realization"]
    for r in reports:
        assert r.passed, f"{r.condition} worst {r.worst_margin:.3e}"
    assert reports[1].samples_checked == 2000  # 1000 draws at each amplitude
    assert reports[2].samples_checked == 2000

    rate = validate_rate(sysf, cert, trials=100)
    assert rate.passed
    assert rate.samples_checked == 200

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"[criterion 08] PASS eps_r={cert.eps_r:.3e}, gamma_r={cert.gamma_r:.6f}; "
        f"domination and rate hold on 1000 samples at eps_r/4 and eps_r/2; "
        f"100 trials per amplitude decay as certified, {elapsed:.1f}s < 60s"
    )


def test_criterion_09_transition_matrix_laws():
    rng = Rng(0xACC_09)
    for _ in range(25):
        n = rng.integer(1, 4)
        horizon = rng.integer(6, 16)
        mats = [rng.matrix(n, n) for _ in range(horizon)]
        ltv = LinearTV(n, lambda t, mats=mats: mats[t])
        t0 = rng.integer(0, 3)
        t2 = rng.integer(t0 + 2, horizon)
        t1 = rng.integer(t0, t2)
        full = transitions(ltv, [t0], t2 - t0)[0, -1]
        split = transitions(ltv, [t1], t2 - t1)[0, -1] @ transitions(ltv, [t0], t1 - t0)[0, -1]
        assert np.linalg.norm(full - split) <= 1e-12 * max(1.0, np.linalg.norm(full))

    # the envelope is checked against an independent hand loop of products
    violations = 0
    systems = [
        LinearTV(1, lambda t: np.array([[0.2 if t % 2 == 0 else 0.8]])),
        LinearTV(
            2,
            lambda t: np.diag([0.2, 0.6]) if t % 2 == 0 else np.diag([0.8, 0.3]),
        ),
    ]
    for ltv in systems:
        env = verify_transition_decay(ltv, t0_samples=(0, 1, 2, 3), horizon=40)
        assert env.uniform_bound >= 1.0
        for t0 in range(4):
            phi = np.eye(ltv.dim)
            for dt in range(41):
                if dt > 0:
                    phi = ltv.matrix(t0 + dt - 1) @ phi
                bound = env.gain * math.exp(-env.rate * dt)
                if float(np.linalg.norm(phi, 2)) > bound * (1.0 + 1e-12):
                    violations += 1
    assert violations == 0
    print(
        "[criterion 09] PASS cocycle splits at 1e-12 on 25 random products; "
        "alternating-gain envelopes dominate pointwise over 4 starts x 40 steps"
    )


def _round_trip_corpus():
    atoms = ["x[0]", "x[1]", "t", "a", "1.5", "0.25"]
    corpus = []
    for op in "+-*/^":
        for left in atoms:
            for right in ("x[0]", "t", "2.0"):
                corpus.append(f"{left} {op} {right}")
    for fn in ("abs", "sin", "cos", "exp", "tanh", "sqrt"):
        corpus.append(f"{fn}(x[0] + t)")
    corpus.extend(
        [
            "min(x[0], 1.0)",
            "max(t, x[1])",
            "-x[0] ^ 2.0",
            "-(x[0] + 1.0) * t",
            "x[0] * (t - 1.0) / (a + 2.0)",
            "0.5 * x[0] + x[0] ^ 2.0",
        ]
    )
    return corpus


def test_criterion_10_frontend_reproducibility(tmp_path):
    corpus = _round_trip_corpus()
    assert len(corpus) >= 100
    for source in corpus:
        tree = parse_expression(source)
        printed = pretty(tree)
        reparsed = parse_expression(printed)
        assert reparsed == tree
        assert pretty(reparsed) == printed

    pairs = 0
    for path in sorted(CONFIG_DIR.glob("*.json")):
        doc = json.loads(path.read_text())
        load_config(str(path))  # must validate cleanly before any run
        for block in doc["analyses"]:
            command = block["command"]
            first, code1 = run_command(doc, command, timestamp=False)
            second, code2 = run_command(doc, command, timestamp=False)
            assert code1 == code2 == 0, f"{path.name}:{command} exited {code1}/{code2}"
            assert render_report(first) == render_report(second), f"{path.name}:{command}"
            pairs += 1
    assert pairs >= 10

    cfg = str(CONFIG_DIR / "rotation_linear.json")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["linear", "--config", cfg, "--out", str(out1), "--no-timestamp"]) == 0
    assert main(["linear", "--config", cfg, "--out", str(out2), "--no-timestamp"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    json.loads(out1.read_text())  # the emitted report must stay valid JSON
    print(
        f"[criterion 10] PASS {len(corpus)} expressions round-trip byte-stable; "
        f"{pairs} config/command reports byte-identical across reruns"
    )
