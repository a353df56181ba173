"""Seeded input generation for the four benchmark workloads.

Structure (sizes, dimensions, drive shapes, command mix) is stratified and
identical for every seed; the seed only draws the numbers inside each
structure.  That keeps the cost of a workload the same from seed to seed,
so run-to-run spread measures the program, not the luck of the draw.

Everything returned is plain JSON data: CLI jobs carry a config document,
library jobs carry their matrices as nested lists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

WORKLOADS = ("drive_averaging", "slow_fast_composite", "stein_dual_route", "local_basin")

# shipped configs joined to each CLI workload, by the kind of system they hold
SHIPPED = {
    "drive_averaging": ("weak_oscillator.json",),
    "slow_fast_composite": ("slow_fast_golden.json",),
    "local_basin": ("contraction_quadratic.json", "rotation_linear.json", "alternating_gain.json"),
}

STEIN_SIZES = (2, 3, 4, 5, 6, 8, 10, 12, 13, 16, 20, 24, 32, 40, 48)
STEIN_RADII = (0.3, 0.6, 0.9, 0.99)
EXPANDING_RADIUS = 1.5
HALF_PI = repr(np.pi / 2.0)
DRIVES = {"p2": "(-1)^t", "cos4": f"cos({HALF_PI}*t)", "sin4": f"sin({HALF_PI}*t)"}


def _num(v: float) -> str:
    return repr(round(float(v), 4))


def _lin(row, var: str = "x") -> str:
    return " + ".join(f"({_num(c)})*{var}[{j}]" for j, c in enumerate(row))


def _scaled(rng: np.random.Generator, n: int, rho: float) -> np.ndarray:
    """Gaussian matrix rescaled to spectral radius ``rho``."""
    A = rng.standard_normal((n, n))
    return A * (rho / float(np.max(np.abs(np.linalg.eigvals(A)))))


def _normal_schur(rng: np.random.Generator, n: int, rho: float) -> np.ndarray:
    """rho times a random orthogonal matrix, rounded to the digits the config carries.

    A normal matrix decays like rho^t from every start, so the cost of a job
    depends on rho, which is fixed per stratum, and not on how far a random
    draw is from normal.
    """
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return np.round(rho * Q * np.sign(np.diag(R)), 4)


def _cli(jid: str, command: str, doc: dict, source: str, **expect) -> dict:
    return {"id": jid, "kind": "cli", "command": command, "doc": doc, "source": source, "expect": expect}


def _shipped(root: Path, workload: str) -> list:
    jobs = []
    for name in SHIPPED[workload]:
        doc = json.loads((root / "configs" / name).read_text(encoding="utf-8"))
        for block in doc["analyses"]:
            jobs.append(_cli(f"{name}:{block['command']}", block["command"], doc, name))
    return jobs


def drive_averaging(rng: np.random.Generator, root: Path) -> list:
    """Period-2/4 zero-mean drives on a unit-decay field.

    Per drive shape: two drives of dim 1 and of dim 2, one of dim 3.  In
    rep 0 every drive gain is 0.3 with a random sign; in rep 1 gains are
    drawn uniformly from [-1, 1], where the sampled drift_remainder check
    fails more often.
    """
    jobs = []
    for shape in ("p2", "cos4", "sin4", "mixed"):
        for dim, rep in ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0)):
            exprs = []
            for i in range(dim):
                terms = [f"(-1.0)*x[{i}]"]
                for j in range(dim):
                    drive = DRIVES[shape] if shape != "mixed" else DRIVES[rng.choice(sorted(DRIVES))]
                    gain = rng.choice((-0.3, 0.3)) if rep == 0 else _num(rng.uniform(-1.0, 1.0))
                    terms.append(f"({gain})*{drive}*x[{j}]")
                exprs.append(" + ".join(terms))
            doc = {
                "kind": "nonautonomous",
                "dims": {"x": dim},
                "map": {"x": exprs},
                "analyses": [{"command": "averaging", "delta": 1.0, "n_probes": 4,
                              "T_list": [2, 4, 8, 16, 32], "drift_samples": 8}],
                "seed": int(rng.integers(0, 2**31)),
            }
            jobs.append(_cli(f"drive-{shape}-d{dim}-{rep}:averaging", "averaging", doc, "generated"))
    return jobs + _shipped(root, "drive_averaging")


def slow_fast_composite(rng: np.random.Generator, root: Path) -> list:
    """Two slow/fast pairs per dimension pair, with a linear fast branch ystar = M x.

    The two pairs have fast contraction c = 0.3 and 0.7; the slow field
    decays at unit rate under a period-2 drive and couples to y - ystar(x)
    with gain 0.3 and a random sign.
    """
    jobs = []
    for nx, ny, c in ((nx, ny, c) for nx in (1, 2) for ny in (1, 2) for c in (0.3, 0.7)):
        ystar = [_lin(row) for row in rng.uniform(-0.5, 0.5, (ny, nx))]
        fast = [f"({_num(c)})*y[{i}] + ({_num(1.0 - c)})*({ystar[i]})" for i in range(ny)]
        slow = [
            " + ".join(
                [f"(-1.0)*x[{i}]", f"(0.25)*(-1)^t*x[{i}]"]
                + [f"({rng.choice((-0.3, 0.3))})*(y[{j}] - ({ystar[j]}))" for j in range(ny)]
            )
            for i in range(nx)
        ]
        doc = {
            "kind": "slow_fast",
            "dims": {"x": nx, "y": ny},
            "map": {"x": slow, "y": fast, "ystar": ystar},
            "epsilon": 0.01,
            "analyses": [
                {"command": "timescales", "r": 1.0, "n_samples": 40, "trials": 4, "horizon": 100},
                {"command": "converse", "radius": 1.0, "horizon": 24, "n_check": 60},
            ],
            "seed": int(rng.integers(0, 2**31)),
        }
        for command in ("timescales", "converse"):
            jobs.append(_cli(f"pair-x{nx}y{ny}-c{c}:{command}", command, doc, "generated"))
    return jobs + _shipped(root, "slow_fast_composite")


def stein_dual_route(rng: np.random.Generator, root: Path) -> list:
    """Every size crossed with every radius, plus one expanding matrix per size."""
    jobs = []
    for n in STEIN_SIZES:
        for rho in STEIN_RADII + (EXPANDING_RADIUS,):
            A = _scaled(rng, n, rho)
            B = rng.standard_normal((n, n))
            Q = B @ B.T / n + np.eye(n)
            jobs.append({"id": f"stein-n{n}-r{rho}", "kind": "stein", "n": n, "rho": rho,
                         "A": A.tolist(), "Q": Q.tolist()})
    return jobs


_NONLINEAR = {
    "quad": lambda c, j, k, t: f"({_num(c)}){t}*x[{j}]^2",
    "tanh": lambda c, j, k, t: f"({_num(c)}){t}*x[{j}]*tanh(x[{k}])",
}


def local_basin(rng: np.random.Generator, root: Path) -> list:
    """Schur linear part plus quadratic or tanh terms (two maps per stratum), and purely linear maps."""
    jobs = []
    for kind in ("autonomous", "nonautonomous"):
        for term in ("quad", "tanh"):
            for dim, rho, rep in ((d, r, k) for d in (1, 2, 3) for r in (0.4, 0.6) for k in (0, 1)):
                A = _normal_schur(rng, dim, rho)
                factor = "" if kind == "autonomous" else ("*(-1)^t" if term == "quad" else "*cos(t)")
                exprs = [
                    _lin(A[i]) + " + " + _NONLINEAR[term](
                        rng.choice((-0.3, 0.3)), int(rng.integers(dim)), int(rng.integers(dim)), factor
                    )
                    for i in range(dim)
                ]
                doc = {
                    "kind": kind,
                    "dims": {"x": dim},
                    "map": {"x": exprs},
                    "equilibrium": [0.0] * dim,
                    "analyses": [
                        {"command": "certify-local", "domain_radius": 1.0, "trials": 20},
                        {"command": "converse", "radius": 0.5, "horizon": 24, "n_check": 60},
                        {"command": "simulate", "x0": [0.1] * dim, "horizon": 30},
                    ],
                    "seed": int(rng.integers(0, 2**31)),
                }
                name = f"{kind[:4]}-{term}-d{dim}-r{rho}-{rep}"
                for command in ("certify-local", "converse", "simulate"):
                    jobs.append(_cli(f"{name}:{command}", command, doc, "generated"))
    for dim in (1, 2, 3):
        for rho in (0.4, 0.6):
            A = _normal_schur(rng, dim, rho)
            doc = {"kind": "autonomous", "dims": {"x": dim}, "map": {"x": [_lin(r) for r in A]},
                   "analyses": [{"command": "linear"}], "seed": int(rng.integers(0, 2**31))}
            jobs.append(_cli(f"linear-d{dim}-r{rho}:linear", "linear", doc, "generated", A=A.tolist()))
            A0, A1 = _normal_schur(rng, dim, rho), rng.choice((-0.05, 0.05), (dim, dim))
            exprs = [
                " + ".join(f"(({_num(A0[i, j])}) + ({_num(A1[i, j])})*(-1)^t)*x[{j}]" for j in range(dim))
                for i in range(dim)
            ]
            doc = {"kind": "linear_tv", "dims": {"x": dim}, "map": {"x": exprs},
                   "analyses": [{"command": "linear"}], "seed": int(rng.integers(0, 2**31))}
            jobs.append(_cli(f"linear_tv-d{dim}-r{rho}:linear", "linear", doc, "generated"))
    return jobs + _shipped(root, "local_basin")


def generate(workload: str, seed: int, root: Path) -> list:
    generators = {
        "drive_averaging": drive_averaging,
        "slow_fast_composite": slow_fast_composite,
        "stein_dual_route": stein_dual_route,
        "local_basin": local_basin,
    }
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return generators[workload](rng, root)
