"""Expression language, config validation, report documents, CLI contract."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lyapcert
from lyapcert.dynsys import BatchMap, DynSystem, LinearTV, SlowFastSystem, simulate
from lyapcert.errors import ConfigError, ParseError
from lyapcert.frontend.cli import main, run_command
from lyapcert.frontend.config import COMMANDS, build_system, load_config
from lyapcert.frontend.expressions import (
    Bin,
    Neg,
    Num,
    Ref,
    Time,
    evaluate,
    free_refs,
    parse_expression,
    pretty,
)
from lyapcert.frontend.report import (
    canonical_json,
    checks_from_reports,
    config_digest,
    jsonable,
    render_report,
)
from lyapcert.certcheck import ConditionReport


class TestParser:
    def test_golden_evaluation(self):
        node = parse_expression("-x[0] + ((-1)^t)*x[0]")
        assert evaluate(node, 3, [2.0]) == pytest.approx(-4.0)
        assert evaluate(node, 2, [2.0]) == pytest.approx(0.0)

    def test_precedence_and_associativity(self):
        assert evaluate(parse_expression("2+3*4"), 0, []) == 14.0
        assert evaluate(parse_expression("2^3^2"), 0, []) == 512.0  # right-assoc
        assert evaluate(parse_expression("8/4/2"), 0, []) == 1.0  # left-assoc
        assert evaluate(parse_expression("1-2-3"), 0, []) == -4.0

    def test_unary_minus_binds_tighter_than_power(self):
        assert evaluate(parse_expression("-x[0]^2"), 0, [3.0]) == 9.0
        assert evaluate(parse_expression("-1.0^t"), 1, []) == -1.0

    def test_functions(self):
        assert evaluate(parse_expression("max(x[0], 2)"), 0, [1.0]) == 2.0
        assert evaluate(parse_expression("sqrt(abs(x[0]))"), 0, [-9.0]) == 3.0
        assert evaluate(parse_expression("sin(0)+cos(0)"), 0, []) == 1.0

    def test_parameters(self):
        node = parse_expression("a*x[0]+b")
        assert free_refs(node) == {("a", None), ("x", 0), ("b", None)}
        assert evaluate(node, 0, [2.0], params={"a": 3.0, "b": 1.0}) == 7.0
        with pytest.raises(ValueError, match="unbound parameter"):
            evaluate(node, 0, [2.0], params={"a": 3.0})

    def test_fast_state_requires_y(self):
        node = parse_expression("y[0]")
        assert evaluate(node, 0, [0.0], y=[5.0]) == 5.0
        with pytest.raises(ValueError):
            evaluate(node, 0, [0.0])

    def test_fractional_power_of_negative_base_raises(self):
        with pytest.raises(ValueError, match=r"-1\.0\^0\.5"):
            evaluate(parse_expression("x[0]^0.5"), 0, [-1.0])
        assert evaluate(parse_expression("x[0]^3"), 0, [-2.0]) == -8.0
        assert evaluate(parse_expression("x[0]^0.5"), 0, [4.0]) == 2.0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            evaluate(parse_expression("1/x[0]"), 0, [0.0])

    @pytest.mark.parametrize(
        "src,column",
        [
            ("x[0", 4),
            ("(1+2", 5),
            ("x[a]", 3),
            ("2 +* 3", 4),
            ("foo(1)", 1),
            ("min(1)", 1),
            ("", 1),
            ("1..5", 1),
        ],
    )
    def test_error_positions(self, src, column):
        with pytest.raises(ParseError) as exc:
            parse_expression(src)
        assert exc.value.column == column
        assert exc.value.line == 1

    def test_multiline_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("x[0] +\n  $")
        assert exc.value.line == 2
        assert exc.value.column == 3

    def test_numbers_print_as_floats(self):
        assert pretty(parse_expression("2")) == "2.0"
        assert pretty(parse_expression("2.5e-3")) == "0.0025"


ROUND_TRIP_CORPUS = [
    "x[0]",
    "-x[0]",
    "t",
    "a",
    "1.0",
    "-1.0^t",
    "x[0]+x[1]",
    "x[0]-x[1]-x[2]",
    "x[0]-(x[1]-x[2])",
    "x[0]*x[1]/x[2]",
    "x[0]/(x[1]/x[2])",
    "(x[0]+1.0)*(x[1]-2.0)",
    "x[0]^2.0",
    "(-x[0])^2.0",
    "2.0^3.0^t",
    "(2.0^3.0)^t",
    "-(x[0]+1.0)",
    "sin(t)*x[0]",
    "max(x[0],0.5)",
    "min(abs(x[0]),sqrt(x[1]))",
    "exp(-0.5*t)*x[0]",
    "tanh(x[0])+cos(t)",
    "a*x[0]+b*x[1]",
    "0.5*y[0]+0.1*x[0]",
    "x[0]*(1.0+x[0]^2.0)",
    "1.0/(1.0+exp(-x[0]))",
    "-t^2.0",
    "x[0]-t*x[1]+t^2.0*x[2]",
]


class TestRoundTrip:
    @pytest.mark.parametrize("src", ROUND_TRIP_CORPUS)
    def test_pretty_is_fixed_point(self, src):
        tree = parse_expression(src)
        text = pretty(tree)
        tree2 = parse_expression(text)
        assert tree2 == tree
        assert pretty(tree2) == text

    def test_structurally_distinct_groupings_stay_distinct(self):
        left = parse_expression("x[0]-x[1]-x[2]")
        right = parse_expression("x[0]-(x[1]-x[2])")
        assert left != right
        assert pretty(left) != pretty(right)


def minimal_doc(**overrides):
    doc = {
        "kind": "autonomous",
        "dims": {"x": 1},
        "map": {"x": ["0.5*x[0]"]},
        "analyses": [{"command": "simulate", "x0": [8.0], "horizon": 3}],
        "seed": 7,
    }
    doc.update(overrides)
    return doc


class TestConfig:
    def test_valid_document(self):
        cfg = load_config(minimal_doc())
        assert cfg.kind == "autonomous"
        assert cfg.dim_x == 1 and cfg.dim_y is None
        assert cfg.seed == 7
        sys = build_system(cfg)
        assert isinstance(sys, DynSystem)
        assert sys.map_fn(0, np.array([8.0]))[0] == 4.0

    def test_accepts_json_text_and_paths(self, tmp_path):
        doc = minimal_doc()
        text = json.dumps(doc)
        assert load_config(text).seed == 7
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert load_config(str(path)).seed == 7

    @pytest.mark.parametrize(
        "mutate,pointer",
        [
            (lambda d: d.update(kind="continuous"), "/kind"),
            (lambda d: d.pop("dims"), "/dims"),
            (lambda d: d.update(dims={"x": 0}), "/dims/x"),
            (lambda d: d.update(dims={"x": 1, "y": 1}), "/dims/y"),
            (lambda d: d.update(map={"x": ["0.5*x[1]"]}), "/map/x/0"),
            (lambda d: d.update(map={"x": ["0.5*x[0"]}), "/map/x/0"),
            (lambda d: d.update(map={"x": ["c*x[0]"]}), "/map/x/0"),
            (lambda d: d.update(map={"x": []}), "/map/x"),
            (lambda d: d.update(analyses=[]), "/analyses"),
            (lambda d: d.update(analyses=[{"command": "tune"}]), "/analyses/0/command"),
            (lambda d: d.update(params={"t": 1.0}), "/params/t"),
            (lambda d: d.update(params={"a": "one"}), "/params/a"),
            (lambda d: d.update(epsilon=2.0), "/epsilon"),
            (lambda d: d.update(kind="slow_fast", dims={"x": 1, "y": 1}, epsilon=2.0,
                                map={"x": ["-x[0]"], "y": ["0.5*y[0]"]}), "/epsilon"),
            (lambda d: d.update(equilibrium=[0.0, 0.0]), "/equilibrium"),
            (lambda d: d.update(seed=-1), "/seed"),
        ],
    )
    def test_pointer_attribution(self, mutate, pointer):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(ConfigError) as exc:
            load_config(doc)
        assert exc.value.pointer == pointer

    @pytest.mark.parametrize(
        "kind,command,key,value",
        [
            ("linear_tv", "linear", "equilibrium", [3.0]),
            ("linear_tv", "linear", "epsilon", 0.5),
            ("slow_fast", "simulate", "equilibrium", [2.0]),
            ("autonomous", "linear", "epsilon", 0.3),
            ("nonautonomous", "simulate", "epsilon", 0.3),
        ],
    )
    def test_keys_the_kind_ignores_are_refused(self, kind, command, key, value):
        # build_system would drop the key and certify a system other than the one declared
        doc = minimal_doc(kind=kind, **{key: value})
        if kind == "slow_fast":
            doc.update(dims={"x": 1, "y": 1}, map={"x": ["-x[0]"], "y": ["0.5*y[0]"]})
            doc["analyses"] = [{"command": "simulate", "x0": [1.0, 1.0]}]
        with pytest.raises(ConfigError, match=f"{key} is only meaningful for") as exc:
            load_config(doc)
        assert exc.value.pointer == f"/{key}"
        report, code = run_command(doc, command, timestamp=False)
        assert code == 1 and report["error"]["type"] == "ConfigError"

    def test_fast_state_needs_slow_fast_kind(self):
        doc = minimal_doc(map={"x": ["0.5*x[0]+y[0]"]})
        with pytest.raises(ConfigError) as exc:
            load_config(doc)
        assert exc.value.pointer == "/map/x/0"

    def test_invalid_json_text(self):
        with pytest.raises(ConfigError):
            load_config("{not json")

    def test_linear_tv_matrix_extraction(self):
        doc = {
            "kind": "linear_tv",
            "dims": {"x": 2},
            "map": {"x": ["0.5*x[0]+t*x[1]", "0.25*x[1]"]},
            "analyses": [{"command": "linear"}],
            "seed": 1,
        }
        sysl = build_system(load_config(doc))
        assert isinstance(sysl, LinearTV)
        assert np.allclose(sysl.matrix_fn(3), [[0.5, 3.0], [0.0, 0.25]])

    def test_slow_fast_building(self):
        doc = {
            "kind": "slow_fast",
            "dims": {"x": 1, "y": 1},
            "map": {"x": ["-x[0]+y[0]"], "y": ["0.5*y[0]"], "ystar": ["0"]},
            "epsilon": 0.01,
            "analyses": [{"command": "timescales"}],
            "seed": 3,
        }
        sysf = build_system(load_config(doc))
        assert isinstance(sysf, SlowFastSystem)
        assert sysf.epsilon == 0.01
        assert sysf.phi(0, np.array([2.0]), np.array([1.0]))[0] == -1.0
        assert sysf.varphi(0, np.array([4.0]), np.array([0.0]))[0] == 2.0


class TestReportDocuments:
    def test_canonical_json_is_key_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'

    def test_digest_ignores_key_order(self):
        a = {"x": 1, "y": {"p": 2, "q": 3}}
        b = {"y": {"q": 3, "p": 2}, "x": 1}
        assert config_digest(a) == config_digest(b)
        assert len(config_digest(a)) == 64

    def test_jsonable_conversions(self):
        out = jsonable(
            {
                "arr": np.array([1.0, 2.0]),
                "z": complex(1.0, -2.0),
                "inf": math.inf,
                "nan": math.nan,
                "fn": lambda x: x,
                "npint": np.int64(3),
            }
        )
        assert out["arr"] == [1.0, 2.0]
        assert out["z"] == {"re": 1.0, "im": -2.0}
        assert out["inf"] == "inf" and out["nan"] == "nan"
        assert out["fn"] is None
        assert out["npint"] == 3
        json.dumps(out, allow_nan=False)  # representation stays strictly serializable

    def test_jsonable_elides_dataclass_callables(self):
        rep = ConditionReport("demo", True, 0.5, (2, np.array([1.0, -1.0])), 10, {})
        out = jsonable(rep)
        assert out["condition"] == "demo"
        assert out["worst_point"] == [2, [1.0, -1.0]]

    def test_checks_from_reports(self):
        reports = [
            ConditionReport("ok", True, 0.25, None, 5, {}),
            ConditionReport("bad", False, -1.0, (3, np.array([2.0])), 7, {}),
        ]
        checks = checks_from_reports(reports)
        assert checks[0] == {"name": "ok", "passed": True, "margin": 0.25, "worst_point": None}
        assert checks[1]["worst_point"] == {"t": 3, "x": [2.0]}


class TestRunCommand:
    def test_simulate_golden_trajectory(self):
        report, code = run_command(minimal_doc(), "simulate", timestamp=False)
        assert code == 0
        assert report["status"] == "passed"
        states = report["results"][0]["states"]
        assert states == [[8.0], [4.0], [2.0], [1.0]]
        lines = report["results"][0]["csv"].strip().split("\n")
        assert lines[0] == "t,x0"
        assert lines[1].startswith("0,8")

    def test_failed_check_maps_to_exit_two(self, monkeypatch):
        from lyapcert.frontend import cli

        def always_failing(system, options, seed):
            return [], [ConditionReport("synthetic", False, -1.0, None, 1, {})]

        monkeypatch.setitem(cli._HANDLERS, "simulate", always_failing)
        report, code = cli.run_command(minimal_doc(), "simulate", timestamp=False)
        assert code == 2
        assert report["status"] == "check_failed"
        assert report["checks"][0]["passed"] is False

    def test_simulate_without_x0_errors(self):
        doc = minimal_doc(analyses=[{"command": "simulate"}])
        report, code = run_command(doc, "simulate")
        assert code == 1
        assert report["status"] == "error"
        assert "x0" in report["error"]["message"]

    def test_linear_solves_scalar_stein(self):
        doc = minimal_doc(analyses=[{"command": "linear"}])
        report, code = run_command(doc, "linear", timestamp=False)
        assert code == 0
        types = [r["type"] for r in report["results"]]
        assert types == ["spectrum", "quadratic_certificate"]
        P = report["results"][1]["solution"]["P"]
        assert P[0][0] == pytest.approx(4.0 / 3.0, rel=1e-12)

    def test_linear_reports_instability_witness(self):
        doc = minimal_doc(map={"x": ["2*x[0]"]}, analyses=[{"command": "linear"}])
        report, code = run_command(doc, "linear", timestamp=False)
        assert code == 0
        types = [r["type"] for r in report["results"]]
        assert "instability_witness" in types

    def test_simulate_fractional_power_of_negative_state_errors(self):
        doc = minimal_doc(
            map={"x": ["x[0]^0.5"]},
            analyses=[{"command": "simulate", "x0": [-1.0], "horizon": 3}],
        )
        report, code = run_command(doc, "simulate", timestamp=False)
        assert code == 1
        assert report["error"]["type"] == "ValueError"
        assert "^0.5" in report["error"]["message"]

    @pytest.mark.parametrize(
        "config, error",
        [("contraction_quadratic.json", "InapplicableError"), ("weak_oscillator.json", "ValueError")],
    )
    def test_linear_refuses_maps_it_cannot_certify(self, config, error):
        path = Path(__file__).parent.parent / "configs" / config
        report, code = run_command(json.loads(path.read_text()), "linear", timestamp=False)
        assert code == 1
        assert report["status"] == "error"
        assert report["error"]["type"] == error

    def test_linear_refuses_nonlinear_linear_tv(self):
        doc = minimal_doc(kind="linear_tv", map={"x": ["0.5*x[0]+0.1*x[0]^2"]},
                          analyses=[{"command": "linear"}])
        report, code = run_command(doc, "linear", timestamp=False)
        assert code == 1
        assert report["error"]["type"] == "InapplicableError"
        assert "t=0" in report["error"]["message"]

    def test_linear_reads_the_map_about_its_equilibrium(self):
        doc = minimal_doc(map={"x": ["0.5*x[0]+1"]}, equilibrium=[2.0],
                          analyses=[{"command": "linear"}])
        report, code = run_command(doc, "linear", timestamp=False)
        assert code == 0
        assert report["results"][0]["A"] == [[0.5]]

    def test_certify_local_passes_basin_check(self):
        doc = minimal_doc(
            map={"x": ["0.5*x[0]+x[0]^2"]},
            analyses=[{"command": "certify-local", "trials": 25}],
        )
        report, code = run_command(doc, "certify-local", timestamp=False)
        assert code == 0
        cert = report["results"][0]["certificate"]
        assert cert["verdict"] == "exponentially_stable"
        assert cert["gamma_star"] == pytest.approx(math.sqrt(1.75) - 1.0, rel=1e-9)
        assert report["checks"][0]["name"] == "basin_convergence"
        assert report["checks"][0]["passed"]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_certify_local_without_trials_fails_closed(self, trials):
        doc = minimal_doc(
            map={"x": ["0.5*x[0]+x[0]^2"]},
            analyses=[{"command": "certify-local", "trials": trials}],
        )
        report, code = run_command(doc, "certify-local", timestamp=False)
        assert code == 1
        assert report["status"] == "error"
        assert report["error"]["type"] == "ConfigError"
        assert "(at '/analyses/0/trials')" in report["error"]["message"]
        assert report["checks"] == [] and report["results"] == []

    @pytest.mark.parametrize("command", ["converse", "averaging"])
    @pytest.mark.parametrize("radius", [0, -0.5])
    def test_nonpositive_radius_is_refused(self, command, radius):
        # at radius 0 every sample is the zero state, so every margin is the tolerance
        path = Path(__file__).parent.parent / "configs" / "contraction_quadratic.json"
        doc = json.loads(path.read_text())
        doc["analyses"] = [{"command": command, "radius": radius}]
        report, code = run_command(doc, command, timestamp=False)
        assert code == 1
        assert report["status"] == "error"
        assert report["error"]["type"] == "ConfigError"
        assert "(at '/analyses/0/radius')" in report["error"]["message"]

    @pytest.mark.parametrize(
        "overrides,pointer",
        [
            ({"analyses": [{"command": "simulate", "x0": [math.nan]}]}, "/analyses/0/x0/0"),
            ({"params": {"a": math.inf}, "map": {"x": ["a*x[0]"]}}, "/params/a"),
            ({"equilibrium": [-math.inf]}, "/equilibrium/0"),
        ],
    )
    def test_non_finite_constants_are_refused(self, overrides, pointer):
        report, code = run_command(minimal_doc(**overrides), "simulate", timestamp=False)
        assert code == 1
        assert report["status"] == "error"
        assert report["error"]["type"] == "ConfigError"
        assert pointer in report["error"]["message"]
        assert len(report["config_digest"]) == 64
        render_report(report)  # the error report itself serializes

    @pytest.mark.parametrize(
        "value", [np.array([1.0]), {1.0, 2.0}, np.int64(3)], ids=["ndarray", "set", "int64"]
    )
    def test_values_json_cannot_encode_get_an_error_report(self, value):
        # config_digest raised TypeError from the error path
        report, code = run_command({"kind": "autonomous", "x": value}, "simulate", timestamp=False)
        assert code == 1
        assert report["status"] == "error"
        assert report["error"]["type"] == "ConfigError"
        assert "/x" in report["error"]["message"]
        assert report["config_digest"] is None
        render_report(report)
        # in a field load_config reads, the value is refused, not converted
        report, code = run_command(
            minimal_doc(analyses=[{"command": "simulate", "x0": value, "horizon": 3}]), "simulate"
        )
        assert code == 1 and report["error"]["type"] == "ConfigError"
        assert "/analyses/0/x0" in report["error"]["message"]

    def test_non_string_key_is_refused(self):
        report, code = run_command(minimal_doc(params={1: 2.0}), "simulate", timestamp=False)
        assert code == 1 and report["error"]["type"] == "ConfigError"
        assert "key 1 is not a string" in report["error"]["message"]
        render_report(report)

    def test_error_reports_carry_stage(self):
        doc = {
            "kind": "slow_fast",
            "dims": {"x": 1, "y": 1},
            "map": {"x": ["-x[0]+y[0]"], "y": ["y[0]"]},
            "epsilon": 0.01,
            "analyses": [{"command": "timescales"}],
            "seed": 5,
        }
        report, code = run_command(doc, "timescales")
        assert code == 1
        assert report["error"]["stage"] == "fast-envelope"

    def test_timestamp_toggle(self):
        with_ts, _ = run_command(minimal_doc(), "simulate", timestamp=True)
        without, _ = run_command(minimal_doc(), "simulate", timestamp=False)
        assert "generated_at" in with_ts
        assert "generated_at" not in without

    @pytest.mark.parametrize(
        "config", sorted((Path(__file__).parent.parent / "configs").glob("*.json")), ids=lambda p: p.name
    )
    def test_margin_sign_matches_passed(self, config):
        doc = json.loads(config.read_text())
        for command in COMMANDS:
            report, _ = run_command(doc, command, timestamp=False)
            for check in report["checks"]:
                margin = check["margin"]
                nonnegative = margin == "inf" or (margin not in ("nan", "-inf") and margin >= 0.0)
                assert check["passed"] == nonnegative, f"{config.name}:{command}:{check}"

    @pytest.mark.parametrize("nx,ny", [(1, 1), (1, 2), (2, 1), (2, 2)])
    @pytest.mark.parametrize("command", ["timescales", "converse"])
    def test_slow_fast_commands_in_every_dimension_pair(self, nx, ny, command):
        doc = {
            "kind": "slow_fast",
            "dims": {"x": nx, "y": ny},
            "map": {
                "x": [f"-x[{i}]" for i in range(nx)],
                "y": [f"0.5*y[{j}]" for j in range(ny)],
                "ystar": ["0"] * ny,
            },
            "epsilon": 0.01,
            "analyses": [
                {"command": "timescales", "r": 1.0, "n_samples": 20, "trials": 2, "horizon": 20},
                {"command": "converse", "radius": 1.0, "horizon": 12, "n_check": 20},
            ],
            "seed": 7,
        }
        report, code = run_command(doc, command, timestamp=False)
        assert code == 0, report.get("error")
        assert report["status"] == "passed"

    def test_linear_tv_reads_each_matrix_once(self, monkeypatch):
        from lyapcert.frontend import cli

        reads = []

        def counting_build(cfg):
            built = build_system(cfg)
            return LinearTV(built.dim, lambda t: reads.append(t) or built.matrix_fn(t))

        monkeypatch.setattr(cli, "build_system", counting_build)
        doc = json.loads((Path(__file__).parent.parent / "configs" / "alternating_gain.json").read_text())
        report, code = cli.run_command(doc, "linear", timestamp=False)
        assert code == 0
        assert len(reads) == len(set(reads)) == 32

    def test_seed_override_changes_sampled_analyses(self):
        doc = minimal_doc(
            map={"x": ["0.5*x[0]+x[0]^2"]},
            analyses=[{"command": "certify-local", "trials": 10}],
        )
        r1, _ = run_command(doc, "certify-local", seed=1, timestamp=False)
        r2, _ = run_command(doc, "certify-local", seed=2, timestamp=False)
        assert r1["checks"][0]["margin"] != r2["checks"][0]["margin"]


CONFIGS = Path(__file__).parent.parent / "configs"


def config_with(name, *blocks):
    doc = json.loads((CONFIGS / name).read_text())
    doc["analyses"] = list(blocks)
    return doc


class TestOptionTable:
    """``load_config`` checks every analyses block against ``OPTIONS``."""

    @pytest.mark.parametrize(
        "block,key",
        [
            ({"command": "converse", "radus": 0.01}, "radus"),
            ({"command": "converse", "n_check": 2.9}, "n_check"),
            ({"command": "converse", "n_check": "7"}, "n_check"),
            ({"command": "converse", "n_check": True}, "n_check"),
            ({"command": "converse", "horizon": 0}, "horizon"),
            ({"command": "averaging", "n_probes": -3}, "n_probes"),
            ({"command": "averaging", "delta": 0}, "delta"),
            ({"command": "averaging", "T_list": []}, "T_list"),
            ({"command": "averaging", "T_list": [2, 0]}, "T_list/1"),
            ({"command": "averaging", "T_list": 4}, "T_list"),
            ({"command": "certify-local", "trials": 1.5}, "trials"),
            ({"command": "certify-local", "domain_radius": False}, "domain_radius"),
            ({"command": "simulate", "x0": [0.1, 0.2]}, "x0"),
            ({"command": "simulate", "x0": ["0.1"]}, "x0/0"),
            ({"command": "simulate", "x0": [0.1], "horizon": -1}, "horizon"),
            ({"command": "simulate"}, "x0"),
            ({"command": "timescales", "r": -1.0}, "r"),
            ({"command": "linear", "radius": 1.0}, "radius"),
            # fixed values, not options
            ({"command": "simulate", "x0": [0.1], "t0": 0}, "t0"),
            ({"command": "converse", "n_trajectories": 8}, "n_trajectories"),
            ({"command": "averaging", "T_max": 512}, "T_max"),
        ],
    )
    def test_misuse_is_refused_at_its_key(self, block, key):
        doc = config_with("contraction_quadratic.json", block)
        report, code = run_command(doc, block["command"], timestamp=False)
        assert code == 1
        assert report["status"] == "error" and report["checks"] == []
        assert report["error"]["type"] == "ConfigError"
        assert f"(at '/analyses/0/{key}')" in report["error"]["message"]

    def test_every_block_is_checked_whichever_command_runs(self):
        doc = config_with(
            "contraction_quadratic.json", {"command": "linear"}, {"command": "converse", "radius": -1}
        )
        report, code = run_command(doc, "linear", timestamp=False)
        assert code == 1 and report["error"]["type"] == "ConfigError"
        assert "(at '/analyses/1/radius')" in report["error"]["message"]

    @pytest.mark.parametrize("second", [-5, 0.1])
    def test_second_block_for_a_command_is_refused(self, second):
        doc = config_with(
            "contraction_quadratic.json",
            {"command": "converse", "radius": 0.1},
            {"command": "converse", "radius": second},
        )
        report, code = run_command(doc, "converse", timestamp=False)
        assert code == 1 and report["status"] == "error"
        assert report["error"]["type"] == "ConfigError"
        assert "(at '/analyses/1/command')" in report["error"]["message"]

    def test_slow_fast_state_has_both_parts(self):
        doc = config_with("slow_fast_golden.json", {"command": "simulate", "x0": [1.0]})
        report, code = run_command(doc, "simulate", timestamp=False)
        assert code == 1
        assert "(at '/analyses/0/x0')" in report["error"]["message"]
        doc["analyses"][0]["x0"] = [1.0, 0.5]
        assert run_command(doc, "simulate", timestamp=False)[1] == 0

    def test_slow_fast_simulate_report_bytes_are_golden(self, tmp_path):
        # the report the one-state stacked map wrote, before the pair was
        # stepped as a batched SlowFastSystem.system()
        out = tmp_path / "simulate.json"
        args = ["simulate", "--config", str(CONFIGS / "slow_fast_golden.json"), "--no-timestamp"]
        assert main([*args, "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "56b3ffe14c557160e00832700832ab58fa0d7fd89026944489d47d81aaf308eb"

    def test_defaults_fill_every_command_without_a_block(self):
        cfg = load_config(minimal_doc(analyses=[{"command": "linear"}]))
        assert cfg.options_of("converse") == {"radius": 1.0, "horizon": 24, "n_check": 200}
        assert cfg.options_of("averaging")["T_list"] == [1, 2, 4, 8, 16, 32, 64]
        with pytest.raises(ConfigError) as exc:
            cfg.options_of("simulate")  # x0 has no default
        assert exc.value.pointer == "/analyses"

    def test_integer_numbers_read_as_floats(self):
        reports = [
            run_command(
                config_with(
                    "contraction_quadratic.json",
                    {"command": "certify-local", "domain_radius": radius, "trials": 10},
                ),
                "certify-local",
                timestamp=False,
            )
            for radius in (1, 1.0)
        ]
        assert [code for _, code in reports] == [0, 0]
        assert reports[0][0]["results"] == reports[1][0]["results"]
        assert reports[0][0]["checks"] == reports[1][0]["checks"]


class TestCliMain:
    def write(self, tmp_path, doc, name="cfg.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_module_entry_point_runs_under_warnings_as_errors(self, tmp_path):
        # `python -m lyapcert` is the CLI; a RuntimeWarning raised while the
        # package imports (a module run as __main__ twice) would exit 1 here
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        out = tmp_path / "module.json"
        config = str(CONFIGS / "contraction_quadratic.json")
        args = ["simulate", "--config", config, "--no-timestamp"]
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "lyapcert", *args,
             "--out", str(out)],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        direct = tmp_path / "direct.json"
        assert main([*args, "--out", str(direct)]) == 0
        assert out.read_bytes() == direct.read_bytes()

    def test_cli_module_run_as_a_script_fails_and_names_the_entry_points(self):
        # `python -m lyapcert.frontend.cli` runs the module a second time
        # after the package imported it; it must not exit 0 having run nothing
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        config = str(CONFIGS / "contraction_quadratic.json")
        done = subprocess.run(
            [sys.executable, "-m", "lyapcert.frontend.cli", "simulate", "--config", config],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode != 0
        assert done.stdout == ""
        assert "`lyapcert`" in done.stderr and "`python -m lyapcert`" in done.stderr

    def test_end_to_end_simulate(self, tmp_path, capsys):
        cfg = self.write(tmp_path, minimal_doc())
        out = tmp_path / "report.json"
        csv = tmp_path / "traj.csv"
        code = main(
            ["simulate", "--config", cfg, "--out", str(out), "--csv", str(csv), "--no-timestamp"]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["status"] == "passed"
        rows = csv.read_text().strip().split("\n")
        assert [r.split(",")[1] for r in rows[1:]] == ["8.0", "4.0", "2.0", "1.0"]

    def test_reports_are_byte_identical_without_timestamp(self, tmp_path):
        cfg = self.write(tmp_path, minimal_doc(analyses=[{"command": "linear"}]))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["linear", "--config", cfg, "--out", str(out1), "--no-timestamp"]) == 0
        assert main(["linear", "--config", cfg, "--out", str(out2), "--no-timestamp"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_failing_check_exits_two(self, tmp_path):
        # expanding map: the local certificate reports instability, and the
        # converse machinery cannot fit a decay envelope
        doc = minimal_doc(
            map={"x": ["2*x[0]"]},
            analyses=[{"command": "converse"}],
        )
        cfg = self.write(tmp_path, doc)
        out = tmp_path / "r.json"
        code = main(["converse", "--config", cfg, "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 1
        assert report["status"] == "error"

    @pytest.mark.parametrize("command", ["simulate", "converse"])
    def test_an_overflowing_power_diverges_as_a_product_does(self, tmp_path, command):
        # x[0]^2 at 1e200 raised OverflowError, naming no stage or point;
        # x[0]*x[0] overflows to inf and meets the divergence rule
        analyses = [
            {"command": "converse", "radius": 1e300, "horizon": 24, "n_check": 100},
            {"command": "simulate", "x0": [1e200], "horizon": 20},
        ]
        reports = []
        for name, src in (("power.json", "0.5*x[0]+x[0]^2"), ("product.json", "0.5*x[0]+x[0]*x[0]")):
            cfg = self.write(tmp_path, minimal_doc(map={"x": [src]}, analyses=analyses), name)
            out = tmp_path / f"{name}.out"
            assert main([command, "--config", cfg, "--out", str(out), "--no-timestamp"]) == 1
            reports.append(json.loads(out.read_text()))
        power, product = reports
        assert power["error"] == product["error"]
        assert power["error"]["type"] == "DivergenceError"

    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "absent.json")])
        assert code == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_reports_digest(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{broken")
        for flags in ([], ["--no-timestamp"]):
            code = main(["simulate", "--config", str(path), *flags])
            assert code == 1
            report = json.loads(capsys.readouterr().out)
            assert report["status"] == "error"
            assert report["error"]["type"] == "JSONDecodeError"
            assert report["config_digest"] == hashlib.sha256(b"{broken").hexdigest()
            assert report["tool_version"] == lyapcert.__version__
            assert ("generated_at" in report) == (flags == [])

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_exits_one(self, tmp_path, capsys, literal):
        path = tmp_path / "nan.json"
        text = json.dumps(minimal_doc()).replace("[8.0]", f"[{literal}]")
        path.write_text(text)
        code = main(["simulate", "--config", str(path), "--no-timestamp"])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "error"
        assert report["error"]["type"] == "ConfigError"
        assert "/analyses/0/x0/0" in report["error"]["message"]

    def test_seed_flag_overrides_config(self, tmp_path):
        doc = minimal_doc(
            map={"x": ["0.5*x[0]+x[0]^2"]},
            analyses=[{"command": "certify-local", "trials": 10}],
        )
        cfg = self.write(tmp_path, doc)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["certify-local", "--config", cfg, "--out", str(out1), "--no-timestamp"])
        main(
            [
                "certify-local",
                "--config",
                cfg,
                "--out",
                str(out2),
                "--no-timestamp",
                "--seed",
                "99",
            ]
        )
        assert out1.read_bytes() != out2.read_bytes()


def generated_pair_doc():
    """A slow/fast pair of the benchmark's generated kind: dims 2 and 2, fast
    contraction 0.7 toward the linear branch ystar = M x."""
    ystar = ["(0.4138)*x[0] + (-0.4941)*x[1]", "(-0.1274)*x[0] + (-0.4461)*x[1]"]
    return {
        "kind": "slow_fast",
        "dims": {"x": 2, "y": 2},
        "map": {
            "x": [
                f"(-1.0)*x[{i}] + (0.25)*(-1)^t*x[{i}] + (0.3)*(y[0] - ({ystar[0]})) + ({g})*(y[1] - ({ystar[1]}))"
                for i, g in ((0, -0.3), (1, 0.3))
            ],
            "y": [f"(0.7)*y[{i}] + (0.3)*({ystar[i]})" for i in range(2)],
            "ystar": ystar,
        },
        "epsilon": 0.01,
        "analyses": [
            {"command": "timescales", "r": 1.0, "n_samples": 40, "trials": 4, "horizon": 100},
            {"command": "converse", "radius": 1.0, "horizon": 24, "n_check": 60},
        ],
        "seed": 2033760025,
    }


def local_map_doc(kind, term, shifted):
    """A two-state map of the benchmark's local kind: a Schur linear part plus
    a quadratic or tanh term (times (-1)^t or cos(t) when nonautonomous),
    about the equilibrium (0.25, -0.5) when ``shifted``, else the origin."""
    eq = [0.25, -0.5] if shifted else [0.0, 0.0]
    u = [f"(x[{i}] - ({eq[i]}))" for i in range(2)]
    factor = "" if kind == "autonomous" else ("*(-1)^t" if term == "quad" else "*cos(t)")
    nonlinear = {"quad": f"{u[1]}^2", "tanh": f"{u[0]}*tanh({u[1]})"}[term]
    return {
        "kind": kind,
        "dims": {"x": 2},
        "map": {
            "x": [
                f"({eq[0]}) + (0.4)*{u[0]} + (-0.2)*{u[1]} + (0.3){factor}*{nonlinear}",
                f"({eq[1]}) + (0.1)*{u[0]} + (0.5)*{u[1]}",
            ]
        },
        "equilibrium": eq,
        "analyses": [
            {"command": "certify-local", "domain_radius": 1.0, "trials": 20},
            {"command": "converse", "radius": 0.5, "horizon": 24, "n_check": 60},
        ],
        "seed": 1234567,
    }


class TestBatchedReports:
    """Reports give the same bytes whether the compiled maps take whole
    batches or, rebuilt as plain callables, one sample per call."""

    @staticmethod
    def recording_build(ndims, keep_marks):
        """build_system with every map wrapped to record the ndim of its
        array arguments; the wrappers are batch maps only if asked, else
        the constructors loop them over the samples."""

        def build(cfg):
            system = build_system(cfg)
            names = ("map_fn",) if isinstance(system, DynSystem) else ("phi", "varphi", "ystar")
            fields = {}
            for name in names:
                fn = getattr(system, name)

                def wrapper(*args, fn=fn):
                    ndims.extend(np.ndim(a) for a in args if isinstance(a, np.ndarray))
                    return fn(*args)

                fields[name] = BatchMap(wrapper) if keep_marks else wrapper
            return dataclasses.replace(system, **fields)

        return build

    def assert_bytes_do_not_depend_on_batching(self, monkeypatch, doc, command, codes):
        from lyapcert.frontend import cli

        as_built, code = run_command(doc, command, timestamp=False)
        assert code in codes, as_built.get("error")
        texts = {}
        for keep_marks in (True, False):
            ndims = []
            monkeypatch.setattr(cli, "build_system", self.recording_build(ndims, keep_marks))
            report, _ = run_command(doc, command, timestamp=False)
            assert max(ndims) == (2 if keep_marks else 1)  # batches reach only the batch-map wrappers
            texts[keep_marks] = render_report(report)
        assert texts[True] == texts[False] == render_report(as_built)

    @pytest.mark.parametrize("command", ["timescales", "converse"])
    @pytest.mark.parametrize("source", ["slow_fast_golden.json", "generated x2/y2 pair"])
    def test_report_bytes_do_not_depend_on_batching(self, monkeypatch, source, command):
        if source.endswith(".json"):
            doc = json.loads((Path(__file__).parent.parent / "configs" / source).read_text())
        else:
            doc = generated_pair_doc()
        self.assert_bytes_do_not_depend_on_batching(monkeypatch, doc, command, (0,))

    @pytest.mark.parametrize("command", ["certify-local", "converse"])
    @pytest.mark.parametrize("kind", ["autonomous", "nonautonomous"])
    @pytest.mark.parametrize("term", ["quad", "tanh"])
    @pytest.mark.parametrize("shifted", [False, True], ids=["zero-eq", "nonzero-eq"])
    def test_local_report_bytes_do_not_depend_on_batching(
        self, monkeypatch, command, kind, term, shifted
    ):
        # the converse decrement check may fail on these maps; only errors are refused
        doc = local_map_doc(kind, term, shifted)
        self.assert_bytes_do_not_depend_on_batching(monkeypatch, doc, command, (0, 2))


class TestWrappedMaps:
    """A plain wrapper installed on a built system's maps after construction,
    as a tracing or counting wrapper is, forwards the library's batches: it
    cannot switch the program to one call per sample."""

    @staticmethod
    def install_counters(system, names, calls):
        for name in names:
            inner = getattr(system, name)

            def counted(*args, inner=inner, name=name):
                calls.append((name, max(np.ndim(a) for a in args if isinstance(a, np.ndarray))))
                return inner(*args)

            object.__setattr__(system, name, counted)

    @pytest.mark.parametrize("source", ["contraction_quadratic.json", "slow_fast_golden.json"])
    def test_simulate_makes_one_map_call_per_step(self, source):
        doc = json.loads((Path(__file__).parent.parent / "configs" / source).read_text())
        built = build_system(load_config(doc))
        names = ("map_fn",) if isinstance(built, DynSystem) else ("phi", "varphi")
        system = built if isinstance(built, DynSystem) else built.system()
        starts = np.linspace(-0.3, 0.4, 4 * system.dim).reshape(4, system.dim)
        want = simulate(system, 0, starts, 7)
        calls = []
        self.install_counters(built, names, calls)
        assert simulate(system, 0, starts, 7).tobytes() == want.tobytes()
        assert calls == [(name, 2) for _ in range(7) for name in names]
