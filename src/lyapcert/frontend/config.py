"""Configuration documents: validation, expression binding, system building.

A config is a JSON object with keys kind, dims, map, params, epsilon,
analyses, seed.  Validation failures raise ConfigError carrying a JSON
pointer to the offending location.  ``OPTIONS`` names each command's
options; ``load_config`` checks every ``analyses`` block against it and
fills in the defaults.  ``build_system`` turns a validated config into the
matching dynamics object.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..dynsys import BatchMap, DynSystem, LinearTV, SlowFastSystem, linear_part
from ..errors import ConfigError, ParseError
from .expressions import compile_map, free_refs, parse_expression

__all__ = ["SystemConfig", "load_config", "build_system", "KINDS", "COMMANDS", "OPTIONS"]

KINDS = ("autonomous", "nonautonomous", "linear_tv", "slow_fast")
RESERVED_NAMES = {"t", "x", "y", "abs", "sin", "cos", "exp", "tanh", "sqrt", "min", "max"}

REQUIRED = None  # the default of an option that a block must set

# command -> option -> (type, bound, default).  A "count" is a JSON integer
# at least its bound, "counts" a nonempty list of them, a "number" an int or
# float above its bound, and a "state" a list of numbers, one per state.
# A bool is never a count or a number.
OPTIONS: Dict[str, Dict[str, tuple]] = {
    "simulate": {"x0": ("state", None, REQUIRED), "horizon": ("count", 0, 50)},
    "linear": {},
    "certify-local": {"domain_radius": ("number", 0, 1.0), "trials": ("count", 1, 100)},
    "converse": {
        "radius": ("number", 0, 1.0),
        "horizon": ("count", 1, 24),
        "n_check": ("count", 1, 200),
    },
    "averaging": {
        "radius": ("number", 0, 1.0),
        "n_probes": ("count", 0, 8),
        "T_list": ("counts", 1, (1, 2, 4, 8, 16, 32, 64)),
        "delta": ("number", 0, 0.5),
        "drift_samples": ("count", 1, 100),
    },
    "timescales": {
        "r": ("number", 0, 1.0),
        "n_samples": ("count", 1, 300),
        "trials": ("count", 1, 20),
        "horizon": ("count", 1, 200),
    },
}
COMMANDS = tuple(OPTIONS)


@dataclass(frozen=True)
class SystemConfig:
    kind: str
    dim_x: int
    dim_y: Optional[int]
    map_x: List[object]
    map_y: List[object]
    map_ystar: List[object]
    params: dict
    epsilon: Optional[float]
    equilibrium: Optional[List[float]]
    seed: int
    options: Dict[str, dict]
    raw: dict = field(repr=False, default_factory=dict)

    def options_of(self, command: str) -> dict:
        """Typed options of ``command``, defaults filled in: from its
        analyses block, else every default.  Refused when the command has
        no block and an option without a default."""
        if command not in self.options:
            required = [k for k, (_, _, d) in OPTIONS[command].items() if d is REQUIRED]
            raise ConfigError(f"{command} needs an analyses block that sets {required}", "/analyses")
        return self.options[command]


def _require(doc: dict, key: str, pointer: str = ""):
    if key not in doc:
        raise ConfigError(f"missing required key '{key}'", f"{pointer}/{key}")
    return doc[key]


def _typed(kind: str, bound, value, pointer: str):
    """``value`` checked against an ``OPTIONS`` entry (a state's bound is
    its length); numbers become floats."""
    if kind == "count":
        if not isinstance(value, int) or isinstance(value, bool) or value < bound:
            raise ConfigError(f"expected an integer >= {bound}, got {value!r}", pointer)
        return value
    if kind == "number":
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not value > bound:
            raise ConfigError(f"expected a number > {bound}, got {value!r}", pointer)
        return float(value)
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"expected a nonempty list, got {value!r}", pointer)
    if kind == "counts":
        return [_typed("count", bound, v, f"{pointer}/{i}") for i, v in enumerate(value)]
    # state
    if len(value) != bound:
        raise ConfigError(f"expected {bound} numbers, one per state, got {len(value)}", pointer)
    return [_typed("number", -math.inf, v, f"{pointer}/{i}") for i, v in enumerate(value)]


def _command_options(command: str, block: dict, pointer: str, state_dim: int) -> dict:
    """The options of one analyses block, checked against ``OPTIONS``,
    with the defaults filled in."""
    table = OPTIONS[command]
    for key in block:
        if key != "command" and key not in table:
            raise ConfigError(f"unknown option {key!r} for {command}", f"{pointer}/{key}")
    out = {}
    for key, (kind, bound, default) in table.items():
        if default is REQUIRED:
            _require(block, key, pointer)
        if kind == "state":
            bound = state_dim
        out[key] = _typed(kind, bound, block.get(key, default), f"{pointer}/{key}")
    return out


def _parse_exprs(entries, pointer: str, expected: int) -> List[object]:
    if not isinstance(entries, list):
        raise ConfigError("expected a list of expression strings", pointer)
    if len(entries) != expected:
        raise ConfigError(
            f"expected {expected} expression(s), got {len(entries)}", pointer
        )
    out = []
    for i, src in enumerate(entries):
        if not isinstance(src, str):
            raise ConfigError("expression must be a string", f"{pointer}/{i}")
        try:
            out.append(parse_expression(src))
        except ParseError as exc:
            raise ConfigError(f"parse error: {exc}", f"{pointer}/{i}") from exc
    return out


def _check_refs(
    node,
    pointer: str,
    dim_x: int,
    dim_y: Optional[int],
    params: dict,
    allow_y: bool,
):
    for name, index in free_refs(node):
        if index is None:
            if name not in params:
                raise ConfigError(f"unknown parameter '{name}'", pointer)
        elif name == "x":
            if not (0 <= index < dim_x):
                raise ConfigError(
                    f"state index x[{index}] out of range for dimension {dim_x}", pointer
                )
        elif name == "y":
            if not allow_y:
                raise ConfigError("fast-state reference y[...] not allowed here", pointer)
            if dim_y is None or not (0 <= index < dim_y):
                raise ConfigError(
                    f"state index y[{index}] out of range for dimension {dim_y}", pointer
                )
        else:
            raise ConfigError(f"unknown state vector '{name}'", pointer)


def _check_json_data(node, pointer: str) -> None:
    """Refuse the first value in the tree that is not finite JSON data,
    naming its JSON pointer: a NaN or infinite number (``json.loads`` reads
    the NaN and Infinity literals), a non-string key, or a value with no
    JSON text, such as an array or a set in a dict document."""
    if isinstance(node, dict):
        for key, value in node.items():
            if not isinstance(key, str):
                raise ConfigError(f"key {key!r} is not a string", pointer)
            escaped = key.replace("~", "~0").replace("/", "~1")
            _check_json_data(value, f"{pointer}/{escaped}")
    elif isinstance(node, (list, tuple)):
        for i, value in enumerate(node):
            _check_json_data(value, f"{pointer}/{i}")
    elif isinstance(node, float):
        if not math.isfinite(node):
            raise ConfigError(f"non-finite number {node!r}", pointer)
    elif not (node is None or isinstance(node, (str, int))):
        raise ConfigError(f"{type(node).__name__} value is not JSON data", pointer)


def load_config(source) -> SystemConfig:
    """Validate a config document (dict, JSON text, or file path).

    A NaN or infinite number anywhere in it is refused, and so is a value
    of a dict document that is not JSON data.
    """
    if isinstance(source, dict):
        doc = source
    else:
        text = str(source)
        if not text.lstrip().startswith("{") and os.path.exists(text):
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc.msg}", "") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object", "")
    _check_json_data(doc, "")

    kind = _require(doc, "kind")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}", "/kind")

    dims = _require(doc, "dims")
    if not isinstance(dims, dict):
        raise ConfigError("dims must be an object", "/dims")
    dim_x = _typed("count", 1, _require(dims, "x", "/dims"), "/dims/x")
    dim_y = None
    if kind == "slow_fast":
        dim_y = _typed("count", 1, _require(dims, "y", "/dims"), "/dims/y")
    elif "y" in dims:
        raise ConfigError("dims.y is only meaningful for slow_fast systems", "/dims/y")

    params = doc.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("params must be an object", "/params")
    for name, value in params.items():
        if not isinstance(name, str) or not name.isidentifier() or name in RESERVED_NAMES:
            raise ConfigError(f"invalid parameter name {name!r}", f"/params/{name}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError("parameter must be a number", f"/params/{name}")

    mapping = _require(doc, "map")
    if not isinstance(mapping, dict):
        raise ConfigError("map must be an object", "/map")
    map_x = _parse_exprs(_require(mapping, "x", "/map"), "/map/x", dim_x)
    map_y: List[object] = []
    map_ystar: List[object] = []
    if kind == "slow_fast":
        map_y = _parse_exprs(_require(mapping, "y", "/map"), "/map/y", dim_y)
        if "ystar" in mapping:
            map_ystar = _parse_exprs(mapping["ystar"], "/map/ystar", dim_y)
    elif "y" in mapping or "ystar" in mapping:
        raise ConfigError("map.y / map.ystar require kind slow_fast", "/map")

    allow_y = kind == "slow_fast"
    for i, node in enumerate(map_x):
        _check_refs(node, f"/map/x/{i}", dim_x, dim_y, params, allow_y)
    for i, node in enumerate(map_y):
        _check_refs(node, f"/map/y/{i}", dim_x, dim_y, params, True)
    for i, node in enumerate(map_ystar):
        _check_refs(node, f"/map/ystar/{i}", dim_x, dim_y, params, False)

    epsilon = doc.get("epsilon")
    if epsilon is not None:
        if kind != "slow_fast":
            raise ConfigError("epsilon is only meaningful for slow_fast systems", "/epsilon")
        if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
            raise ConfigError("epsilon must be a number", "/epsilon")
        if not (0.0 < float(epsilon) <= 1.0):
            raise ConfigError("epsilon must lie in (0, 1]", "/epsilon")
        epsilon = float(epsilon)

    equilibrium = doc.get("equilibrium")
    if equilibrium is not None:
        if kind not in ("autonomous", "nonautonomous"):
            msg = "equilibrium is only meaningful for autonomous and nonautonomous systems"
            raise ConfigError(msg, "/equilibrium")
        if not isinstance(equilibrium, list) or len(equilibrium) != dim_x:
            raise ConfigError(
                f"equilibrium must be a list of {dim_x} numbers", "/equilibrium"
            )
        for i, v in enumerate(equilibrium):
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ConfigError("equilibrium entries must be numbers", f"/equilibrium/{i}")
        equilibrium = [float(v) for v in equilibrium]

    analyses = _require(doc, "analyses")
    if not isinstance(analyses, list) or not analyses:
        raise ConfigError("analyses must be a nonempty list", "/analyses")
    state_dim = dim_x + (dim_y or 0)
    options = {}
    for i, block in enumerate(analyses):
        if not isinstance(block, dict):
            raise ConfigError("analysis entry must be an object", f"/analyses/{i}")
        command = block.get("command")
        if command not in COMMANDS:
            raise ConfigError(
                f"command must be one of {COMMANDS}, got {command!r}",
                f"/analyses/{i}/command",
            )
        if command in options:
            raise ConfigError(f"second analyses block for {command}", f"/analyses/{i}/command")
        options[command] = _command_options(command, block, f"/analyses/{i}", state_dim)
    for command, table in OPTIONS.items():
        if command not in options and all(d is not REQUIRED for _, _, d in table.values()):
            options[command] = _command_options(command, {}, "", state_dim)

    seed = _require(doc, "seed")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError("seed must be a nonnegative integer", "/seed")

    return SystemConfig(
        kind=kind,
        dim_x=dim_x,
        dim_y=dim_y,
        map_x=map_x,
        map_y=map_y,
        map_ystar=map_ystar,
        params=dict(params),
        epsilon=epsilon,
        equilibrium=equilibrium,
        seed=seed,
        options=options,
        raw=doc,
    )


def build_system(cfg: SystemConfig):
    """Instantiate the dynamics object a config describes.

    autonomous / nonautonomous -> DynSystem; linear_tv -> LinearTV (each
    A(t) comes from ``dynsys.linear_part``, which refuses expressions that
    are not homogeneous linear in x); slow_fast -> SlowFastSystem.  The
    compiled maps take batches of samples, so they enter the systems as
    ``dynsys.BatchMap``s, which the constructors keep as they are.
    """
    fx = BatchMap(compile_map(cfg.map_x, cfg.params))
    if cfg.kind in ("autonomous", "nonautonomous"):
        eq = None if cfg.equilibrium is None else np.array(cfg.equilibrium)
        return DynSystem(
            dim=cfg.dim_x,
            map_fn=fx,
            autonomous=cfg.kind == "autonomous",
            equilibrium=eq,
        )
    if cfg.kind == "linear_tv":
        return LinearTV(cfg.dim_x, lambda t: linear_part(fx, t, cfg.dim_x))
    # slow_fast
    fvarphi = compile_map(cfg.map_y, cfg.params)
    if cfg.map_ystar:
        fystar = compile_map(cfg.map_ystar, cfg.params)

        def ystar(x: np.ndarray) -> np.ndarray:
            return fystar(0, x)

    else:
        def ystar(x: np.ndarray) -> np.ndarray:
            return np.zeros(np.shape(x)[:-1] + (cfg.dim_y,))

    return SlowFastSystem(
        dim_x=cfg.dim_x,
        dim_y=cfg.dim_y,
        phi=fx,
        varphi=BatchMap(lambda k, y, x: fvarphi(k, x, y)),
        ystar=BatchMap(ystar),
        epsilon=cfg.epsilon if cfg.epsilon is not None else 1e-2,
    )
