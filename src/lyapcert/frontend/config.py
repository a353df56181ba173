"""Configuration documents: validation, expression binding, system building.

A config is a JSON object with keys kind, dims, map, params, epsilon,
analyses, seed.  Validation failures raise ConfigError carrying a JSON
pointer to the offending location.  ``build_system`` turns a validated
config into the matching dynamics object.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..dynsys import DynSystem, LinearTV, SlowFastSystem, linear_part, state_batched, time_batched
from ..errors import ConfigError, ParseError
from .expressions import compile_map, free_refs, parse_expression

__all__ = ["SystemConfig", "load_config", "build_system", "KINDS", "COMMANDS"]

KINDS = ("autonomous", "nonautonomous", "linear_tv", "slow_fast")
COMMANDS = ("simulate", "linear", "certify-local", "converse", "averaging", "timescales")
RESERVED_NAMES = {"t", "x", "y", "abs", "sin", "cos", "exp", "tanh", "sqrt", "min", "max"}


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
    analyses: List[dict]
    seed: int
    raw: dict = field(repr=False, default_factory=dict)


def _require(doc: dict, key: str, pointer: str = ""):
    if key not in doc:
        raise ConfigError(f"missing required key '{key}'", f"{pointer}/{key}")
    return doc[key]


def _as_positive_int(value, pointer: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(f"expected a positive integer, got {value!r}", pointer)
    return value


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
    dim_x = _as_positive_int(_require(dims, "x", "/dims"), "/dims/x")
    dim_y = None
    if kind == "slow_fast":
        dim_y = _as_positive_int(_require(dims, "y", "/dims"), "/dims/y")
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
        if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
            raise ConfigError("epsilon must be a number", "/epsilon")
        if not (0.0 < float(epsilon) <= 1.0):
            raise ConfigError("epsilon must lie in (0, 1]", "/epsilon")
        epsilon = float(epsilon)

    equilibrium = doc.get("equilibrium")
    if equilibrium is not None:
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
    for i, block in enumerate(analyses):
        if not isinstance(block, dict):
            raise ConfigError("analysis entry must be an object", f"/analyses/{i}")
        command = block.get("command")
        if command not in COMMANDS:
            raise ConfigError(
                f"command must be one of {COMMANDS}, got {command!r}",
                f"/analyses/{i}/command",
            )

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
        analyses=list(analyses),
        seed=seed,
        raw=doc,
    )


def build_system(cfg: SystemConfig):
    """Instantiate the dynamics object a config describes.

    autonomous / nonautonomous -> DynSystem; linear_tv -> LinearTV (each
    A(t) comes from ``dynsys.linear_part``, which refuses expressions that
    are not homogeneous linear in x); slow_fast -> SlowFastSystem.  The
    compiled maps are marked as taking batches of times and of samples.
    """
    fx = state_batched(time_batched(compile_map(cfg.map_x, cfg.params)))
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
        varphi=state_batched(lambda k, y, x: fvarphi(k, x, y)),
        ystar=state_batched(ystar),
        epsilon=cfg.epsilon if cfg.epsilon is not None else 1e-2,
    )
