"""Report documents: canonical JSON, config digests, check summaries.

Reports are deterministic given a config and seed: keys are sorted,
floats are plain Python floats, and the timestamp is optional so two
runs can be compared byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import sys
import time
from typing import Optional, Sequence

import numpy as np

from .. import __version__
from ..certcheck import ConditionReport

__all__ = [
    "TOOL_VERSION",
    "canonical_json",
    "config_digest",
    "jsonable",
    "checks_from_reports",
    "build_report",
    "render_report",
    "write_report",
]

TOOL_VERSION = __version__


def canonical_json(doc) -> str:
    """Key-sorted, whitespace-free serialization used for hashing.

    A NaN or infinite number, which ``load_config`` refuses, is written as
    its ``NaN``/``Infinity`` literal, so the error report for such a
    document still carries a digest.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def config_digest(doc: dict) -> str:
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def _finite(value: float):
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return float(value)


def jsonable(obj):
    """Best-effort conversion of analysis objects to JSON-compatible trees.

    Callables are elided (certificates carry evaluator closures), complex
    numbers become {re, im} pairs, and non-finite floats become strings.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return _finite(obj)
    if isinstance(obj, (np.floating,)):
        return _finite(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _finite(float(obj.real)), "im": _finite(float(obj.imag))}
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if callable(value) and not isinstance(value, type):
                continue
            out[f.name] = jsonable(value)
        return out
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [jsonable(v) for v in obj]
    if callable(obj):
        return None
    return repr(obj)


def checks_from_reports(reports: Sequence[ConditionReport]) -> list:
    """Map condition reports onto the report schema's check entries."""
    checks = []
    for rep in reports:
        worst = None
        if rep.worst_point is not None:
            t, x = rep.worst_point
            worst = {"t": int(t), "x": [float(v) for v in np.atleast_1d(x)]}
        checks.append(
            {
                "name": rep.condition,
                "passed": bool(rep.passed),
                "margin": _finite(float(rep.worst_margin)),
                "worst_point": worst,
            }
        )
    return checks


def build_report(
    command: str,
    config_doc,
    results: list,
    checks: list,
    status: str,
    timestamp: bool = True,
    error: Optional[dict] = None,
) -> dict:
    """The report document; ``config_doc`` may be the raw bytes of a config
    that did not parse, whose digest is then the sha256 of those bytes.  A
    dict with no JSON text (``load_config`` refuses it) has digest None."""
    if isinstance(config_doc, bytes):
        digest = hashlib.sha256(config_doc).hexdigest()
    else:
        try:
            digest = config_digest(config_doc)
        except (TypeError, ValueError):
            digest = None
    report = {
        "tool_version": TOOL_VERSION,
        "config_digest": digest,
        "command": command,
        "results": results,
        "checks": checks,
        "status": status,
    }
    if error is not None:
        report["error"] = error
    if timestamp:
        report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return report


def render_report(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_report(report: dict, out: Optional[str] = None) -> str:
    text = render_report(report)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return text
