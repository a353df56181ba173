"""Spans and counts at lyapcert's public-function boundaries.

``Tracer.install`` replaces every public function of every lyapcert module
at each of its binding sites (the defining module and every lyapcert
module that imported it by name) with a wrapper that records a span:
name, start, end, parent and job id.  ``Tracer.remove`` puts the
originals back, so untraced passes run the unmodified program.

A span's self time is its duration minus the time its child spans cover.
Inside the ``expressions``, ``report`` and ``rng`` layers only the call
that enters the layer opens a span (``evaluate`` and ``jsonable`` recurse
through their own module globals); those spans are aggregated and not
logged, which keeps memory flat.

Counts are taken at the same boundaries: calls per span name, calls to the
map callables ``build_system`` returns (attributed to every open span as
``map_calls``), ``samples_checked`` of returned condition reports, 64-bit
draws of ``Rng``, ``phibar`` calls and memo hits, Stein series terms, the
bytes of the Kronecker system (8*n^4, computed, not measured) and the
bytes of rendered reports.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("expressions", "config", "report", "cli", "averaging", "certcheck", "converse",
          "dynsys", "linearize", "rng", "stein", "timescales")
BOUNDARY_ONLY = ("expressions", "report", "rng")
# methods of public classes whose calls carry per-job work worth a span
METHODS = {"SlowFastSystem": ("shifted_fast",), "TvLyapunov": ("__call__",),
           "Rng": ("u64", "uniform", "normal", "integer", "vector", "sphere", "ball", "matrix", "spawn")}


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def _samples(result) -> int:
    if hasattr(result, "samples_checked"):
        return int(result.samples_checked)
    if isinstance(result, (list, tuple)):
        return sum(int(r.samples_checked) for r in result if hasattr(r, "samples_checked"))
    return 0


class Tracer:
    def __init__(self):
        self.job = -1
        self.names: list = []
        self._ids: dict = {}
        self._patches: list = []
        self.reset()

    def reset(self):
        """Forget every span and count (keeps the installed wrappers)."""
        self.stack: list = []
        self.next_span = 0
        self.log = {k: array("q") for k in ("id", "name", "parent", "job")}
        self.log.update(start=array("d"), end=array("d"))
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.map_calls = Counter()
        self.samples = Counter()
        self.errors = Counter()
        self.counts = Counter()

    # ---------------------------------------------------------------- spans
    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _close(self, frame, failed: bool):
        nid, layer, start, child, maps_at_entry, span = frame
        end = perf_counter()
        self.stack.pop()
        duration = end - start
        self.self_s[nid] += duration - child
        self.calls[nid] += 1
        self.map_calls[nid] += self.counts["map"] - maps_at_entry
        if self.stack:
            self.stack[-1][3] += duration
        if failed and (not self.stack or self.stack[-1][1] != layer):
            self.errors[layer] += 1
        if layer not in BOUNDARY_ONLY:
            log = self.log
            log["id"].append(span)
            log["name"].append(nid)
            log["parent"].append(self.stack[-1][5] if self.stack else -1)
            log["job"].append(self.job)
            log["start"].append(start)
            log["end"].append(end)

    def _wrap(self, fn, name: str, layer: str, after=None, home=None):
        """Span wrapper; ``home`` is the defining module of a module-level function.

        Inside its own span a boundary-only function runs with its home
        binding restored, so recursion (``evaluate``, ``jsonable``) pays no
        wrapper.
        """
        nid = self._id(name)
        boundary_only = layer in BOUNDARY_ONLY
        home = home if boundary_only else None
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and (stack[-1][0] == nid or (boundary_only and stack[-1][1] == layer)):
                return fn(*args, **kwargs)
            frame = [nid, layer, perf_counter(), 0.0, tracer.counts["map"], tracer.next_span]
            tracer.next_span += 1
            stack.append(frame)
            if home is not None:
                setattr(home, fn.__name__, fn)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(frame, True)
                raise
            finally:
                if home is not None:
                    setattr(home, fn.__name__, traced)
            tracer._close(frame, False)
            n = _samples(result)
            if n:
                tracer.samples[nid] += n
            if after is not None:
                result = after(result, args, kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---------------------------------------------------- per-function hooks
    def _count_map(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts["map"] += 1
            return fn(*args, **kwargs)

        return counted

    def _after_build_system(self, system, args, kwargs):
        for f in dataclasses.fields(system) if dataclasses.is_dataclass(system) else ():
            value = getattr(system, f.name)
            if callable(value):
                object.__setattr__(system, f.name, self._count_map(value))
        return system

    def _after_estimate_average(self, avg, args, kwargs):
        inner = avg.phibar
        probes = args[1] if len(args) > 1 else kwargs["probes"]
        seen = {np.asarray(p, dtype=float).tobytes() for p in probes}  # estimate_average evaluated these
        counts = self.counts

        def phibar(x):
            key = np.asarray(x, dtype=float).tobytes()
            counts["phibar.calls"] += 1
            counts["phibar.hits"] += key in seen
            seen.add(key)
            return inner(x)

        return dataclasses.replace(avg, phibar=phibar)

    def _after_kron(self, solution, args, kwargs):
        A = args[0] if args else kwargs["A"]
        self.counts["kron.bytes"] += 8 * np.asarray(A).shape[0] ** 4
        return solution

    def _after_series(self, solution, args, kwargs):
        self.counts["series.terms"] += int(solution.terms or 0)
        return solution

    def _after_render(self, text, args, kwargs):
        self.counts["report.bytes"] += len(text.encode("utf-8"))
        return text

    def _count_draw(self, fn):
        counts = self.counts

        def at(*args, **kwargs):
            counts["rng.draws"] += 1
            return fn(*args, **kwargs)

        return at

    # ------------------------------------------------------------- install
    def install(self):
        import lyapcert

        modules = [lyapcert] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(lyapcert.__path__, "lyapcert.")
        ]
        hooks = {
            "config.build_system": self._after_build_system,
            "averaging.estimate_average": self._after_estimate_average,
            "stein.solve_stein_kron": self._after_kron,
            "stein.solve_stein_series": self._after_series,
            "report.render_report": self._after_render,
        }
        wrappers = {}
        for module in modules:
            for attr, value in vars(module).items():
                if not (inspect.isfunction(value) or inspect.isclass(value)):
                    continue
                if attr.startswith("_") or value in wrappers or not value.__module__.startswith("lyapcert"):
                    continue
                layer = _layer(value.__module__)
                if inspect.isfunction(value):
                    name = f"{layer}.{value.__name__}"
                    home = sys.modules[value.__module__]
                    wrappers[value] = self._wrap(value, name, layer, hooks.get(name), home)
                elif inspect.isclass(value) and value.__name__ in METHODS:
                    wrappers[value] = None
                    for method in METHODS[value.__name__]:
                        if method in vars(value):
                            original = vars(value)[method]
                            wrapped = self._wrap(original, f"{layer}.{value.__name__}.{method}", layer)
                            self._patch(value, method, original, wrapped)
                    if "at" in vars(value):
                        self._patch(value, "at", vars(value)["at"], self._count_draw(vars(value)["at"]))
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = wrappers.get(value) if inspect.isfunction(value) else None
                if wrapped is not None:
                    self._patch(module, attr, value, wrapped)

    def _patch(self, owner, attr, original, replacement):
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- results
    def _sum(self, table, match):
        return sum(v for nid, v in table.items() if match(self.names[nid]))

    def metrics(self) -> dict:
        """Per-layer numbers of everything recorded since the last reset."""

        def exact(name):
            return lambda n: n == name

        groups = {
            "expressions.evaluate": exact("expressions.evaluate"),
            "config.build_system": exact("config.build_system"),
            "config.load_config": exact("config.load_config"),
            "averaging.estimate_average": exact("averaging.estimate_average"),
            "averaging.estimate_sigma": exact("averaging.estimate_sigma"),
            "averaging.check_drift_remainder": exact("averaging.check_drift_remainder"),
            "averaging.build_averaged_lyapunov": exact("averaging.build_averaged_lyapunov"),
            "converse.build": lambda n: n.startswith("converse.build_"),
            "converse.estimate_lipschitz": exact("converse.estimate_lipschitz"),
            "converse.verify_converse": exact("converse.verify_converse"),
            "timescales.certify_semiglobal": exact("timescales.certify_semiglobal"),
            "timescales.verify_composite": exact("timescales.verify_composite"),
            "timescales.validate_rate": exact("timescales.validate_rate"),
            "dynsys.simulate": exact("dynsys.simulate"),
            "dynsys.shifted_fast": exact("dynsys.SlowFastSystem.shifted_fast"),
            "dynsys.fit_exponential_envelope": exact("dynsys.fit_exponential_envelope"),
            "stein.classify_linear": exact("stein.classify_linear"),
            "stein.instability_certificate": exact("stein.instability_certificate"),
            "stein.tv_lyapunov": lambda n: n in ("stein.solve_tv_lyapunov", "stein.TvLyapunov.__call__"),
            "stein.solve_stein_kron": exact("stein.solve_stein_kron"),
            "stein.solve_stein_series": exact("stein.solve_stein_series"),
            "linearize.numerical_jacobian": exact("linearize.numerical_jacobian"),
            "linearize.certify_local": lambda n: n.startswith("linearize.certify_local_"),
            "linearize.validate_basin": exact("linearize.validate_basin"),
            "certcheck.check": lambda n: n.startswith("certcheck.check_"),
            "rng": lambda n: n.startswith("rng."),
            "report": lambda n: n.startswith("report."),
            "cli.run_command": exact("cli.run_command"),
        }
        out = {}
        for key, match in groups.items():
            out[f"{key}.self_s"] = float(self._sum(self.self_s, match))
            out[f"{key}.calls"] = self._sum(self.calls, match)
            out[f"{key}.map_calls"] = self._sum(self.map_calls, match)
            out[f"{key}.samples"] = self._sum(self.samples, match)
        counts = self.counts
        out["config.map.calls"] = counts["map"]
        out["averaging.phibar.calls"] = counts["phibar.calls"]
        out["averaging.phibar.hit_ratio"] = counts["phibar.hits"] / max(counts["phibar.calls"], 1)
        out["stein.solve_stein_kron.bytes_computed"] = counts["kron.bytes"]
        out["stein.solve_stein_series.terms"] = counts["series.terms"]
        out["report.bytes"] = counts["report.bytes"]
        out["rng.draws"] = counts["rng.draws"]
        for layer in LAYERS:
            out[f"{layer}.errors"] = self.errors[layer]
        return out

    def spans(self) -> dict:
        """The span log as columns, with span names resolved."""
        return {"names": list(self.names), **{k: v.tolist() for k, v in self.log.items()}}
