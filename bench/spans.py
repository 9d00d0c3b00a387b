"""Span recorder for the traced benchmark run, applied to supgof from outside.

The recorder wraps every public supgof function at each module binding that
callers reach (``supgof.rates.h_inverse`` as well as ``supgof.special.h_inverse``),
the public methods of the public classes, and the ``Generator`` returned by
``rng_stream``, without changing any file under ``src/``.  Spans are kept in
memory as ``(name, layer, start, end, parent, run)`` and written out at the end.

This module imports nothing heavy at import time, so the traced CLI entry can
time the import of numpy and scipy as part of the program's own start-up.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time

LAYERS = ("special", "model", "rates", "maxtest", "divergence", "priors", "risk", "cli")
HARNESS = "harness"
IMPORT = "cli.import"
TIMED_RNG_METHODS = ("poisson", "binomial", "integers", "random")


class Recorder:
    """Spans in memory; a span's parent is the innermost span open when it began."""

    def __init__(self, run: int = 0):
        self.spans: list[dict] = []
        self.run = run
        self._stack: list[int] = []

    def begin(self, name: str, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            {"name": name, "layer": layer, "start": time.perf_counter_ns(), "end": 0,
             "parent": parent, "run": self.run, "counts": {}}
        )
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx]["end"] = time.perf_counter_ns()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def adopt(self, spans: list[dict], parent: int, run: int) -> None:
        """Graft spans recorded in another process under ``parent``.

        ``perf_counter_ns`` reads CLOCK_MONOTONIC on Linux, which is shared by
        all processes, so the child's timestamps nest inside the parent's span.
        """
        offset = len(self.spans)
        for s in spans:
            s = dict(s, run=run)
            s["parent"] = parent if s["parent"] < 0 else s["parent"] + offset
            self.spans.append(s)


def self_times_ns(spans: list[dict]) -> list[int]:
    """Span duration minus the part of it that its child spans cover."""
    out = [s["end"] - s["start"] for s in spans]
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    for idx, ivals in children.items():
        covered, cur_start, cur_end = 0, None, None
        for a, b in sorted(ivals):
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        covered += cur_end - cur_start
        out[idx] -= covered
    return out


def _size(value) -> int:
    import numpy as np

    return int(np.size(value))


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _dense_atoms(args, kwargs, result) -> dict:
    a, b = _arg(args, kwargs, 0, "p_dist"), _arg(args, kwargs, 1, "q_dist")
    return {"atoms": math.prod(max(x, y) for x, y in zip(a.shape, b.shape))}


def _sweep_counts(args, kwargs, result) -> dict:
    return {"points": len(result.risks), "trials": sum(r.trials for r in result.risks)}


def _draw_rows(args, kwargs, result) -> dict:
    return {"rows": result.shape[0] if getattr(result, "ndim", 1) == 2 else 1}


# Work counted at the function boundary, keyed by span name.
COUNTERS = {
    "special.h_inverse": lambda a, k, r: {"elements": _size(_arg(a, k, 0, "y"))},
    "model.read_counts_csv": lambda a, k, r: {"bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    "divergence.tv_distance": _dense_atoms,
    "risk.sweep_sharp_constant": _sweep_counts,
    "risk.sweep_multinomial_sharp_constant": _sweep_counts,
    "priors.draw_poisson_spike": _draw_rows,
    "priors.draw_multinomial_simplex_prior": _draw_rows,
    "priors.PoissonSpikePrior.draw": _draw_rows,
    "priors.MultinomialSimplexPrior.draw": _draw_rows,
}


def _wrap(fn, name: str, layer: str, rec: Recorder):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.begin(name, layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if count is not None:
            rec.spans[idx]["counts"] = count(args, kwargs, result)
        return result

    return traced


def _timed_generator_class():
    import numpy as np

    class TimedGenerator(np.random.Generator):
        """Same bit generator, so seeded streams are unchanged; times four methods."""

        def __init__(self, bit_generator, rec: Recorder):
            super().__init__(bit_generator)
            self._rec = rec

    def timed(method: str):
        base = getattr(np.random.Generator, method)
        name = f"model.{method}"

        def call(self, *args, **kwargs):
            idx = self._rec.begin(name, "model")
            try:
                out = base(self, *args, **kwargs)
            finally:
                self._rec.end(idx)
            self._rec.spans[idx]["counts"] = {"draws": int(np.size(out))}
            return out

        call.__name__ = method
        return call

    for method in TIMED_RNG_METHODS:
        setattr(TimedGenerator, method, timed(method))
    return TimedGenerator


def _public_names(mod) -> list[str]:
    if hasattr(mod, "__all__"):
        return list(mod.__all__)
    return [
        n for n, v in vars(mod).items()
        if not n.startswith("_") and inspect.isfunction(v) and v.__module__ == mod.__name__
    ]


class Tracer:
    """Patches supgof in place while active; ``with Tracer(rec):`` restores it on exit."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        mods = {layer: importlib.import_module(f"supgof.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}
        for layer, mod in mods.items():
            for attr in _public_names(mod):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = _wrap(obj, f"{layer}.{attr}", layer, self.rec)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(obj, f"{layer}.{attr}", layer)
        generator_cls = _timed_generator_class()
        rng_stream = mods["model"].rng_stream
        rec = self.rec

        @functools.wraps(rng_stream)
        def timed_rng_stream(*args, **kwargs):
            return generator_cls(rng_stream(*args, **kwargs).bit_generator, rec)

        wrapped[id(rng_stream)] = _wrap(timed_rng_stream, "model.rng_stream", "model", rec)
        # Rebind at every module that imported the function by name.
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and inspect.isfunction(value):
                    self._set(mod, attr, wrapped[id(value)])
        return self

    def _wrap_methods(self, cls, prefix: str, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(_wrap(raw.__func__, name, layer, self.rec)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, _wrap(raw, name, layer, self.rec))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()


PER_LAYER_UNITS = {
    "special.h_inverse.calls": "count",
    "special.h_inverse.elements": "count",
    "special.h_inverse.self_s": "s",
    "special.h_inverse.ns_per_element": "ns",
    "special.self_s": "s",
    "model.poisson.draws": "count",
    "model.poisson.s": "s",
    "model.poisson.ns_per_draw": "ns",
    "model.binomial.calls": "count",
    "model.binomial.draws": "count",
    "model.binomial.s": "s",
    "model.read_counts_csv.bytes": "bytes",
    "model.read_counts_csv.s": "s",
    "model.self_s": "s",
    "rates.calls": "count",
    "rates.self_s": "s",
    "maxtest.config.calls": "count",
    "maxtest.config.self_s": "s",
    "maxtest.decide.calls": "count",
    "maxtest.decide.s": "s",
    "maxtest.self_s": "s",
    "divergence.tv_spike.calls": "count",
    "divergence.tv_spike.s": "s",
    "divergence.dense.atoms": "count",
    "divergence.dense.s": "s",
    "divergence.certificate.calls": "count",
    "divergence.certificate.s": "s",
    "divergence.self_s": "s",
    "priors.calls": "count",
    "priors.self_s": "s",
    "priors.draw.rows": "count",
    "risk.points": "count",
    "risk.trials": "count",
    "risk.self_s": "s",
    "cli.import_s": "s",
    "cli.import.scipy_stats_s": "s",
    "cli.invocations": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.exit_nonzero": "count",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
}

_CONFIG = {"maxtest.PoissonTestConfig.from_null", "maxtest.MultinomialTestConfig.from_null"}
_CONFIG_SELF = _CONFIG | {"maxtest.PoissonTestConfig.from_eta", "maxtest.MultinomialTestConfig.from_eta"}
_DECIDE = {"maxtest.poisson_max_test", "maxtest.multinomial_combined_test"}
_DENSE = {"divergence.tv_distance"}
_DRAW_FUNCS = {"priors.draw_poisson_spike", "priors.draw_multinomial_simplex_prior"}
_DRAW_METHODS = {"priors.PoissonSpikePrior.draw", "priors.MultinomialSimplexPrior.draw"}


def layer_metrics(spans: list[dict], cli_stats: dict | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced job whose root span is ``spans[0]``.

    Every span's self time lands in exactly one bucket (a layer, the CLI
    import, or the harness), so the ``*.self_s`` values, ``cli.import_s`` and
    ``trace.unattributed_s`` add up to the root span's duration.
    ``trace.overhead_s`` needs the untraced wall time and is filled by the caller.
    """
    selfs = self_times_ns(spans)
    m = {k: 0.0 for k in PER_LAYER_UNITS}

    def add(key, value):
        m[key] += value

    for s, self_ns in zip(spans, selfs):
        name, layer, dur = s["name"], s["layer"], (s["end"] - s["start"]) / 1e9
        counts, self_s = s["counts"], self_ns / 1e9
        parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else ""
        if layer in LAYERS:
            add(f"{layer}.self_s", self_s)
        elif layer == IMPORT:
            add("cli.import_s", self_s)
        else:
            add("trace.unattributed_s", self_s)
        if name == "cli.import.scipy_stats":
            add("cli.import.scipy_stats_s", dur)
        elif name == "special.h_inverse":
            add("special.h_inverse.calls", 1)
            add("special.h_inverse.elements", counts["elements"])
            add("special.h_inverse.self_s", self_s)
        elif name == "model.poisson":
            add("model.poisson.draws", counts["draws"])
            add("model.poisson.s", dur)
        elif name == "model.binomial":
            add("model.binomial.calls", 1)
            add("model.binomial.draws", counts["draws"])
            add("model.binomial.s", dur)
        elif name == "model.read_counts_csv":
            add("model.read_counts_csv.bytes", counts["bytes"])
            add("model.read_counts_csv.s", dur)
        elif name in _DECIDE:
            add("maxtest.decide.calls", 1)
            add("maxtest.decide.s", dur)
        elif name == "divergence.tv_poisson_uniform_spike":
            add("divergence.tv_spike.calls", 1)
            add("divergence.tv_spike.s", dur)
        elif name in _DENSE:
            add("divergence.dense.atoms", counts["atoms"])
            add("divergence.dense.s", dur)
        elif name == "divergence.certified_spike_risk_bound":
            add("divergence.certificate.calls", 1)
            add("divergence.certificate.s", dur)
        elif name in _DRAW_FUNCS or (name in _DRAW_METHODS and parent not in _DRAW_FUNCS):
            add("priors.draw.rows", counts["rows"])
        elif "points" in counts:
            add("risk.points", counts["points"])
            add("risk.trials", counts["trials"])
        if name in _CONFIG:
            add("maxtest.config.calls", 1)
        if name in _CONFIG_SELF:
            add("maxtest.config.self_s", self_s)
        if layer == "rates":
            add("rates.calls", 1)
        elif layer == "priors":
            add("priors.calls", 1)
    if m["special.h_inverse.elements"]:
        m["special.h_inverse.ns_per_element"] = m["special.h_inverse.self_s"] / m["special.h_inverse.elements"] * 1e9
    if m["model.poisson.draws"]:
        m["model.poisson.ns_per_draw"] = m["model.poisson.s"] / m["model.poisson.draws"] * 1e9
    for key, value in (cli_stats or {}).items():
        m[key] = value
    return m


def accounting_gap_s(spans: list[dict], metrics: dict[str, float]) -> float:
    """Root duration minus (layer self times + import + unattributed); ~0 when consistent."""
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    total += metrics["cli.import_s"] + metrics["trace.unattributed_s"]
    return (spans[0]["end"] - spans[0]["start"]) / 1e9 - total
