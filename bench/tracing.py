"""Span tracing installed from outside the package.

Every public function of the nine layer modules (and the public methods of
``Mixture``) is wrapped, and each wrapper is rebound wherever the original is
looked up: in its own module, in every other spinmix module that imported
the name (``criticality.maximize_f``, ``montecarlo.substream``, ...) and in
the package namespace.  A wrapper records one span: name, start, end, parent
span and job id.  Spans are kept in flat arrays in memory and written out
when the run ends; the per-layer figures are derived from them afterwards.

Self time of a span is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from array import array
from pathlib import Path

import numpy as np

__all__ = ["LAYERS", "Tracer", "self_times", "install", "layer_metrics"]

LAYERS = ("mixture", "model", "landscape", "criticality", "montecarlo", "rng",
          "quadrature", "verify", "cli")

# the Mixture methods that do arithmetic; the rest are plumbing
_MIXTURE_METHODS = ("eval", "grad", "hessian", "degree2_matrix", "tilde_transform",
                    "eta_direction", "positive_off_origin")
# spans inside which the tracemalloc peak is recorded, and under which name
_ALLOC_SPANS = {
    "montecarlo.evaluate_H": "montecarlo.peak_alloc_mb",
    "montecarlo.evaluate_H_batch": "montecarlo.peak_alloc_mb",
    "quadrature.log_E_Z2_exact": "quadrature.peak_alloc_mb",
}
SETUP_JOB = -1


class Tracer:
    """In-memory span store: one row per span in parallel flat arrays."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack: list[int] = []
        self.job_id = SETUP_JOB
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._alloc_depth = 0
        self.quad_species = 0  # species of the quadrature call in progress

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(self.clock())
        return i

    def close(self, i: int) -> None:
        self.end[i] = self.clock()
        self.stack.pop()

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0.0) + value

    def alloc_begin(self) -> None:
        if self._alloc_depth == 0:
            tracemalloc.start()
        else:
            tracemalloc.reset_peak()
        self._alloc_depth += 1

    def alloc_end(self, metric: str) -> None:
        _, peak = tracemalloc.get_traced_memory()
        self.peaks[metric] = max(self.peaks.get(metric, 0.0), peak / 2**20)
        self._alloc_depth -= 1
        if self._alloc_depth == 0:
            tracemalloc.stop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "job": np.frombuffer(self.job, dtype=np.int32).copy(),
        }

    def write(self, path: Path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
    return dur - covered


# ----------------------------------------------------------------------
# wrappers


def _hooks(tracer: Tracer, name: str):
    """(before(args, kwargs), after(args, kwargs, result)) for spans that
    record a count or an allocation peak; None where there is none."""
    before = after = None
    if name == "landscape.maximize_f":
        def after(args, kwargs, res):
            tracer.add("landscape.fun_evals", res.fun_evals)
            tracer.add("landscape.uncertified", not res.grid_certified)
            tracer.add("landscape.unconverged", not res.converged)
    elif name == "montecarlo.evaluate_H_batch":
        def before(args, kwargs):
            sigmas = args[1] if len(args) > 1 else kwargs["sigmas"]
            tracer.add("montecarlo.contract_rows", len(sigmas))
    elif name == "montecarlo.evaluate_H":
        def before(args, kwargs):
            tracer.add("montecarlo.contract_rows", 1)
    elif name == "quadrature.log_E_Z2_exact":
        def before(args, kwargs):
            tracer.quad_species = args[0].model.n_species
    elif name == "quadrature.roots_legendre":
        def before(args, kwargs):
            key = f"quadrature.max_nodes_s{tracer.quad_species}"
            tracer.peaks[key] = max(tracer.peaks.get(key, 0), int(args[0]))
    return before, after


def _wrap(tracer: Tracer, name: str, fn):
    before, after = _hooks(tracer, name)
    alloc = _ALLOC_SPANS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        if alloc is not None:
            tracer.alloc_begin()
        i = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
            if alloc is not None:
                tracer.alloc_end(alloc)
        if after is not None:
            after(args, kwargs, result)
        return result

    return traced


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield attr, obj


def install(tracer: Tracer, spinmix) -> list[tuple[object, str, object]]:
    """Wrap every public layer function and rebind it where it is looked up.

    Returns the (namespace, attribute, original) triples needed to undo it.
    """
    from importlib import import_module

    modules = {layer: import_module(f"{spinmix.__name__}.{layer}") for layer in LAYERS}
    namespaces = [spinmix, *modules.values()]
    wrapped: dict[int, object] = {}
    for layer, module in modules.items():
        for attr, fn in _public_functions(module):
            wrapped[id(fn)] = _wrap(tracer, f"{layer}.{attr}", fn)
    # the quadrature node count is read from the Gauss-Legendre call it makes
    quad = modules["quadrature"]
    wrapped[id(quad.roots_legendre)] = _wrap(tracer, "quadrature.roots_legendre",
                                             quad.roots_legendre)
    undo = []
    for ns in namespaces:
        for attr, obj in list(vars(ns).items()):
            new = wrapped.get(id(obj))
            if new is not None:
                undo.append((ns, attr, obj))
                setattr(ns, attr, new)
    mixture_cls = modules["mixture"].Mixture
    for meth in _MIXTURE_METHODS:
        original = mixture_cls.__dict__[meth]
        undo.append((mixture_cls, meth, original))
        setattr(mixture_cls, meth, _wrap(tracer, f"mixture.{meth}", original))
    return undo


def uninstall(undo) -> None:
    for ns, attr, original in reversed(undo):
        setattr(ns, attr, original)


# ----------------------------------------------------------------------
# per-layer figures


def _ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def layer_metrics(tracer: Tracer, *, jobs: set[int], passes: int = 1) -> dict[str, float]:
    """Per-layer self times, counts and ratios over the spans of ``jobs``
    (and ``model.load_s`` over the set-up spans).  Times and counts are per
    pass: ``jobs`` holds the jobs of ``passes`` passes of one job list."""
    a = tracer.arrays()
    span_names = np.array(tracer.names, dtype=object)[a["name_id"]]
    own = self_times(a["start"], a["end"], a["parent"])
    dur = a["end"] - a["start"]
    in_jobs = np.isin(a["job"], sorted(jobs))
    layer_of = np.array([n.split(".", 1)[0] for n in span_names], dtype=object)

    def total(values, mask):
        return float(values[mask & in_jobs].sum()) / passes

    def count(mask):
        return np.count_nonzero(mask & in_jobs) / passes

    def named(*ns):
        return np.isin(span_names, ns)

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = total(own, layer_of == layer)
    m["bench.self_s"] = total(own, layer_of == "bench")

    verdicts = np.flatnonzero(named("criticality.verdict") & in_jobs)
    maxes = np.flatnonzero(named("landscape.maximize_f") & in_jobs)
    verdict_set = set(verdicts.tolist())
    inside = 0
    for i in maxes:
        p = a["parent"][i]
        while p >= 0 and p not in verdict_set:
            p = a["parent"][p]
        inside += p >= 0
    m["criticality.reports"] = len(verdicts) / passes
    m["criticality.maximize_per_report"] = _ratio(inside, len(verdicts))

    calls = len(maxes)
    m["landscape.maximize_calls"] = calls / passes
    m["landscape.maximize_self_s"] = total(own, named("landscape.maximize_f"))
    c = tracer.counts
    m["landscape.fun_evals"] = c.get("landscape.fun_evals", 0.0) / passes
    m["landscape.uncertified_ratio"] = _ratio(c.get("landscape.uncertified", 0.0), calls)
    m["landscape.unconverged_ratio"] = _ratio(c.get("landscape.unconverged", 0.0), calls)

    m["mixture.calls"] = count(named("mixture.eval", "mixture.grad", "mixture.hessian"))
    sample = named("montecarlo.sample_uniform", "montecarlo.sample_on_band")
    m["montecarlo.sample_calls"] = count(sample)
    m["montecarlo.sample_self_s"] = total(own, sample)
    m["rng.generators"] = count(named("rng.stream", "rng.substream"))
    contract = named("montecarlo.evaluate_H", "montecarlo.evaluate_H_batch")
    m["montecarlo.contract_rows"] = c.get("montecarlo.contract_rows", 0.0) / passes
    m["montecarlo.contract_self_s"] = total(own, contract)
    m["montecarlo.peak_alloc_mb"] = tracer.peaks.get("montecarlo.peak_alloc_mb", 0.0)
    disorder = named("montecarlo.sample_disorder")
    m["montecarlo.disorder_draws"] = count(disorder)
    m["montecarlo.disorder_s"] = total(dur, disorder)
    m["montecarlo.estimator_self_s"] = total(own, named(
        "montecarlo.estimate_free_energy", "montecarlo.estimate_level_set",
        "montecarlo.estimate_band_free_energy"))
    m["quadrature.calls"] = count(named("quadrature.log_E_Z2_exact"))
    m["quadrature.max_nodes_s3"] = tracer.peaks.get("quadrature.max_nodes_s3", 0)
    m["quadrature.peak_alloc_mb"] = tracer.peaks.get("quadrature.peak_alloc_mb", 0.0)
    m["cli.calls"] = count(named("cli.main"))
    setup = a["job"] == SETUP_JOB
    m["model.load_s"] = float(dur[setup & (layer_of == "model") & (a["parent"] < 0)].sum())
    m["trace.spans"] = count(np.ones(len(dur), dtype=bool))
    return m
