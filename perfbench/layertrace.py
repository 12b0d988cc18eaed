"""Span recorder for the traced run.

Wraps bosonpe's public layer functions at every place the package binds
them (including names bound by ``from .x import y``), the ``numpy.linalg``
eigensolvers and ``scipy.optimize.minimize`` as the package sees them.
Spans and counts are recorded only while an operation of the benchmark is
running, so the benchmark's own checks are never counted.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

# (module, attribute or Class.method, span name)
FUNCTIONS = (
    ("bosonpe.fock", "BlockDiagonalState.__init__", "fock.state_init"),
    ("bosonpe.fock", "project_local_number", "fock.project_local_number"),
    ("bosonpe.fock", "tensor_compose", "fock.tensor_compose"),
    ("bosonpe.optics", "lift_unitary", "optics.lift_unitary"),
    ("bosonpe.optics", "apply_mode_unitary", "optics.apply_mode_unitary"),
    ("bosonpe.optics", "append_vacuum", "optics.append_vacuum"),
    ("bosonpe.activation", "activate", "activation.activate"),
    ("bosonpe.activation", "m_pe_from_activation", "activation.search"),
    ("bosonpe.measures", "second_quantized", "measures.second_quantized"),
    ("bosonpe.measures", "qfi", "measures.qfi"),
    ("bosonpe.measures", "single_particle_variance", "measures.single_particle_variance"),
    ("bosonpe.measures", "m_pe_f", "measures.mpef"),
    ("bosonpe.measures", "sector_negativity", "measures.sector_negativity"),
    ("bosonpe.measures", "schmidt_spectrum", "measures.schmidt_spectrum"),
    ("bosonpe.measures", "block_trace_distance", "measures.block_trace_distance"),
    ("bosonpe.states", "css_density", "states.css_density"),
    ("bosonpe.states", "classical_nd_state", "states.classical_nd_state"),
    ("bosonpe.nonclassical", "ExchangeableSeparableSpec.symmetrized_terms",
     "nonclassical.symmetrize"),
    ("bosonpe.nonclassical", "definetti_classical_approx", "nonclassical.definetti"),
    ("bosonpe.nonclassical", "many_copy_nc_bound_check", "nonclassical.many_copy"),
    ("bosonpe.nonclassical", "binomial_poisson_distance", "nonclassical.binomial_poisson"),
    ("bosonpe.witness", "pe_lower_bound", "witness.lower_bound"),
    ("bosonpe.witness", "synthesize_dataset", "witness.synthesize"),
    ("bosonpe.witness", "dataset_from_csv", "witness.csv_parse"),
    ("bosonpe.witness", "estimate_moments", "witness.moments"),
    ("bosonpe.witness", "optimize_witness_params", "witness.optimize"),
    ("bosonpe.cli", "main", "cli.main"),
)
EIGENSOLVERS = ("eigh", "eigvalsh", "eig", "eigvals")

# per-layer metric -> (span name, field); fields are the span's call count,
# its self time, or a counter added by a hook below
PER_LAYER = {
    "fock.state_init_calls": ("fock.state_init", "calls"),
    "fock.state_init_s": ("fock.state_init", "self_s"),
    "fock.project_local_number_s": ("fock.project_local_number", "self_s"),
    "fock.tensor_compose_s": ("fock.tensor_compose", "self_s"),
    "optics.lift_unitary_calls": ("optics.lift_unitary", "calls"),
    "optics.lift_unitary_s": ("optics.lift_unitary", "self_s"),
    "optics.lift_dim_max": ("optics.lift_unitary", "dim_max"),
    "optics.apply_mode_unitary_s": ("optics.apply_mode_unitary", "self_s"),
    "optics.append_vacuum_s": ("optics.append_vacuum", "self_s"),
    "activation.activate_calls": ("activation.activate", "calls"),
    "activation.activate_s": ("activation.activate", "self_s"),
    "activation.search_s": ("activation.search", "self_s"),
    "measures.second_quantized_calls": ("measures.second_quantized", "calls"),
    "measures.second_quantized_s": ("measures.second_quantized", "self_s"),
    "measures.qfi_calls": ("measures.qfi", "calls"),
    "measures.qfi_s": ("measures.qfi", "self_s"),
    "measures.single_particle_variance_s": ("measures.single_particle_variance", "self_s"),
    "measures.mpef_s": ("measures.mpef", "self_s"),
    "measures.mpef_nfev": ("measures.mpef", "nfev"),
    "measures.sector_negativity_s": ("measures.sector_negativity", "self_s"),
    "measures.schmidt_spectrum_s": ("measures.schmidt_spectrum", "self_s"),
    "measures.block_trace_distance_s": ("measures.block_trace_distance", "self_s"),
    "states.css_density_calls": ("states.css_density", "calls"),
    "states.css_density_s": ("states.css_density", "self_s"),
    "states.classical_nd_state_s": ("states.classical_nd_state", "self_s"),
    "nonclassical.symmetrized_terms": ("nonclassical.symmetrize", "terms"),
    "nonclassical.definetti_s": ("nonclassical.definetti", "self_s"),
    "nonclassical.many_copy_s": ("nonclassical.many_copy", "self_s"),
    "nonclassical.binomial_poisson_s": ("nonclassical.binomial_poisson", "self_s"),
    "witness.lower_bound_s": ("witness.lower_bound", "self_s"),
    "witness.bootstrap_resamples": ("witness.lower_bound", "resamples"),
    "witness.synthesize_s": ("witness.synthesize", "self_s"),
    "witness.csv_parse_s": ("witness.csv_parse", "self_s"),
    "witness.moments_s": ("witness.moments", "self_s"),
    "witness.optimize_s": ("witness.optimize", "self_s"),
    "cli.main_calls": ("cli.main", "calls"),
    "cli.self_s": ("cli.main", "self_s"),
    "linalg.eig_calls": ("linalg.eig", "calls"),
    "linalg.eig_s": ("linalg.eig", "self_s"),
    "linalg.eig_dim_max": ("linalg.eig", "dim_max"),
    "linalg.eig_dim3": ("linalg.eig", "dim3"),
    "optimize.minimize_calls": ("optimize.minimize", "calls"),
    "optimize.nfev": ("optimize.minimize", "nfev"),
}


def _lift_hook(stats, args, kwargs, result):
    stats["dim_max"] = max(stats["dim_max"], result.shape[0])


def _eig_hook(stats, args, kwargs, result):
    d = np.shape(args[0])[-1]
    stats["dim_max"] = max(stats["dim_max"], d)
    stats["dim3"] += d**3


def _mpef_hook(stats, args, kwargs, result):
    stats["nfev"] += int(result.metadata.get("nfev", 0))


def _terms_hook(stats, args, kwargs, result):
    stats["terms"] += len(result)


def _resamples_hook(stats, args, kwargs, result):
    import bosonpe.witness

    call = inspect.signature(bosonpe.witness.pe_lower_bound).bind(*args, **kwargs)
    call.apply_defaults()
    stats["resamples"] += call.arguments["n_bootstrap"]


def _minimize_hook(stats, args, kwargs, result):
    stats["nfev"] += int(result.nfev)


HOOKS = {
    "optics.lift_unitary": _lift_hook,
    "measures.mpef": _mpef_hook,
    "nonclassical.symmetrize": _terms_hook,
    "witness.lower_bound": _resamples_hook,
}


class Recorder:
    """Spans and per-name aggregates of one traced run, kept in memory."""

    def __init__(self):
        self.op = None
        self.spans = []      # [name, start, end, parent index, op]
        self._stack = []     # open span indices
        self._child = []     # time covered by children of each open span
        self.stats = defaultdict(lambda: defaultdict(float))

    def span(self, name, fn, args, kwargs, hook=None, timed=True):
        stats = self.stats[name]
        if not timed:
            result = fn(*args, **kwargs)
            stats["calls"] += 1
            if hook is not None:
                hook(stats, args, kwargs, result)
            return result
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        self._child.append(0.0)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            covered = self._child.pop()
            if self._child:
                self._child[-1] += t1 - t0
            stats["calls"] += 1
            stats["self_s"] += (t1 - t0) - covered
            self.spans[idx] = [name, t0, t1, parent, self.op]
        if hook is not None:
            hook(stats, args, kwargs, result)
        return result

    def run_op(self, op_name, fn):
        """Run one benchmark operation as a root span."""
        self.op = op_name
        try:
            return self.span("bench." + op_name, fn, (), {})
        finally:
            self.op = None

    def metrics(self) -> dict:
        out = {}
        for metric, (name, field) in PER_LAYER.items():
            value = self.stats[name][field] if name in self.stats else 0
            out[metric] = {"value": float(value) if field == "self_s" else int(value),
                           "unit": "s" if field == "self_s" else "count"}
        return out

    def write(self, path, extra: dict):
        doc = dict(extra)
        doc["span_fields"] = ["name", "start", "end", "parent", "op"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _wrap(rec: Recorder, fn, name, hook=None, timed=True):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return fn(*args, **kwargs)
        return rec.span(name, fn, args, kwargs, hook, timed)

    return wrapper


def _rebind(orig, wrapped, modules):
    """Replace every module-level binding of ``orig`` with ``wrapped``."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def install() -> Recorder:
    """Wrap the layer functions; returns the recorder that collects spans."""
    import scipy.optimize

    rec = Recorder()
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "bosonpe" or n.startswith("bosonpe.")]
    for mod_name, attr, name in FUNCTIONS:
        mod = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, _wrap(rec, getattr(cls, meth), name, HOOKS.get(name)))
        else:
            orig = getattr(mod, attr)
            _rebind(orig, _wrap(rec, orig, name, HOOKS.get(name)), modules)
    for attr in EIGENSOLVERS:
        orig = getattr(np.linalg, attr)
        setattr(np.linalg, attr, _wrap(rec, orig, "linalg.eig", _eig_hook))
    # the optimiser is counted, not timed: its objective's work already sits
    # in the spans of the functions the objective calls
    orig = scipy.optimize.minimize
    _rebind(orig, _wrap(rec, orig, "optimize.minimize", _minimize_hook, timed=False),
            modules)
    return rec
