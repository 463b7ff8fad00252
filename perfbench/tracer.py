"""Outside-in tracer: wraps spinweb's layer entry points from outside the package.

A wrapper records one span per call (name, start, end, parent span) in
memory; nothing is written until the caller exports the spans at the end of
the run.  ``from .spectral import eigendecompose`` copies the function object
into the importing module, so each wrapper is bound into every module of the
package that holds the original object, not only into the defining module;
otherwise the solves made inside ``track_levels`` (through ``sweep``, ``cli``
and ``n4``'s copies) would be missed.

A span's self time is its duration minus the durations of its direct child
spans.  Calls are sequential in one thread, so child spans never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, layer name).  An attribute "Class.method" names a
# classmethod; "minimize" is scipy's optimiser as bound in spinweb.sweep and is
# wrapped to count Nelder-Mead iterations.
TARGETS = (
    ("cli", "main", "cli.main"),
    ("hamiltonian", "build_combined", "hamiltonian.build_combined"),
    ("operators", "pauli_pair", "operators.pauli_pair"),
    ("states", "fidelity", "states.fidelity"),
    ("states", "QuantumState.mixed", "states.QuantumState.mixed"),
    ("states", "partial_trace", "states.partial_trace"),
    ("spectral", "eigendecompose", "spectral.eigendecompose"),
    ("spectral", "ground_subspace", "spectral.ground_subspace"),
    ("spectral", "track_levels", "spectral.track_levels"),
    ("spectral", "_refine_crossing", "spectral.refine_crossing"),
    ("entanglement", "correlation", "entanglement.correlation"),
    ("entanglement", "concurrence_wootters", "entanglement.concurrence"),
    ("entanglement", "concurrence_symmetric", "entanglement.concurrence"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
    ("sweep", "make_references", "sweep.make_references"),
    ("sweep", "reference_overlaps", "sweep.reference_overlaps"),
    ("sweep", "optimize_ansatz_phases", "sweep.optimize_ansatz_phases"),
    ("sweep", "minimize", "sweep.minimize"),
    ("n4", "detect_regions", "n4.detect_regions"),
    ("n4", "ghz_protocol", "n4.ghz_protocol"),
    ("n4", "star_region_protocol", "n4.star_region_protocol"),
    ("n4", "extract_coefficients", "n4.extract_coefficients"),
)


class Tracer:
    """Collects nested call spans of wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.nm_iters = 0
        self._stack = []

    def wrap(self, name, fn):
        """Return ``fn`` wrapped so that every call records a span ``name``."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _wrap_minimize(self, name, fn):
        traced = self.wrap(name, fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            res = traced(*args, **kwargs)
            self.nm_iters += int(getattr(res, "nit", 0))
            return res

        return counted

    def install(self, package="spinweb", targets=TARGETS):
        """Wrap each target and rebind it in every loaded module of ``package``.

        Returns the targets that the package no longer has; they stay
        unwrapped, so that their layers read zero instead of the run failing.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        missing = []
        for mod_name, attr, layer in targets:
            module = sys.modules.get(f"{package}.{mod_name}")
            owner_name, _, meth = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, meth, None)
            if original is None:
                missing.append(f"{mod_name}.{attr}")
            elif owner_name:
                func = owner.__dict__[meth].__func__
                setattr(owner, meth, classmethod(self.wrap(layer, func)))
            else:
                wrap = self._wrap_minimize if attr == "minimize" else self.wrap
                wrapper = wrap(layer, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapper)
        return missing

    def export(self):
        """Spans and counters as plain data, for writing out after the run."""
        return {"spans": self.spans, "nm_iters": self.nm_iters}


def layer_totals(spans):
    """Per layer: {"s": self time, "incl_s": time including nested spans, "calls"}."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals = defaultdict(lambda: {"s": 0.0, "incl_s": 0.0, "calls": 0})
    for (name, start, end, _), nested in zip(spans, child_time):
        totals[name]["s"] += (end - start) - nested
        totals[name]["incl_s"] += end - start
        totals[name]["calls"] += 1
    return dict(totals)


def count_nested(spans, name, ancestor):
    """Number of spans called ``name`` that have a span ``ancestor`` above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count
