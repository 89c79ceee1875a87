"""Span tracing of gpalign's layer functions, from outside the package.

While a ``Tracer`` is active, every function it targets is replaced, in every
``gpalign`` namespace that holds it, by a wrapper that times the call.  Calls
between gpalign modules are therefore captured too.  Root spans (set-up and
each job) are kept as records with name, start and end.  Spans below a root
are aggregated in memory by (name, parent) into calls, total and self time,
where self time is the duration minus the time covered by child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

PACKAGE = "gpalign"
# functions wrapped in the traced run, by layer (the gpalign module defining them)
TARGETS = {
    "penalties": ["build_penalty_set"],
    "warping": ["warp_from_base", "project_endpoint", "interp_with_slope"],
    "model": ["maximize_base_function", "base_objective", "base_gradient"],
    "avb": ["sweep", "update_q_f", "update_q_z0", "update_q_z1", "elbo"],
    "smoothing": ["update_q_X", "update_q_sigmaY", "update_q_etaX",
                  "update_q_lambdaX"],
    "mcmc": ["gibbs_sweep", "draw_X", "draw_f", "metropolis_base"],
    "prediction": ["bootstrap_bands", "select_final_time", "register_partial",
                   "conditional_mvn", "fit_empirical_laws"],
}


class Tracer:
    """Wraps the TARGETS functions while active and aggregates their spans."""

    def __init__(self):
        self.roots: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[list] = []   # open spans: [name, child seconds]
        self._agg: dict | None = None
        self._wrappers: dict[str, object] = {}
        self._originals: dict[str, object] = {}
        for layer, names in TARGETS.items():
            module = sys.modules.get(f"{PACKAGE}.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.absent.append(f"{layer}.{name}")
                    continue
                self._originals[name] = fn
                self._wrappers[name] = self._wrap(name, fn)

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = self._agg.setdefault((name, parent), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
        return wrapper

    @staticmethod
    def _namespaces():
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    @contextmanager
    def active(self):
        """Install the wrappers for the duration of the block, then restore."""
        patched = []
        for module in self._namespaces():
            for name, fn in self._originals.items():
                if getattr(module, name, None) is fn:
                    setattr(module, name, self._wrappers[name])
                    patched.append((module, name, fn))
        try:
            yield self
        finally:
            for module, name, fn in patched:
                setattr(module, name, fn)

    @contextmanager
    def root(self, name: str, index: int):
        """A root span (set-up or one job); spans below it aggregate into it."""
        record = {"name": name, "index": index, "spans": {}}
        self._agg = record["spans"]
        self._stack.clear()
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._agg = None
            self.roots.append(record)


def _merged(roots) -> dict:
    """[calls, total seconds, self seconds] per (name, parent) over the roots."""
    merged: dict = {}
    for root in roots:
        for key, (calls, total, self_s) in root["spans"].items():
            rec = merged.setdefault(key, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
    return merged


def totals(roots) -> dict[str, list]:
    """[calls, total seconds, self seconds] per function name over the roots."""
    out: dict[str, list] = {}
    for (name, _parent), (calls, total, self_s) in _merged(roots).items():
        rec = out.setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += total
        rec[2] += self_s
    return out


def span_table(roots) -> list[dict]:
    """JSON-ready rows of _merged, largest total time first."""
    return [{"name": name, "parent": parent or "(root)", "calls": calls,
             "total_s": total, "self_s": self_s}
            for (name, parent), (calls, total, self_s) in sorted(
                _merged(roots).items(), key=lambda kv: -kv[1][1])]
