"""In-memory span tracing of sigfrac's public functions, from outside.

Tracer.install wraps every public function defined in the traced
modules and rebinds it under every name that any ``sigfrac`` module
holds for it (``rayleigh.hyp2f1_11``, ``approx.sf_moment_exact``, the
package re-exports, ...), so calls between modules and within a module
are both recorded.  Each span keeps its request id, its parent span,
its name and its start and end in nanoseconds; self time is a span's
duration minus its direct children's.  Worker processes are not traced.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("cli", "specfun", "rayleigh", "approx", "plp",
                  "transforms", "montecarlo")


class Tracer:
    def __init__(self):
        self.names = []
        self.request = -1
        self.req = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._patched = []

    def _wrap(self, label, fn):
        ix = len(self.names)
        self.names.append(label)
        req, parent, name = self.req, self.parent, self.name
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start)
            req.append(self.request)
            parent.append(stack[-1])
            name.append(ix)
            end.append(0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return traced

    def install(self):
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules.get(f"sigfrac.{short}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{short}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "sigfrac" and not modname.startswith("sigfrac."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])

    def uninstall(self):
        for mod, attr, obj in self._patched:
            setattr(mod, attr, obj)
        self._patched.clear()

    def per_name(self):
        """name -> (calls, self seconds) summed over all spans."""
        par = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64))
        child = np.zeros(dur.size, dtype=np.int64)
        has = par >= 0
        np.add.at(child, par[has], dur[has])
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        own_s = np.bincount(name, weights=dur - child, minlength=k) * 1e-9
        return {n: (int(calls[i]), float(own_s[i]))
                for i, n in enumerate(self.names)}

    def write(self, path):
        """Write every span to a compressed .npz: one array per column
        (request, parent, name, start_ns, end_ns) plus the span names."""
        cols = {c: np.frombuffer(a, dtype=np.int64) for c, a in
                (("request", self.req), ("parent", self.parent),
                 ("name", self.name), ("start_ns", self.start),
                 ("end_ns", self.end))}
        np.savez_compressed(path, names=np.array(self.names), **cols)
