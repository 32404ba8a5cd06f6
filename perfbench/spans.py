"""Call tracing for the per-layer metrics, installed from outside the package.

Every public function of the traced ellreg modules is wrapped, and the
wrapper is bound under every name that refers to the original in any
ellreg module: ``harness`` imports ``gram_matrix`` by name, so patching
``heights.gram_matrix`` alone would miss its main caller.  A span is
(function index, start, end, parent span); spans stay in memory and are
written out once, when the run ends.
"""

import functools
import importlib
import inspect
import json
import sys
import time

MODULES = ("weierstrass", "primes", "points", "heights", "lattice", "certificates", "harness")
ITEM = "bench.item"


class Tracer:
    def __init__(self):
        self.names = [ITEM]
        self.spans = []
        self.stack = []

    def install(self):
        """Wrap the public functions of MODULES wherever ellreg binds them."""
        mods = [importlib.import_module(f"ellreg.{name}") for name in MODULES]
        everywhere = [m for n, m in list(sys.modules.items()) if n == "ellreg" or n.startswith("ellreg.")]
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for other in everywhere:
                    for key, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, key, wrapper)

    def _wrap(self, name, fn):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (idx, t0, t1, parent)

        return wrapper

    def item(self, fn, *args):
        """Run one benchmark item under a root span, so its calls share it."""
        sid = len(self.spans)
        self.spans.append(None)
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid] = (0, t0, t1, -1)

    def summary(self):
        """{function name: [calls, total seconds, self seconds]}."""
        child = [0.0] * len(self.spans)
        for idx, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for sid, (idx, t0, t1, _) in enumerate(self.spans):
            rec = out.setdefault(self.names[idx], [0, 0.0, 0.0])
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += t1 - t0 - child[sid]
        return out

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"names": self.names, "spans": self.spans}, handle)
