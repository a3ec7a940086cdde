"""Spans and exact counters recorded from outside the package.

Tracer.install() wraps the public functions of each gmhd2d module (those it
defines whose names do not start with "_") and the 2-D transform entry
points of numpy.fft and, when present, scipy.fft.  Every module attribute
that refers to a wrapped function is replaced, so calls through re-exports
and from-imports are seen too.

- Layer functions record a span: name, parent, start and end, kept in memory
  and written out by the caller once the pass is over.
- Operators called thousands of times per pass (the spectral toolbox, the
  Sobolev norm, the regime classifier) only count calls.
- Transforms count calls, 2-D planes transformed, computed bytes moved (input
  plus output array sizes, not cache traffic) and the seconds spent inside
  them.  A transform is a leaf, so that is its self time.
- evaluate_norm also records the distinct (term, n, field) triples it sees.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
import zlib
from collections import Counter

import numpy as np

MODULES = ("spectral", "dynamics", "diagnostics", "analysis", "inequalities",
           "config", "cli")
COUNT_ONLY = {
    "analysis.classify_regime",
    "diagnostics.homogeneous_sobolev_norm",
}
# every spectral operator counts only, except the corpus field generator
SPANNED_SPECTRAL = {"spectral.random_band_limited_field"}
TRANSFORMS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn",
              "irfftn")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self._stack = []
        self.calls = Counter()
        self.fft_calls = 0
        self.fft_planes = 0
        self.fft_bytes = 0
        self.fft_s = 0.0
        self.norm_keys = set()
        self._patches = []       # (namespace, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        originals = {}
        for short in MODULES:
            module = importlib.import_module(f"gmhd2d.{short}")
            for attr, fn in vars(module).items():
                if (not attr.startswith("_")
                        and isinstance(fn, types.FunctionType)
                        and fn.__module__ == module.__name__):
                    originals[fn] = self._wrap_layer(f"{short}.{attr}", fn)
        packages = [sys.modules["numpy"].fft]
        try:
            packages.append(importlib.import_module("scipy.fft"))
        except ImportError:
            pass
        for package in packages:
            for attr in TRANSFORMS:
                fn = getattr(package, attr, None)
                if fn is not None and fn not in originals:
                    originals[fn] = self._wrap_transform(fn)
                self._patch(package, attr, originals)
        for name, module in list(sys.modules.items()):
            if name == "gmhd2d" or name.startswith("gmhd2d."):
                for attr in list(vars(module)):
                    self._patch(module, attr, originals)

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _patch(self, namespace, attr, originals) -> None:
        value = getattr(namespace, attr, None)
        try:
            wrapper = originals.get(value)
        except TypeError:  # unhashable attribute
            return
        if wrapper is not None:
            self._patches.append((namespace, attr, value))
            setattr(namespace, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _wrap_layer(self, name, fn):
        calls = self.calls
        if name in COUNT_ONLY or (name.startswith("spectral.")
                                  and name not in SPANNED_SPECTRAL):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack = self.spans, self._stack
        on_call = None
        if name == "inequalities.evaluate_norm":
            signature = inspect.signature(fn)

            def on_call(args, kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                coeffs = np.ascontiguousarray(bound["f_hat"])
                self.norm_keys.add((bound["term"], bound["grid"].n,
                                    coeffs.shape, zlib.crc32(coeffs)))

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[name] += 1
            if on_call is not None:
                on_call(args, kwargs)
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1,
                          time.perf_counter(), 0.0])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index][3] = time.perf_counter()
                stack.pop()
        return spanned

    def _wrap_transform(self, fn):
        @functools.wraps(fn)
        def transform(x, *args, **kwargs):
            t0 = time.perf_counter()
            out = fn(x, *args, **kwargs)
            self.fft_s += time.perf_counter() - t0
            arr = np.asarray(x)
            self.fft_calls += 1
            plane = arr.shape[-2] * arr.shape[-1] if arr.ndim >= 2 else arr.size
            self.fft_planes += arr.size // max(1, plane)
            self.fft_bytes += arr.nbytes + out.nbytes
            return out
        return transform

    # -- results ------------------------------------------------------------

    def reset_counters(self) -> None:
        self.calls.clear()
        self.fft_calls = self.fft_planes = self.fft_bytes = 0
        self.fft_s = 0.0
        self.norm_keys.clear()

    def summary(self) -> dict:
        """Per-name totals: calls, seconds in outermost spans, self seconds."""
        total, self_s = Counter(), Counter()
        for name, parent, start, end in self.spans:
            duration = end - start
            self_s[name] += duration
            if parent >= 0:
                self_s[self.spans[parent][0]] -= duration
            if not self._nested_in_same(name, parent):
                total[name] += duration
        return {
            "calls": dict(self.calls),
            "seconds": dict(total),
            "self_seconds": dict(self_s),
            "transforms": {"calls": self.fft_calls, "planes": self.fft_planes,
                           "bytes_computed": self.fft_bytes,
                           "seconds": self.fft_s},
            "evaluate_norm_distinct": len(self.norm_keys),
        }

    def _nested_in_same(self, name, parent) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False

    def span_records(self, origin: float) -> dict:
        """Spans as written to the spans file, times relative to origin."""
        return {"fields": ["name", "parent", "start_s", "end_s"],
                "spans": [[name, parent, start - origin, end - origin]
                          for name, parent, start, end in self.spans]}
