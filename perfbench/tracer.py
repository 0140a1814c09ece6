"""Spans around the calls into each gptw layer, recorded from outside.

The tracer wraps the module-level names the package looks up at call time:
every binding of a traced function in a ``gptw`` module is replaced by a
wrapper that records a span (name, parent, start, end, extra values), and the
``numpy.fft`` and ``scipy.fft`` entry points are wrapped the same way so
every transform is counted. ``restore`` puts every original back and checks
that none of the wrappers is left. A name that does not exist is skipped, so
its metrics read 0.

Peak memory comes from tracemalloc, which sees numpy allocations. It slows
allocation-heavy code by about half, so it runs only in a tracer built with
``memory=True``, whose times are not reported, and only inside the spans that
report a peak; nested peaks are kept apart with ``reset_peak``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc

FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
             "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")

# (defining module, function, span name)
TRACED = (
    ("gptw.field", "lift", "field.lift"),
    ("gptw.functionals", "hessian_apply", "functionals.hessian_apply"),
    ("gptw.functionals", "certify", "functionals.certify"),
    ("gptw.minimize", "minimize_action", "minimize.descent"),
    ("gptw.minimize", "_finalize", "minimize.finalize"),
    ("gptw.minimize", "classify", "minimize.classify"),
    ("gptw.mountainpass", "relax_path", "mountainpass.relax"),
    ("gptw.mountainpass", "find_saddle", "mountainpass.find_saddle"),
    ("gptw.spectrum", "hessian_operator", "spectrum.hessian_operator"),
    ("gptw.spectrum", "lanczos_smallest", "spectrum.lanczos"),
    ("gptw.spectrum", "_lanczos_pass", "spectrum.lanczos"),
    ("gptw.ansatz", "vortex_test_function", "ansatz.init"),
    ("gptw.ansatz", "perturb", "ansatz.init"),
    ("gptw.mountainpass", "init_path", "ansatz.init"),
)

MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = None
        self.info = {}

    @property
    def duration(self):
        return self.end - self.start

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


class _Peaks:
    """Nested tracemalloc peaks: each open frame reports the most memory
    allocated on top of what was live when it opened."""

    def __init__(self):
        self.frames = []  # [base, highest seen, started tracing]

    def open(self):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], peak)
        tracemalloc.reset_peak()
        self.frames.append([current, current, started])

    def close(self) -> float:
        base, seen, started = self.frames.pop()
        peak = max(seen, tracemalloc.get_traced_memory()[1])
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], peak)
        if started:
            tracemalloc.stop()
        return (peak - base) / MB


class Tracer:
    def __init__(self, memory: bool = False):
        self.spans: list[Span] = []
        self._open: Span | None = None
        self._patches = []  # (module, attribute, original)
        self._peaks = _Peaks() if memory else None

    # -- spans -------------------------------------------------------------

    def _enter(self, name):
        span = Span(name, self._open)
        self.spans.append(span)
        self._open = span
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        self._open = span.parent

    def _wrap(self, fn, name):
        tracer = self
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._enter(name)
            try:
                if hook is None:
                    return fn(*args, **kwargs)
                return hook(span, fn, args, kwargs)
            finally:
                tracer._exit(span)

        traced.bench_traced = True
        return traced

    # -- per-layer hooks ------------------------------------------------------

    def _hook_minimize_descent(self, span, fn, args, kwargs):
        point = fn(*args, **kwargs)
        span.info["iterations"] = point.iterations
        return point

    def _hook_mountainpass_find_saddle(self, span, fn, args, kwargs):
        try:
            result = fn(*args, **kwargs)
        finally:
            if "witness_start" in span.info and self._peaks:
                span.info["witness_peak_mb"] = self._peaks.close()
        span.info["iterations"] = result.saddle.iterations
        return result

    def _hook_spectrum_hessian_operator(self, span, fn, args, kwargs):
        # the refinement of find_saddle ends where it builds the operator
        owner = span.parent
        if (owner is not None and owner.name == "mountainpass.find_saddle"
                and "witness_start" not in owner.info):
            owner.info["witness_start"] = span.start
            if self._peaks:
                self._peaks.open()
        return self._wrap(fn(*args, **kwargs), "spectrum.matvec")

    def _hook_spectrum_lanczos(self, span, fn, args, kwargs):
        outermost = not any(s.name == span.name for s in span.ancestors())
        if not (outermost and self._peaks):
            return fn(*args, **kwargs)
        self._peaks.open()
        try:
            return fn(*args, **kwargs)
        finally:
            span.info["peak_mb"] = self._peaks.close()

    # -- installing ---------------------------------------------------------

    def install(self):
        for modname in FFT_MODULES:
            module = importlib.import_module(modname)
            for attr in FFT_NAMES:
                fn = getattr(module, attr, None)
                if fn is not None:
                    self._patches.append((module, attr, fn))
                    setattr(module, attr, self._wrap(fn, "field.fft"))
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gptw" or n.startswith("gptw."))]
        for modname, attr, name in TRACED:
            original = getattr(importlib.import_module(modname), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, value))
                        setattr(module, key, wrapper)

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "gptw" or name.startswith("gptw.")
                                      or name in FFT_MODULES):
                continue
            left = [k for k, v in vars(module).items() if getattr(v, "bench_traced", False)]
            if left:
                raise RuntimeError(f"traced wrappers left in {name}: {left}")

    # -- metrics ------------------------------------------------------------

    def peaks(self) -> dict:
        """Peak memory of the index witness and of the Lanczos solves."""
        witness = [s.info["witness_peak_mb"] for s in self.spans if "witness_peak_mb" in s.info]
        lanczos = [s.info["peak_mb"] for s in self.spans if "peak_mb" in s.info]
        return {
            "mountainpass.witness_peak_mb": (max(witness, default=0.0), "MB"),
            "spectrum.peak_mb": (max(lanczos, default=0.0), "MB"),
        }

    def metrics(self) -> dict:
        """Per-layer counts and times over every span recorded so far."""
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)

        def spans(name):
            return by_name.get(name, [])

        def outermost(name):
            return [s for s in spans(name) if not any(a.name == name for a in s.ancestors())]

        def total(name):
            return sum(s.duration for s in outermost(name))

        def inside(name, outer):
            return [s for s in spans(name) if any(a.name == outer for a in s.ancestors())]

        descents = spans("minimize.descent")
        iterations = sum(s.info["iterations"] for s in descents)
        descent_s = total("minimize.descent")
        descent_s -= sum(s.duration for s in inside("minimize.finalize", "minimize.descent"))
        descent_ffts = len(inside("field.fft", "minimize.descent"))
        saddles = spans("mountainpass.find_saddle")
        refine = witness = 0.0
        for s in saddles:
            cut = s.info.get("witness_start", s.end)
            refine += cut - s.start
            witness += s.end - cut
        lanczos = outermost("spectrum.lanczos")
        matvec_in_lanczos = sum(s.duration for s in inside("spectrum.matvec", "spectrum.lanczos"))

        def per_iter(x):
            return x / iterations if iterations else 0.0

        return {
            "field.fft_calls": (len(spans("field.fft")), "count"),
            "field.fft_s": (total("field.fft"), "s"),
            "minimize.fft_per_iter": (per_iter(descent_ffts), "fft/iter"),
            "field.lift_calls": (len(spans("field.lift")), "count"),
            "field.lift_s": (total("field.lift"), "s"),
            "functionals.hessian_apply_calls": (len(spans("functionals.hessian_apply")), "count"),
            "functionals.hessian_apply_s": (total("functionals.hessian_apply"), "s"),
            "functionals.certify_s": (total("functionals.certify"), "s"),
            "minimize.descents": (len(descents), "count"),
            "minimize.iterations": (iterations, "count"),
            "minimize.iter_ms": (1e3 * per_iter(descent_s), "ms"),
            "minimize.finalize_s": (total("minimize.finalize"), "s"),
            "minimize.classify_s": (total("minimize.classify"), "s"),
            "mountainpass.relax_s": (total("mountainpass.relax"), "s"),
            "mountainpass.refine_s": (refine, "s"),
            "mountainpass.refine_iters": (sum(s.info.get("iterations", 0) for s in saddles),
                                          "count"),
            "mountainpass.witness_s": (witness, "s"),
            "spectrum.matvecs": (len(spans("spectrum.matvec")), "count"),
            "spectrum.matvec_s": (total("spectrum.matvec"), "s"),
            "spectrum.krylov_s": (sum(s.duration for s in lanczos) - matvec_in_lanczos, "s"),
            "ansatz.init_s": (total("ansatz.init"), "s"),
        }
