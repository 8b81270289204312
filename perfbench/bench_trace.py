"""Per-layer tracing, installed from the benchmark's side of the boundary.

`Tracer.install` wraps every public function of the nine detperm modules
(plus ``HermitianKernel.load``) and rebinds the wrapper under every name
that bound the original: the modules import ``spectrum``, ``restrict``,
``sample_categorical`` and the like by name, so patching only the
defining module would miss most calls.  ``numpy.linalg.eigh``,
``numpy.linalg.pinv`` and ``scipy.linalg.lu_factor`` are counted and
attributed to the innermost open span; they are not spans themselves, so
a span's self time still contains the linear algebra it asked for.

Spans are kept in memory as ``[name, start_ns, end_ns, parent, op, raised]``
and written out once at the end.  The wrappers draw no randomness, so a
traced run emits the same samples as an untraced one.

The program runs in one process and one Python thread with no queue, so
no layer has a wait time; none is reported.
"""

import functools
import json
import sys
import time
import types

LAYERS = ("core", "kernels", "dpp", "permanental", "alphadet", "planar", "ust", "harness", "cli")

# Spans whose results carry the drawn points counted by dpp.points and
# permanental.points.
POINT_COUNTERS = {"dpp.sample_projection": "dpp.points",
                  "permanental.sample_permanental": "permanental.points"}

class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.linalg = []  # (innermost span index or -1, function, matrix order)
        self.spectrum_hits = 0
        self.points = dict.fromkeys(POINT_COUNTERS.values(), 0)
        self.span_names = set()

    def _span(self, name, fn):
        self.span_names.add(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        points = POINT_COUNTERS.get(name)
        spectrum = name == "kernels.spectrum"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if spectrum and getattr(args[0], "_spectrum_cache", None) is not None:
                self.spectrum_hits += 1
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if points:
                self.points[points] += len(result.points)
            return result

        return traced

    def _counted(self, name, fn):
        stack, events = self.stack, self.linalg

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            events.append((stack[-1] if stack else -1, name, len(a)))
            return fn(a, *args, **kwargs)

        return counted

    def install(self):
        """Wrap the public functions of the loaded detperm modules, and count
        the linear algebra they call."""
        modules = {layer: sys.modules[f"detperm.{layer}"] for layer in LAYERS
                   if f"detperm.{layer}" in sys.modules}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and isinstance(value, types.FunctionType)
                        and value.__module__ == mod.__name__):
                    wrappers[value] = self._span(f"{layer}.{attr}", value)
        for mod in (sys.modules["detperm"], *modules.values()):
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
        kernel_cls = modules["kernels"].HermitianKernel
        kernel_cls.load = staticmethod(self._span("kernels.load", kernel_cls.load))

        linalg = sys.modules["numpy"].linalg
        linalg.eigh = self._counted("eigh", linalg.eigh)
        linalg.pinv = self._counted("pinv", linalg.pinv)
        scipy_linalg = sys.modules.get("scipy.linalg")  # never import scipy here
        if scipy_linalg is not None:
            scipy_linalg.lu_factor = self._counted("lu_factor", scipy_linalg.lu_factor)

    def metrics(self, names, cli_counts):
        """The per-layer metrics ``names`` over every span recorded, as
        ``{name: value}``; ``cli_counts`` holds the ``cli.`` counts taken
        from the captured output rather than from spans.  A name ending in ``.s`` is the inclusive span
        time, in ``.self_s`` the span time minus the time covered by its
        child spans, in ``.calls`` the number of spans; a span name that
        was never wrapped is an error, not a zero."""
        spans = self.spans
        child = [0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls, total, own, errors = {}, {}, {}, dict.fromkeys(LAYERS, 0)
        copies = 0
        for i, (name, start, end, parent, _, raised) in enumerate(spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + end - start
            own[name] = own.get(name, 0) + end - start - child[i]
            layer = name.split(".", 1)[0]
            parent_name = spans[parent][0] if parent >= 0 else ""
            if raised and parent_name.split(".", 1)[0] != layer:
                errors[layer] += 1
            if parent_name == "alphadet.sample_alpha" and name in (
                    "dpp.sample_dpp", "permanental.sample_permanental"):
                copies += 1

        def enclosing(index):
            return spans[index][0] if index >= 0 else ""

        eigh = [n for i, fn, n in self.linalg if fn == "eigh" and enclosing(i) == "kernels.spectrum"]
        pinv_ust = [i for i, fn, _ in self.linalg if fn == "pinv" and enclosing(i).startswith("ust.")]
        pinv_tree = sum(1 for i in pinv_ust if enclosing(i) == "ust.sample_ust")
        spectrum_calls = calls.get("kernels.spectrum", 0)
        trees = calls.get("ust.sample_ust", 0)
        special = {
            "kernels.spectrum.hit_ratio": self.spectrum_hits / spectrum_calls if spectrum_calls else 0.0,
            "kernels.eigh_calls": len(eigh),
            "kernels.eigh_order_max": max(eigh, default=0),
            "alphadet.copies": copies,
            "ust.pinv_calls": len(pinv_ust),
            "ust.pinv_calls_per_tree": pinv_tree / trees if trees else 0.0,
            **cli_counts,
            "trace.spans": len(spans),
            **self.points,
            **{f"{layer}.errors": n for layer, n in errors.items()},
        }
        out = {}
        for metric in names:
            span, _, kind = metric.rpartition(".")
            if metric in special:
                out[metric] = special[metric]
            elif span not in self.span_names:
                raise KeyError(f"no per-layer metric {metric!r}")
            elif kind == "calls":
                out[metric] = calls.get(span, 0)
            elif kind == "self_s":
                out[metric] = own.get(span, 0) / 1e9
            elif kind == "s":
                out[metric] = total.get(span, 0) / 1e9
            else:
                raise KeyError(f"no per-layer metric {metric!r}")
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
            for index, fn, order in self.linalg:
                fh.write(json.dumps(["linalg", index, fn, order]) + "\n")
