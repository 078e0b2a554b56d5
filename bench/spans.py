"""Spans around harmsum's public functions, and the per-layer metrics
derived from them.

Tracer.install wraps every public function defined in the five layer
modules (cli, sequences, exact, analytic, montecarlo) and rebinds the
wrapper under every name that refers to the original in any harmsum
module. That catches calls that go through another module's import (for
example cli.min_signed_sum or analytic.terms_array) and calls inside a
module through its globals (interval_probability -> density ->
cosine_product_limit). Nothing under src/ is edited. A span is
[name, start, end, parent index, raised, info]; spans stay in memory and
the job reports them when it ends.
"""

import functools
import inspect
import sys
import time

LAYERS = ("cli", "sequences", "exact", "analytic", "montecarlo")


def _mc_info(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    import harmsum.montecarlo

    # computed from the inputs with the chunking rule of montecarlo._iter_chunks
    words = -(-config.n // 64)
    blocks = -(-words // 4)
    chunk = min(harmsum.montecarlo.CHUNK, max(1024, (1 << 28) // (256 * blocks)))
    return {
        "samples": config.samples,
        "sign_bits": config.samples * config.n,
        "random_bytes": config.samples * 32 * blocks,
        "chunks": -(-config.samples // chunk),
    }


def _search_info(args, kwargs, result):
    return {"n": result.n, "den_bits": result.den.bit_length()}


# per-call facts read from a call's arguments or result
INFO = {
    "sequences.generate": lambda a, k, r: {"terms": r.n},
    "sequences.terms_array": lambda a, k, r: {"terms": len(r)},
    "exact.min_signed_sum": _search_info,
    "exact.min_gap": _search_info,
    "analytic.cosine_product_limit": lambda a, k, r: {"m": r.terms_used},
    "analytic.density": lambda a, k, r: {"u": r.truncation_u},
    "montecarlo.simulate": _mc_info,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack, clock, info = self.spans, self._stack, time.perf_counter, INFO.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[5] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"harmsum.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "harmsum" and not modname.startswith("harmsum."):
                continue
            for name, obj in list(vars(module).items()):
                pair = wrappers.get(id(obj))
                if pair is not None and pair[0] is obj:
                    setattr(module, name, pair[1])


# name -> unit of every per-layer metric, in report order
UNITS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.errors": "count",
    "sequences.calls": "count",
    "sequences.s": "s",
    "sequences.terms": "count",
    "sequences.errors": "count",
    "exact.min_signed_sum.calls": "count",
    "exact.min_signed_sum.s": "s",
    "exact.min_gap.calls": "count",
    "exact.min_gap.s": "s",
    "exact.minsum_entries": "count",
    "exact.gap_entries": "count",
    "exact.den_bits_max": "bits",
    "exact.errors": "count",
    "analytic.kernel.calls": "count",
    "analytic.kernel.s": "s",
    "analytic.kernel.factors": "count",
    "analytic.kernel.bytes_computed": "bytes",
    "analytic.kernel.max_m": "count",
    "analytic.density.calls": "count",
    "analytic.density.s": "s",
    "analytic.density.max_u": "1",
    "analytic.quadrature.self_s": "s",
    "analytic.interval_probability.calls": "count",
    "analytic.interval_probability.s": "s",
    "analytic.errors": "count",
    "montecarlo.simulate.s": "s",
    "montecarlo.sampling_s": "s",
    "montecarlo.samples": "count",
    "montecarlo.sign_bits": "count",
    "montecarlo.random_bytes": "bytes",
    "montecarlo.chunks": "count",
    "montecarlo.errors": "count",
    "trace.overhead_s": "s",
}


def layer_metrics(jobs_spans) -> dict:
    """Per-layer metrics of one pass: the spans of each of its jobs.

    A layer's time counts only its outermost spans, so a public function
    calling another of the same module is not counted twice. Self time is
    a span's duration minus that of its direct children. An error is a
    span that raised, unless its parent in the same layer raised too.
    """
    m = {name: 0 for name in UNITS if name != "trace.overhead_s"}
    for spans in jobs_spans:
        child_s = [0.0] * len(spans)
        for name, start, end, parent, raised, info in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, raised, info) in enumerate(spans):
            layer, fn = name.split(".", 1)
            dur = end - start
            self_s = dur - child_s[i]
            same_layer_parent = parent >= 0 and spans[parent][0].split(".", 1)[0] == layer
            if raised and not (same_layer_parent and spans[parent][4]):
                m[f"{layer}.errors"] += 1
            if layer == "cli":
                m["cli.self_s"] += self_s
                m["cli.calls"] += fn == "main"
            elif layer == "sequences" and not same_layer_parent:
                m["sequences.calls"] += 1
                m["sequences.s"] += dur
                m["sequences.terms"] += (info or {}).get("terms", 0)
            elif name in ("exact.min_signed_sum", "exact.min_gap"):
                m[f"{name}.calls"] += 1
                m[f"{name}.s"] += dur
                if info:
                    n = info["n"]
                    if fn == "min_signed_sum":
                        m["exact.minsum_entries"] += 2 ** ((n + 1) // 2) + 2 ** (n // 2)
                    else:
                        m["exact.gap_entries"] += 2**n
                    m["exact.den_bits_max"] = max(m["exact.den_bits_max"], info["den_bits"])
            elif name == "analytic.cosine_product_limit":
                m["analytic.kernel.calls"] += 1
                m["analytic.kernel.s"] += dur
                if info:
                    m["analytic.kernel.factors"] += info["m"]
                    m["analytic.kernel.bytes_computed"] += 8 * info["m"]
                    m["analytic.kernel.max_m"] = max(m["analytic.kernel.max_m"], info["m"])
            elif name == "analytic.density":
                m["analytic.density.calls"] += 1
                m["analytic.density.s"] += dur
                m["analytic.quadrature.self_s"] += self_s
                if info:
                    m["analytic.density.max_u"] = max(m["analytic.density.max_u"], info["u"])
            elif name == "analytic.interval_probability":
                m["analytic.interval_probability.calls"] += 1
                m["analytic.interval_probability.s"] += dur
            elif name == "montecarlo.simulate":
                m["montecarlo.simulate.s"] += dur
                m["montecarlo.sampling_s"] += self_s
                for key, value in (info or {}).items():
                    m[f"montecarlo.{key}"] += value
    return m
