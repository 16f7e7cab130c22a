"""In-memory spans around the program's layer boundaries, from outside the program.

The traced run installs wrappers on the module and class attributes the
program calls through (``repro.core.decision.compile_automaton`` and so on),
records one span per outermost call into a layer, and restores every
attribute when the traced slice ends.  Untraced slices run the program's own
bindings, untouched.

A span is ``[name, start, end, parent, request]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``request`` the id of the query the
benchmark was timing.  A layer's *self time* is its spans' durations minus
the time covered by their direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

#: Product walks at or above this many pair codes take the kernel's large
#: (vectorised) path; mirrors the kernel's own threshold, computed from the
#: automata's public ``n_states``.
LARGE_PRODUCT_CODES = 4096


class Tracer:
    """Records spans and per-layer counts; installs and removes layer wrappers."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.request = None
        self._stack = []
        self._active = defaultdict(int)
        self._patches = []

    # -- spans ---------------------------------------------------------------
    def begin(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.request])
        index = len(self.spans) - 1
        self._stack.append(index)
        self._active[name] += 1
        return index

    def end(self, index):
        span = self.spans[index]
        span[2] = time.perf_counter()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(f"span {span[0]!r} closed out of order")
        self._active[span[0]] -= 1

    def active(self, name):
        return self._active[name] > 0

    # -- wrappers --------------------------------------------------------------
    def _patch(self, owner, attribute, replacement):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def wrap_call(self, owner, attribute, layer, after=None):
        """Time outermost calls of ``owner.attribute`` as spans of ``layer``.

        ``after(tracer, args, result)`` may add counts from the call's
        arguments and result.
        """
        original = getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active(layer):
                return original(*args, **kwargs)
            index = tracer.begin(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            tracer.counts[layer + ".calls"] += 1
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = original
        self._patch(owner, attribute, wrapper)

    def wrap_method_delta(self, owner, attribute, layer, read, counter):
        """Like :meth:`wrap_call` for a method whose work is a counter delta."""
        original = getattr(owner, attribute)
        tracer = self

        def wrapper(obj, *args, **kwargs):
            if tracer.active(layer):
                return original(obj, *args, **kwargs)
            before = read(obj)
            index = tracer.begin(layer)
            try:
                return original(obj, *args, **kwargs)
            finally:
                tracer.end(index)
                tracer.counts[layer + ".calls"] += 1
                tracer.counts[counter] += read(obj) - before

        wrapper.__wrapped__ = original
        self._patch(owner, attribute, wrapper)

    def wrap_generator(self, owner, attribute, layer, item_counter):
        """Time each resumption of a generator function as a span of ``layer``.

        Between resumptions the consumer runs other layers, so only the
        generator's own steps are attributed to it.
        """
        original = getattr(owner, attribute)
        tracer = self

        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            tracer.counts[layer + ".calls"] += 1
            while True:
                index = tracer.begin(layer)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(index)
                tracer.counts[item_counter] += 1
                yield item

        wrapper.__wrapped__ = original
        self._patch(owner, attribute, wrapper)

    def restore(self):
        """Put back every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ------------------------------------------------------------------
    def dump(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps([name, start, end, parent, request]) + "\n")


def self_times(spans):
    """Per-name ``(self_seconds, total_seconds, count)`` over closed spans."""
    child_time = defaultdict(float)
    for name, start, end, parent, _request in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for index, (name, start, end, _parent, _request) in enumerate(spans):
        duration = end - start
        own, total, count = out.get(name, (0.0, 0.0, 0))
        out[name] = (own + duration - child_time[index], total + duration, count + 1)
    return out


def install_core_layers(tracer):
    """Wrap the in-process layers a query crosses: parser, pushback,
    signature search, theory oracle, compile and kernels."""
    from repro.core import decision, parser, pushback
    from repro.core.theory import Theory
    from repro.lang import while_lang
    import repro.theories  # noqa: F401 - registers every shipped theory class

    tracer.wrap_call(parser, "parse_term", "parser")
    tracer.wrap_call(parser, "parse_pred", "parser")
    tracer.wrap_call(while_lang, "parse_program", "parser")
    tracer.wrap_call(while_lang.WhileProgram, "compile", "parser")
    tracer.wrap_method_delta(pushback.Normalizer, "normalize", "pushback",
                             read=lambda normalizer: normalizer.stats.steps,
                             counter="pushback.steps")
    tracer.wrap_generator(decision, "enumerate_signatures", "signatures",
                          item_counter="signatures.explored")

    def compiled(tracer_, args, automaton):
        tracer_.counts["compile.automata"] += 1
        tracer_.counts["compile.states"] += automaton.n_states

    tracer.wrap_call(decision, "compile_automaton", "compile", after=compiled)

    def walked(tracer_, args, result):
        a, b = args[0], args[1]
        if a is b or (a.n_states == b.n_states and a.accepting == b.accepting
                      and a.sigma == b.sigma and a.delta == b.delta):
            tracer_.counts["kernels.fastpath"] += 1
        if (a.n_states + 1) * (b.n_states + 1) >= LARGE_PRODUCT_CODES:
            tracer_.counts["kernels.large"] += 1

    tracer.wrap_call(decision, "flat_compare", "kernels", after=walked)
    tracer.wrap_call(decision, "flat_includes", "kernels", after=walked)

    classes = [Theory]
    seen = set()
    while classes:
        cls = classes.pop()
        if cls in seen:
            continue
        seen.add(cls)
        classes.extend(cls.__subclasses__())
        for attribute in ("satisfiable", "satisfiable_conjunction"):
            if attribute in vars(cls):
                tracer.wrap_call(cls, attribute, "theory")


def layer_metrics(tracer, queries):
    """Per-query self time and counts of each in-process layer.

    ``queries`` is how many root ``query`` spans the traced slices timed.
    Also returns each layer's share of the traced query time.
    """
    times = self_times([span for span in tracer.spans if span[2] is not None])
    counts = tracer.counts

    def ms(layer):
        return times.get(layer, (0.0, 0.0, 0))[0] * 1000.0 / queries

    def per_query(name):
        return counts.get(name, 0.0) / queries

    kernel_calls = counts.get("kernels.calls", 0.0)
    out = {
        "compile.ms": ms("compile"),
        "compile.automata": per_query("compile.automata"),
        "compile.states": per_query("compile.states"),
        "signatures.ms": ms("signatures"),
        "signatures.explored": per_query("signatures.explored"),
        "theory.sat_calls": per_query("theory.calls"),
        "theory.sat_ms": ms("theory"),
        "pushback.ms": ms("pushback"),
        "pushback.steps": per_query("pushback.steps"),
        "parser.ms": ms("parser"),
        "parser.calls": per_query("parser.calls"),
        "kernels.ms": ms("kernels"),
        "kernels.calls": per_query("kernels.calls"),
        "kernels.fastpath_frac": counts.get("kernels.fastpath", 0.0) / kernel_calls
        if kernel_calls else 0.0,
        "kernels.large_product_frac": counts.get("kernels.large", 0.0) / kernel_calls
        if kernel_calls else 0.0,
    }
    own, total, _count = times.get("query", (0.0, 0.0, 0))
    out["trace.unattributed_frac"] = own / total if total else 0.0
    shares = {name: round(entry[0] / total, 4) for name, entry in sorted(times.items())
              if total}
    return out, shares


#: Per-layer metrics of the served path, which the in-process workloads never
#: reach.
SERVED_LAYER_METRICS = ("server.queue_ms", "server.exec_ms", "server.unattributed_ms",
                        "router.hop_ms", "router.retries", "router.errors", "wire.ms",
                        "generator.lag_ms")


def not_crossed(out, names):
    """Report ``names`` as 0 because the workload's queries never reach those
    layers, and list them in the details line, so such a 0 is not read as a
    measurement.  Every other per-layer metric must be measured."""
    out["metrics"].update(dict.fromkeys(names, 0.0))
    out["details"]["not_crossed"] = sorted(names)


def cache_ratios(totals):
    """``cache.<table>.hit_ratio`` from summed ``{"hits", "misses"}`` per table."""
    out = {}
    for table in ("norm", "aut", "sig", "equiv", "deriv"):
        hits, misses = totals.get(table, (0, 0))
        out[f"cache.{table}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


def cache_counts(stats):
    """``{table: (hits, misses)}`` from an ``EngineSession.stats()`` block."""
    return {name: (table["hits"], table["misses"])
            for name, table in stats["tables"].items()}


def add_counts(into, before, after):
    for name, (hits, misses) in after.items():
        hits0, misses0 = before.get(name, (0, 0))
        old = into.get(name, (0, 0))
        into[name] = (old[0] + hits - hits0, old[1] + misses - misses0)
