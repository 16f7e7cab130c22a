"""Workload ``compare-warm``: product-walk kernels on a warm session.

Set-up parses, normalizes and compiles a pool of incnat loop terms
``(inc(x)^p + inc(y)^q)*`` on one ``EngineSession``.  The pool is fixed, so
every seed costs the same; the seed picks which pairs are asked and when.
The timed phase asks ``equiv`` and ``inclusion`` on pairs of those terms,
passed as Term objects: normal-form and automaton caches hit, verdict caches
miss (they are cleared between rounds, and no pair repeats within a round),
so the time goes to the signature search and the compare/includes kernels.  Terms are pre-parsed
because source text would spend most of the time in the parser; text-in
traffic is ``serve-routed``'s job.

The pool mixes small loops (product walks below the kernels' 4096-code
cutoff, walked pair by pair) with large ones (above it, the numpy BFS), and a
third of the queries are divisor pairs so positive inclusions, which walk the
whole product, are not rare.  Closed loop, one caller, in-process.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import time
from array import array

from repro import EngineSession, IncNatTheory

from kmtperf import measure, oracle, paper_cold
from kmtperf.spans import (SERVED_LAYER_METRICS, Tracer, add_counts, cache_counts, cache_ratios,
                           install_core_layers, layer_metrics, not_crossed)

#: Small loops: at most 15 states, so every product among them is walked pair
#: by pair.  Large loops: 65 to 129 states, so a product of two of them is
#: past the kernels' 4096-code cutoff and takes the numpy BFS.
SMALL_GRID = [(p, q) for p in (1, 2, 3, 4, 6) for q in (1, 2, 3, 4, 8)]
LARGE_GRID = [(p, q) for p in (1, 2, 4, 8, 16, 32) for q in (64, 96)]
#: Queries per class per round; no pair repeats within a round.
CLASS_QUERIES = 200
#: Queries per second the seed program completes; fixes the designed sample
#: count the tail percentile is chosen from.
DESIGN_QPS = 3000.0
#: Traced runs alternate untraced and traced slices of the same queries.
TRACE_SLICE = 100
CLASSES = ("equiv", "incl-divisor", "incl-random")


class CompareWarm:
    name = "compare-warm"

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.pool = sorted(SMALL_GRID + LARGE_GRID)
        self.theory = IncNatTheory()
        self.session = EngineSession(self.theory)
        self.terms = {}
        for key in self.pool:
            term = self.session.parse(oracle.loop_text(*key))
            self.session.is_empty(term)  # normalizes and compiles every summand
            self.terms[key] = term
        self.divisor_pairs = [(a, b) for a in self.pool for b in self.pool
                              if a != b and oracle.loop_includes(a, b)]
        self.params = {"pool": [list(key) for key in self.pool],
                       "class_queries": CLASS_QUERIES, "design_qps": DESIGN_QPS,
                       "divisor_pairs": len(self.divisor_pairs)}

    def _round(self):
        """One round of distinct queries: ``(class, left key, right key)``."""
        unordered = [(a, b) for i, a in enumerate(self.pool) for b in self.pool[i + 1:]]
        ordered = [(a, b) for a in self.pool for b in self.pool
                   if a != b and not oracle.loop_includes(a, b)]
        queries = [("equiv",) + pair for pair in self.rng.sample(unordered, CLASS_QUERIES)]
        queries += [("incl-divisor",) + pair
                    for pair in self.rng.sample(self.divisor_pairs, CLASS_QUERIES)]
        queries += [("incl-random",) + pair
                    for pair in self.rng.sample(ordered, CLASS_QUERIES)]
        self.rng.shuffle(queries)
        return queries

    def _forget_verdicts(self):
        self.session.caches.equiv.clear()
        self.session.caches.sig.clear()

    def _ask(self, kind, a, b):
        if kind == "equiv":
            return self.session.check_equivalent(self.terms[a], self.terms[b])
        return self.session.check_inclusion(self.terms[a], self.terms[b])

    def _run(self, queries, deadline, times, tracer=None):
        """Ask ``queries`` until ``deadline``; returns ``(answers, finished)``.

        ``times`` maps each class to an ``array('d')`` of query seconds.
        """
        answers = []
        for kind, a, b in queries:
            if time.perf_counter() >= deadline:
                return answers, False
            if tracer is not None:
                tracer.request = f"{kind}:{a}:{b}"
                span = tracer.begin("query")
            started = time.perf_counter()
            result = self._ask(kind, a, b)
            elapsed = time.perf_counter() - started
            if tracer is not None:
                tracer.end(span)
            times[kind].append(elapsed)
            answers.append((kind, a, b, result))
        return answers, True

    def measure(self, seconds, trace):
        # Rounds alternate between the CPUs and their times are pooled.
        # Answers are checked after each round, outside the timed calls, and
        # dropped, so peak RSS does not grow with throughput.
        home = measure.cpus()
        window = _Window(home, trace)
        tally = _Tally(self)
        compiles_before = self.session.stats()["session"]["states_compiled"]
        deadline = time.perf_counter() + seconds
        try:
            self._loop(deadline, window, tally)
        finally:
            os.sched_setaffinity(0, set(home))
        rss = measure.peak_rss_mb()
        tally.notes["states_compiled_in_timed_phase"] = (
            self.session.stats()["session"]["states_compiled"] - compiles_before)

        ran = [cpu for cpu in home if _count(window.per_cpu[cpu])]
        times = {kind: list(itertools.chain.from_iterable(
            window.per_cpu[cpu][kind] for cpu in ran)) for kind in CLASSES}
        out = {
            "attempted": tally.attempted,
            "failed": tally.failed,
            "details": {
                "queries_per_cpu": {cpu: _count(window.per_cpu[cpu]) for cpu in ran},
                "mean_query_ms_per_cpu": {
                    cpu: _total(window.per_cpu[cpu]) / _count(window.per_cpu[cpu]) * 1000.0
                    for cpu in ran},
                "traced_queries": _count(window.traced),
                "class_median_ms": {kind: measure.median(v) * 1000.0
                                    for kind, v in times.items() if v},
                "class_counts": {kind: len(v) for kind, v in times.items()},
                "oracle": tally.notes,
            },
        }
        if not trace:
            tail_q = measure.tail_percentile(seconds * DESIGN_QPS)
            ordered = sorted(itertools.chain.from_iterable(times.values()))
            out["details"]["tail_percentile"] = tail_q
            out["metrics"] = {
                "throughput_qps": (len(ordered) - tally.failed) / sum(ordered),
                "geomean_query_ms": measure.geomean(
                    [measure.median(v) * 1000.0 for v in times.values()]),
                "latency_ms": measure.median(ordered) * 1000.0,
                "latency_tail_ms": measure.nearest_rank(ordered, tail_q) * 1000.0,
                "peak_rss_mb": rss,
            }
        else:
            layers, shares = layer_metrics(window.tracer, _count(window.traced))
            layers.update(cache_ratios(window.cache_totals))
            layers["trace.overhead_frac"] = window.traced_s / window.untraced_s - 1.0
            out["metrics"] = layers
            not_crossed(out, SERVED_LAYER_METRICS
                        + tuple(f"query.{name}.median_ms" for name in paper_cold.ROWS))
            out["details"]["layer_share_of_query_time"] = shares
            out["tracer"] = window.tracer
        return out

    def _loop(self, deadline, window, tally):
        rounds = 0
        while time.perf_counter() < deadline:
            cpu = window.home[rounds % len(window.home)]
            rounds += 1
            os.sched_setaffinity(0, {cpu})
            times = window.per_cpu[cpu]
            queries = self._round()
            self._forget_verdicts()
            gc.collect()  # outside the timed calls: each round starts from the same heap
            if window.tracer is None:
                tally.check(self._run(queries, deadline, times)[0])
                continue
            for first in range(0, len(queries), TRACE_SLICE):
                # The same chunk runs untraced, then traced: the overhead
                # compares like with like.
                chunk = queries[first:first + TRACE_SLICE]
                spent = _total(times)
                answers, done = self._run(chunk, deadline, times)
                tally.check(answers)
                if not done:
                    return
                chunk_untraced = _total(times) - spent
                self._forget_verdicts()
                before = cache_counts(self.session.stats())
                spent = _total(window.traced)
                install_core_layers(window.tracer)
                try:
                    answers, done = self._run(chunk, deadline, window.traced, window.tracer)
                finally:
                    window.tracer.restore()
                tally.check(answers)
                add_counts(window.cache_totals, before, cache_counts(self.session.stats()))
                self._forget_verdicts()
                if not done:
                    return
                window.untraced_s += chunk_untraced
                window.traced_s += _total(window.traced) - spent

    def close(self):
        pass


class _Window:
    """Query times of one timed phase: per CPU, and for traced chunks."""

    def __init__(self, home, trace):
        self.home = home
        self.per_cpu = {cpu: {kind: array("d") for kind in CLASSES} for cpu in home}
        self.traced = {kind: array("d") for kind in CLASSES}
        self.tracer = Tracer() if trace else None
        self.cache_totals = {}
        self.untraced_s = self.traced_s = 0.0


def _total(times):
    return sum(sum(v) for v in times.values())


def _count(times):
    return sum(len(v) for v in times.values())


class _Tally:
    """Checks answers against the closed form and replays negative witnesses."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.replayed = {}
        self.notes = {}

    def check(self, answers):
        workload = self.workload
        for kind, a, b, result in answers:
            self.attempted += 1
            if kind == "equiv":
                verdict, expected = result.equivalent, a == b
            else:
                verdict, expected = result.includes, oracle.loop_includes(a, b)
            ok = verdict == expected
            if ok and not verdict:
                key = (kind == "equiv", a, b)
                if key not in self.replayed:
                    cex = result.counterexample
                    self.replayed[key] = cex is not None and oracle.replay(
                        workload.theory, cex.cell, cex.word, workload.terms[a],
                        workload.terms[b], "equiv" if kind == "equiv" else "incl")
                ok = self.replayed[key]
            self.failed += not ok
        self.notes.update(witnesses_replayed=len(self.replayed),
                          witnesses_ok=sum(self.replayed.values()))
