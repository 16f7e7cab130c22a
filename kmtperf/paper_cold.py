"""Workload ``paper-cold``: the paper's own queries, each on a cold pipeline.

Fig. 9 rows 1-6, the Fig. 1 programs Pnat, Pset and Pmap, and the Sec. 2.3
unbounded set-membership query.  Every query builds a fresh theory and a
fresh ``EngineSession`` with the process-wide derivative memo cleared, so
parse, normalize, signature search and compile do the work; kernels, the
server and the router are not crossed.  Closed loop, one caller, in-process
library calls.  The seed picks row 1's random predicate and the pass order.

Row 7 (Denest budget exhaustion, about 4 s at the 100k budget) is left out of
the timed mix: it would be most of every pass.
"""

from __future__ import annotations

import gc
import itertools
import os
import random
import time

from repro import (BitVecTheory, EngineSession, IncNatTheory, MapTheory,
                   NatBoolMapAdapter, NatExpressionAdapter, ProductTheory, SetTheory)
from repro.core import automata, semantics
from repro.core import terms as T
from repro.engine.cache import DERIVATIVE_CACHE
from repro.lang import while_lang
from repro.theories.incnat import Gt

from kmtperf import measure, oracle
from kmtperf.spans import (SERVED_LAYER_METRICS, Tracer, add_counts, cache_counts, cache_ratios,
                           install_core_layers, layer_metrics, not_crossed)

ROWS = ("row1", "row2", "row3", "row4", "row5", "row6", "pnat", "pset", "pmap", "member")

#: Passes per second the seed program completes; fixes the designed sample
#: count the tail percentile is chosen from, whatever the measured speed.
DESIGN_PASSES_PER_S = 7.0

_PNAT = """
assume i < 2;
while (i < 4) {
    inc(i);
    inc(j); inc(j);
}
"""

_PSET = """
assume i < 1;
while (i < 4) {
    add(X, i);
    inc(i);
}
"""

_PMAP = """
i := 0;
parity := F;
while (i < 4) {
    odd[i] := parity;
    inc(i);
    flip parity;
}
"""

_TERM_ROWS = {
    "row2": (IncNatTheory, "inc(x)*; x > 10", "inc(x)*; inc(x)*; x > 10"),
    "row3": (IncNatTheory, "inc(x)*; x > 3; inc(y)*; y > 3",
             "inc(x)*; inc(y)*; x > 3; y > 3"),
    "row4": (BitVecTheory, "x = F; (flip x; flip x)*", "(flip x; flip x)*; x = F"),
    "row5": (BitVecTheory,
             "w := F; x := T; y := F; z := F; "
             "(if(w = T + x = T + y = T + z = T) then a := T else a := F)",
             "w := F; x := T; y := F; z := F; "
             "(if((w = T + x = T) + (y = T + z = T)) then a := T else a := F)"),
    "row6": (lambda: ProductTheory(IncNatTheory(), BitVecTheory()),
             "y < 1; a = T; inc(y); (1 + b = T; inc(y)); (1 + c = T; inc(y)); y > 2",
             "y < 1; a = T; b = T; c = T; inc(y); inc(y); inc(y)"),
}


def _set_theory():
    nat = IncNatTheory(variables=("i",))
    return SetTheory(nat, NatExpressionAdapter(nat, variables=("i",)), set_variables=("X",))


def _map_theory():
    nat = IncNatTheory(variables=("i",))
    bools = BitVecTheory(variables=("parity",))
    adapter = NatBoolMapAdapter(nat, bools, key_variables=("i",),
                                value_variables=("parity",))
    return MapTheory(ProductTheory(nat, bools), adapter, map_variables=("odd",))


_PROGRAM_ROWS = {
    "pnat": (lambda: IncNatTheory(variables=("i", "j")), _PNAT, "assert j > 3;"),
    "pset": (_set_theory, _PSET, "assert in(X, 3);"),
    "pmap": (_map_theory, _PMAP, "assert odd[3] = T;"),
}

_MEMBER_QUERY = "(inc(i); add(X, i))*; i > 6; in(X, 6)"


def row1_predicate(rng):
    """Fig. 9 row 1's random arithmetic predicate, in one fixed shape.

    ``(~(a + b); c) + d`` over four distinct ``v > n`` tests (v in x, y;
    n in 0..20): the seed moves the constants, not the size of the query.
    """
    leaves = []
    while len(leaves) < 4:
        leaf = (rng.choice("xy"), rng.randint(0, 20))
        if leaf not in leaves:
            leaves.append(leaf)
    a, b, c, d = (T.pprim(Gt(var, bound)) for var, bound in leaves)
    return T.por(T.pand(T.pnot(T.por(a, b)), c), d)


def _query(name, pred):
    """A callable running one cold query; returns ``(result, session)``."""
    if name == "row1":
        def run():
            session = EngineSession(IncNatTheory())
            return session.check_equivalent(T.tstar(T.ttest(pred)), T.ttest(pred)), session
    elif name in _TERM_ROWS:
        factory, left, right = _TERM_ROWS[name]

        def run():
            session = EngineSession(factory())
            return session.check_equivalent(session.parse(left), session.parse(right)), session
    elif name in _PROGRAM_ROWS:
        factory, body, assertion = _PROGRAM_ROWS[name]

        def run():
            theory = factory()
            session = EngineSession(theory)
            checked = while_lang.parse_program(body + assertion, theory).compile()
            stripped = while_lang.parse_program(body, theory).compile()
            return session.check_equivalent(checked, stripped), session
    else:
        def run():
            session = EngineSession(_set_theory())
            return session.is_empty(session.parse(_MEMBER_QUERY)), session
    return run


def _cold():
    """Clear the process-wide memos and collect the previous query's garbage.

    Sessions and theories reference each other, so a finished query leaves
    cyclic garbage; collecting it here, outside the timed call, lets every
    query start from the same heap instead of paying for whichever full
    collection its allocations happen to trigger.
    """
    DERIVATIVE_CACHE.clear()
    automata.clear_alphabet_caches()
    gc.collect()


class PaperCold:
    name = "paper-cold"

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.pred = row1_predicate(self.rng)
        self.queries = {name: _query(name, self.pred) for name in ROWS}
        self.params = {"rows": list(ROWS), "row1_predicate": str(self.pred),
                       "design_passes_per_s": DESIGN_PASSES_PER_S}
        # Warm-up: one untimed pass, so imports and lazy module state are paid
        # here rather than by the first timed query.
        for name in ROWS:
            _cold()
            self.queries[name]()

    # -- timed phase ------------------------------------------------------------
    def _pass(self, tracer=None, index=0, cache_totals=None):
        order = list(ROWS)
        self.rng.shuffle(order)
        times, results = {}, {}
        for name in order:
            _cold()
            if tracer is not None:
                deriv = {"deriv": (DERIVATIVE_CACHE.stats.hits, DERIVATIVE_CACHE.stats.misses)}
                tracer.request = f"{name}#{index}"
                span = tracer.begin("query")
                started = time.perf_counter()
                results[name], session = self.queries[name]()
                times[name] = time.perf_counter() - started
                tracer.end(span)
                add_counts(cache_totals, {}, cache_counts(session.stats(include_shared=False)))
                add_counts(cache_totals, deriv, {"deriv": (DERIVATIVE_CACHE.stats.hits,
                                                           DERIVATIVE_CACHE.stats.misses)})
            else:
                started = time.perf_counter()
                results[name], _session = self.queries[name]()
                times[name] = time.perf_counter() - started
        return times, results

    def measure(self, seconds, trace):
        # Passes alternate between the CPUs and their times are pooled.  On a
        # shared host a neighbour slows one CPU or both by up to half, for
        # seconds at a stretch, so a run's median moves with how long that
        # lasted; the low decile (:data:`measure.LOW_Q`) tracks the program's
        # cost on an uncontended CPU and is what the time metrics read.
        home = measure.cpus()
        rows = {name: [] for name in ROWS}
        passes = {cpu: [] for cpu in home}
        verdicts = []
        tracer = Tracer() if trace else None
        traced_pass_times, overhead, cache_totals, traced_queries = [], [], {}, 0
        deadline = time.perf_counter() + seconds
        index = 0
        try:
            while time.perf_counter() < deadline:
                cpu = home[(index // 2 if trace else index) % len(home)]
                os.sched_setaffinity(0, {cpu})
                if trace and index % 2 == 1:
                    install_core_layers(tracer)
                    try:
                        times, results = self._pass(tracer, index, cache_totals)
                    finally:
                        tracer.restore()
                    traced_pass_times.append(sum(times.values()))
                    traced_queries += len(times)
                    # Against the untraced pass just before, on the same CPU.
                    overhead.append(traced_pass_times[-1] / passes[cpu][-1])
                else:
                    times, results = self._pass()
                    passes[cpu].append(sum(times.values()))
                    for name, elapsed in times.items():
                        rows[name].append(elapsed)
                verdicts.append(results)
                index += 1
        finally:
            os.sched_setaffinity(0, set(home))
        rss = measure.peak_rss_mb()

        attempted, failed, notes = self._check(verdicts)
        ran = [cpu for cpu in home if passes[cpu]]
        pass_times = sorted(itertools.chain.from_iterable(passes.values()))
        out = {
            "attempted": attempted,
            "failed": failed,
            "details": {
                "passes_per_cpu": {cpu: len(passes[cpu]) for cpu in ran},
                "median_pass_ms_per_cpu": {cpu: measure.median(passes[cpu]) * 1000.0
                                           for cpu in ran},
                "traced_passes": len(traced_pass_times),
                "latency_unit": "one pass over all paper queries",
                "row_median_ms": {name: round(measure.median(v) * 1000.0, 3)
                                  for name, v in rows.items()},
                "row_low_ms": {name: round(measure.low(v) * 1000.0, 3)
                               for name, v in rows.items()},
                "median_pass_ms": measure.median(pass_times) * 1000.0,
                "paper_reported": {name: oracle.PAPER[name][1] for name in ROWS},
                "oracle": notes,
            },
        }
        if not trace:
            tail_q = measure.tail_percentile(seconds * DESIGN_PASSES_PER_S)
            out["details"]["tail_percentile"] = tail_q
            low_s = [measure.low(v) for v in rows.values()]
            out["metrics"] = {
                # Correct answers per second of a pass made of every row's
                # low-decile time.
                "throughput_qps": (attempted - failed) / attempted * len(ROWS) / sum(low_s),
                "geomean_query_ms": measure.geomean([v * 1000.0 for v in low_s]),
                "latency_ms": measure.low(pass_times) * 1000.0,
                "latency_tail_ms": measure.nearest_rank(pass_times, tail_q) * 1000.0,
                "peak_rss_mb": rss,
            }
        else:
            layers, shares = layer_metrics(tracer, traced_queries)
            layers.update(cache_ratios(cache_totals))
            layers["trace.overhead_frac"] = measure.median(overhead) - 1.0
            for name in ROWS:
                layers[f"query.{name}.median_ms"] = measure.median(rows[name]) * 1000.0
            out["metrics"] = layers
            not_crossed(out, SERVED_LAYER_METRICS)
            out["details"]["layer_share_of_query_time"] = shares
            out["tracer"] = tracer
        return out

    # -- oracle -------------------------------------------------------------------
    def _check(self, passes):
        expected = {name: answer for name, (answer, _time) in oracle.PAPER.items()}
        # Row 1: a* == a exactly when the predicate is valid.
        expected["row1"] = oracle.predicate_valid(self.pred, IncNatTheory(), ("x", "y"), 21)
        attempted = failed = 0
        replayed = {}
        for results in passes:
            for name, result in results.items():
                attempted += 1
                verdict = result if name == "member" else result.equivalent
                ok = verdict == expected[name]
                if ok and name != "member" and not verdict:
                    cex = result.counterexample
                    key = (name, None if cex is None else (cex.cell, cex.word))
                    if key not in replayed:
                        replayed[key] = cex is not None and self._replay(name, cex)
                    ok = replayed[key]
                failed += not ok
        member_nonempty = self._member_nonempty()
        if not member_nonempty:
            failed += sum(1 for results in passes if "member" in results)
        return attempted, failed, {"row1_expected_equivalent": expected["row1"],
                                   "witnesses_replayed": len(replayed),
                                   "witnesses_ok": sum(replayed.values()),
                                   "member_trace_found": member_nonempty}

    def _replay(self, name, cex):
        if name != "row1":
            return False  # only row 1 is expected to be inequivalent
        theory = IncNatTheory()
        return oracle.replay(theory, cex.cell, cex.word, T.tstar(T.ttest(self.pred)),
                             T.ttest(self.pred), "equiv")

    @staticmethod
    def _member_nonempty():
        """Sec. 2.3: some trace of the query exists on the Fig. 5 semantics."""
        theory = _set_theory()
        session = EngineSession(theory)
        term = session.parse(_MEMBER_QUERY)
        return semantics.accepts(term, theory.initial_state(), theory, star_bound=12)

    def close(self):
        pass
