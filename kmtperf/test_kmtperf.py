"""Self-tests of the benchmark's own arithmetic and oracles.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest kmtperf/test_kmtperf.py -q
"""

from __future__ import annotations

import itertools

import pytest

from repro import KMT, IncNatTheory
from repro.core import semantics
from repro.lang import while_lang

from kmtperf import measure, oracle
from kmtperf.serve_routed import shift_query
from kmtperf.spans import SERVED_LAYER_METRICS, Tracer, not_crossed, self_times


# -- the tail-percentile rank rule ------------------------------------------------

@pytest.mark.parametrize("designed, expected", [
    (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0),
    (2000, 99.5), (5000, 99.8), (10000, 99.9), (20000, 99.95), (100000, 99.99),
])
def test_tail_percentile_leaves_ten_designed_samples_beyond(designed, expected):
    q = measure.tail_percentile(designed)
    assert q == expected
    assert round(designed * (100 - q) / 100, 6) >= measure.TAIL_MIN_BEYOND


def test_tail_needs_a_hundred_designed_samples():
    with pytest.raises(ValueError):
        measure.tail_percentile(99)


def test_nearest_rank():
    values = list(range(1, 101))
    assert measure.nearest_rank(values, 99.0) == 99
    assert measure.nearest_rank(values, 99.5) == 100
    assert measure.nearest_rank(list(range(1, 11)), 90.0) == 9


def test_low_decile_ignores_order():
    assert measure.low([10, 3, 7, 1, 9, 2, 8, 4, 6, 5]) == 1
    assert measure.low(list(range(100, 0, -1))) == 10


def test_not_crossed_layers_read_zero_and_are_named():
    out = {"metrics": {"kernels.ms": 0.25}, "details": {}}
    not_crossed(out, SERVED_LAYER_METRICS)
    assert out["metrics"]["kernels.ms"] == 0.25
    assert all(out["metrics"][name] == 0.0 for name in SERVED_LAYER_METRICS)
    assert out["details"]["not_crossed"] == sorted(SERVED_LAYER_METRICS)


# -- self-time arithmetic -------------------------------------------------------------

def test_self_times_subtract_direct_children_only():
    spans = [
        ["query", 0.0, 10.0, -1, "r1"],
        ["compile", 1.0, 4.0, 0, "r1"],
        ["kernels", 2.0, 3.0, 1, "r1"],
        ["signatures", 5.0, 7.0, 0, "r1"],
        ["query", 20.0, 21.0, -1, "r2"],
    ]
    times = self_times(spans)
    assert times["query"] == (6.0, 11.0, 2)  # 10 - 3 - 2, plus 1
    assert times["compile"] == (2.0, 3.0, 1)
    assert times["kernels"] == (1.0, 1.0, 1)
    assert times["signatures"] == (2.0, 2.0, 1)


class _Owner:
    @staticmethod
    def recurse(n):
        return 0 if n == 0 else 1 + _Owner.recurse(n - 1)

    @staticmethod
    def numbers(n):
        yield from range(n)


def test_wrappers_time_outermost_calls_and_restore():
    original = _Owner.recurse
    tracer = Tracer()
    tracer.wrap_call(_Owner, "recurse", "layer")
    assert _Owner.recurse(3) == 3
    tracer.restore()
    assert _Owner.recurse is original
    assert [span[0] for span in tracer.spans] == ["layer"]
    assert tracer.counts["layer.calls"] == 1


def test_generator_wrapper_spans_each_resumption():
    tracer = Tracer()
    tracer.wrap_generator(_Owner, "numbers", "gen", item_counter="gen.items")
    root = tracer.begin("query")
    assert list(_Owner.numbers(3)) == [0, 1, 2]
    tracer.end(root)
    tracer.restore()
    gens = [span for span in tracer.spans if span[0] == "gen"]
    assert len(gens) == 4  # three items and the final StopIteration
    assert all(span[3] == 0 for span in gens)
    assert tracer.counts["gen.items"] == 3


# -- closed forms against the Fig. 5 semantics ----------------------------------------

def _labels(term, theory, state, length):
    return {t.label() for t in semantics.traces_up_to_length(term, state, theory, length)}


def test_loop_inclusion_closed_form_matches_semantics():
    theory = IncNatTheory()
    kmt = KMT(theory)
    small = list(itertools.product((1, 2, 3), repeat=2))
    words = {key: _labels(kmt.parse(oracle.loop_text(*key)), theory,
                          theory.initial_state(), 6) for key in small}
    for left, right in itertools.product(small, repeat=2):
        assert oracle.loop_includes(left, right) == (words[left] <= words[right]), (left, right)


def test_loop_member_closed_form_matches_semantics():
    theory = IncNatTheory()
    kmt = KMT(theory)
    x, y = kmt.parse("inc(x)").pi, kmt.parse("inc(y)").pi
    for p, q in itertools.product((1, 2, 3), repeat=2):
        words = _labels(kmt.parse(oracle.loop_text(p, q)), theory, theory.initial_state(), 5)
        for length in range(6):
            for letters in itertools.product("xy", repeat=length):
                word = tuple(x if c == "x" else y for c in letters)
                assert oracle.loop_member(p, q, "".join(letters)) == (word in words)


def test_shift_closed_form_matches_semantics():
    theory = IncNatTheory()
    kmt = KMT(theory)
    for k, n in itertools.product((1, 2, 3), (3, 4, 6)):
        for m in (n - k, n - k + 1):
            query = shift_query(k, n, m)
            left, right = kmt.parse(query.record["left"]), kmt.parse(query.record["right"])
            states = [theory.initial_state().set("x", v) for v in range(n + 3)]
            same = semantics.equivalent_up_to_length(left, right, states, theory, k + 1)
            assert same == query.expected


def test_program_closed_forms_match_semantics():
    theory = IncNatTheory()
    kmt = KMT(theory)
    states = [theory.initial_state().set("x", v) for v in range(30)]
    for a, k, b in itertools.product((0, 3), (1, 2), range(0, 7)):
        # {x > a} inc(x)^k {x > b} holds iff a + k >= b
        program = while_lang.parse_program("inc(x); " * k, theory).compile()
        pre, post = kmt.parse_pred(f"x > {a}"), kmt.parse_pred(f"x > {b}")
        holds = all(semantics.eval_pred(post, trace, theory)
                    for state in states
                    if semantics.eval_pred(pre, semantics.Trace.initial(state), theory)
                    for trace in semantics.run(program, state, theory))
        assert holds == (a + k >= b)
    for a, b in itertools.product(range(0, 5), range(1, 7)):
        # assume x > a; if (x < b) { inc(x); } reaches inc(x) iff b > a + 1
        guard = kmt.parse(f"x > {a}; x < {b}")
        reachable = any(semantics.run(guard, state, theory) for state in states)
        assert reachable == (b > a + 1)


# -- witness replay ---------------------------------------------------------------------

def test_word_run_agrees_with_semantics_on_small_terms():
    theory = IncNatTheory()
    kmt = KMT(theory)
    texts = ["(inc(x); inc(x) + inc(y))*", "x > 1; inc(x)", "inc(x); x > 1; inc(y)*",
             "(inc(x); x > 2)* ; inc(y)", "~(x > 0); inc(x) + inc(y); y > 0"]
    letters = [kmt.parse("inc(x)").pi, kmt.parse("inc(y)").pi]
    for text in texts:
        term = kmt.parse(text)
        for start in (0, 1, 3):
            state = theory.initial_state().set("x", start)
            labels = _labels(term, theory, state, 4)
            for length in range(5):
                for word in itertools.product(letters, repeat=length):
                    run = oracle.WordRun(theory, state, word)
                    assert run.admits(term) == (word in labels), (text, start, word)


def test_parse_witness_and_replay():
    theory = IncNatTheory()
    kmt = KMT(theory)
    text = ("in the cell [x > 3=T, x > 4=F] the two terms allow different action words; "
            "distinguishing word: inc(x) inc(x)")
    cell, word = oracle.parse_witness(kmt, text)
    assert [value for _, value in cell] == [True, False]
    assert len(word) == 2
    query = shift_query(2, 5, 4)
    left, right = kmt.parse(query.record["left"]), kmt.parse(query.record["right"])
    assert oracle.replay(theory, cell, word, left, right, "equiv")
    assert not oracle.replay(theory, cell, word[:1], left, right, "equiv")
