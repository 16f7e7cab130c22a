"""Pin the deterministic work counters of the paper's cold queries.

Optimizations of the cold path (memo tables, one-pass substitution, cheaper
normal-form constructors) must not change *what* the decision procedure
does, only how fast.  For Fig. 9 rows 2-6, the Fig. 1 programs Pnat, Pset and
Pmap and the Sec. 2.3 set-membership query, this test runs each query on a
fresh theory and session and compares the verdict, the witness word, the
number of signatures explored, the automata and derivative states compiled
and the normalization steps against values recorded before those
optimizations.

Which automaton an emptiness check compiles first follows the iteration
order of a normal form's pair set, which depends on string hashing; the
queries therefore run in a child interpreter with ``PYTHONHASHSEED=0`` (the
seed the repository benchmark runs under).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

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
    "row2": ("incnat", "inc(x)*; x > 10", "inc(x)*; inc(x)*; x > 10"),
    "row3": ("incnat", "inc(x)*; x > 3; inc(y)*; y > 3", "inc(x)*; inc(y)*; x > 3; y > 3"),
    "row4": ("bitvec", "x = F; (flip x; flip x)*", "(flip x; flip x)*; x = F"),
    "row5": ("bitvec",
             "w := F; x := T; y := F; z := F; "
             "(if(w = T + x = T + y = T + z = T) then a := T else a := F)",
             "w := F; x := T; y := F; z := F; "
             "(if((w = T + x = T) + (y = T + z = T)) then a := T else a := F)"),
    "row6": ("product",
             "y < 1; a = T; inc(y); (1 + b = T; inc(y)); (1 + c = T; inc(y)); y > 2",
             "y < 1; a = T; b = T; c = T; inc(y); inc(y); inc(y)"),
}

_PROGRAM_ROWS = {
    "pnat": ("pnat", _PNAT, "assert j > 3;"),
    "pset": ("pset", _PSET, "assert in(X, 3);"),
    "pmap": ("pmap", _PMAP, "assert odd[3] = T;"),
}

_MEMBER_QUERY = "(inc(i); add(X, i))*; i > 6; in(X, 6)"

#: Recorded before the cold-path optimizations, under ``PYTHONHASHSEED=0``.
#: ``automata`` counts the session's automaton-cache misses (one compile
#: each), ``states`` the raw derivative states those compiles explored and
#: ``steps`` the normalizer's steps.  ``signatures`` is ``None`` for the
#: emptiness query, which runs no signature search.
PINNED = {
    "row2": {"verdict": True, "word": None, "signatures": 12, "automata": 24, "states": 156,
             "steps": 298},
    "row3": {"verdict": True, "word": None, "signatures": 25, "automata": 0, "states": 0,
             "steps": 453},
    "row4": {"verdict": True, "word": None, "signatures": 2, "automata": 0, "states": 0,
             "steps": 122},
    "row5": {"verdict": True, "word": None, "signatures": 1, "automata": 0, "states": 0,
             "steps": 180},
    "row6": {"verdict": True, "word": None, "signatures": 2, "automata": 0, "states": 0,
             "steps": 64},
    "pnat": {"verdict": True, "word": None, "signatures": 3, "automata": 0, "states": 0,
             "steps": 383},
    "pset": {"verdict": True, "word": None, "signatures": 3, "automata": 0, "states": 0,
             "steps": 378},
    "pmap": {"verdict": True, "word": None, "signatures": 1, "automata": 0, "states": 0,
             "steps": 1847},
    "member": {"verdict": False, "word": None, "signatures": None, "automata": 1, "states": 12,
               "steps": 1846},
}


def _theory(kind):
    from repro import (BitVecTheory, IncNatTheory, MapTheory, NatBoolMapAdapter,
                       NatExpressionAdapter, ProductTheory, SetTheory)

    if kind == "incnat":
        return IncNatTheory()
    if kind == "bitvec":
        return BitVecTheory()
    if kind == "product":
        return ProductTheory(IncNatTheory(), BitVecTheory())
    if kind == "pnat":
        return IncNatTheory(variables=("i", "j"))
    nat = IncNatTheory(variables=("i",))
    if kind == "pset":
        return SetTheory(nat, NatExpressionAdapter(nat, variables=("i",)), set_variables=("X",))
    bools = BitVecTheory(variables=("parity",))
    adapter = NatBoolMapAdapter(nat, bools, key_variables=("i",), value_variables=("parity",))
    return MapTheory(ProductTheory(nat, bools), adapter, map_variables=("odd",))


def _run(name):
    from repro import EngineSession
    from repro.lang import while_lang

    if name in _TERM_ROWS:
        kind, left, right = _TERM_ROWS[name]
        session = EngineSession(_theory(kind))
        result = session.check_equivalent(session.parse(left), session.parse(right))
    elif name in _PROGRAM_ROWS:
        kind, body, assertion = _PROGRAM_ROWS[name]
        theory = _theory(kind)
        session = EngineSession(theory)
        checked = while_lang.parse_program(body + assertion, theory).compile()
        stripped = while_lang.parse_program(body, theory).compile()
        result = session.check_equivalent(checked, stripped)
    else:
        session = EngineSession(_theory("pset"))
        result = session.is_empty(session.parse(_MEMBER_QUERY))
    stats = session.stats(include_shared=False)
    if name == "member":
        verdict, word, signatures = result, None, None
    else:
        cex = result.counterexample
        verdict = result.equivalent
        word = None if cex is None else [str(pi) for pi in cex.word]
        signatures = result.signatures_explored
    return {"verdict": verdict, "word": word, "signatures": signatures,
            "automata": stats["tables"]["aut"]["misses"],
            "states": stats["session"]["states_compiled"],
            "steps": stats["session"]["normalization_steps"]}


def measure_all():
    """Run every pinned query cold (process-wide memos cleared first)."""
    from repro.core import automata
    from repro.engine.cache import DERIVATIVE_CACHE

    out = {}
    for name in PINNED:
        DERIVATIVE_CACHE.clear()
        automata.clear_alphabet_caches()
        out[name] = _run(name)
    return out


@pytest.fixture(scope="module")
def measured():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=src)
    proc = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(PINNED))
def test_cold_query_counters_pinned(measured, name):
    assert measured[name] == PINNED[name]


if __name__ == "__main__":
    print(json.dumps(measure_all()))
