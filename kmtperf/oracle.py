"""The verdict oracle: expected answers and witness replay, run outside timed windows.

Expected answers come from two places that do not share code with the
decision procedure:

* the paper's Fig. 9 / Fig. 1 / Sec. 2.3 answers (and, for row 1, the
  validity of its random predicate, decided by evaluating it on states);
* closed forms on the generator parameters, e.g. the loop inclusion
  ``(x^p + y^q)* <= (x^p' + y^q')*`` iff ``p' | p`` and ``q' | q``.

Every negative answer's witness (a cell and a word of primitive actions) is
replayed on the tracing semantics of Fig. 5 (``repro.core.semantics``): a
state satisfying the cell is built and checked with ``eval_pred``, and the
word is run as the one trace it determines (actions are deterministic), so a
term admits the word iff that trace is in the term's denotation.
"""

from __future__ import annotations

import itertools
import re

from repro.core import semantics
from repro.core import terms as T

#: Paper answers and reported times (Fig. 9 of the paper; Fig. 1 and Sec. 2.3
#: report no times).  ``True`` means equivalent; the membership row asks
#: whether the term is empty.
PAPER = {
    "row1": (False, "0.034 s"),
    "row2": (True, "<0.001 s"),
    "row3": (True, "<0.001 s"),
    "row4": (True, "<0.001 s"),
    "row5": (True, "<0.001 s"),
    "row6": (True, "0.309 s"),
    "pnat": (True, "-"),
    "pset": (True, "-"),
    "pmap": (True, "-"),
    "member": (False, "-"),
}


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def loop_text(p, q):
    """``(inc(x)^p + inc(y)^q)*`` in the incnat concrete syntax."""
    return "(" + "; ".join(["inc(x)"] * p) + " + " + "; ".join(["inc(y)"] * q) + ")*"


def loop_includes(left, right):
    """``(x^p + y^q)* <= (x^p' + y^q')*`` iff ``p' | p`` and ``q' | q``."""
    (p, q), (p2, q2) = left, right
    return p % p2 == 0 and q % q2 == 0


def loop_member(p, q, word):
    """Is ``word`` (a string over ``x``/``y``) in ``(x^p + y^q)*``?

    Exactly when every maximal run of ``x`` has a length divisible by ``p``
    and every run of ``y`` one divisible by ``q``.
    """
    for letter, run in itertools.groupby(word):
        if len(list(run)) % (p if letter == "x" else q):
            return False
    return True


def predicate_valid(pred, theory, variables, bound):
    """Does ``pred`` hold in every state with ``variables`` in ``0..bound``?

    For incnat predicates whose constants are below ``bound`` this is
    validity: such a test cannot tell two values above its constant apart.
    """
    for values in itertools.product(range(bound + 1), repeat=len(variables)):
        state = theory.initial_state()
        for var, value in zip(variables, values):
            state = state.set(var, value)
        if not semantics.eval_pred(pred, semantics.Trace.initial(state), theory):
            return False
    return True


# ---------------------------------------------------------------------------
# witness replay on the Fig. 5 semantics
# ---------------------------------------------------------------------------

class WordRun:
    """The trace one action word determines from one start state.

    :meth:`admits` decides whether a term's denotation contains that trace
    by following the semantics of Fig. 5 over positions of the word: a test
    keeps a position where ``eval_pred`` holds on the trace prefix, an action
    advances a position whose next letter it is, ``+`` unions, ``;``
    composes and ``*`` takes the reflexive-transitive closure.  Positions are
    bits of an int.
    """

    def __init__(self, theory, state, word):
        self.theory = theory
        self.word = tuple(word)
        trace = semantics.Trace.initial(state)
        self.prefixes = [trace]
        for pi in self.word:
            trace = trace.append(theory.act(pi, trace.last_state), pi)
            self.prefixes.append(trace)
        self._masks = {}

    def _test_mask(self, pred):
        mask = self._masks.get(pred)
        if mask is None:
            mask = 0
            for i, prefix in enumerate(self.prefixes):
                if semantics.eval_pred(pred, prefix, self.theory):
                    mask |= 1 << i
            self._masks[pred] = mask
        return mask

    def _action_mask(self, pi):
        key = ("pi", pi)
        mask = self._masks.get(key)
        if mask is None:
            mask = 0
            for i, letter in enumerate(self.word):
                if letter == pi:
                    mask |= 1 << i
            self._masks[key] = mask
        return mask

    def reach(self, term, positions):
        if isinstance(term, T.TTest):
            return positions & self._test_mask(term.pred)
        if isinstance(term, T.TPrim):
            return (positions & self._action_mask(term.pi)) << 1
        if isinstance(term, T.TPlus):
            return self.reach(term.left, positions) | self.reach(term.right, positions)
        if isinstance(term, T.TSeq):
            return self.reach(term.right, self.reach(term.left, positions))
        if isinstance(term, T.TStar):
            reached = positions
            while True:
                grown = reached | self.reach(term.arg, reached)
                if grown == reached:
                    return reached
                reached = grown
        raise TypeError(f"not a Term: {term!r}")

    def admits(self, term):
        return bool((self.reach(term, 1) >> len(self.word)) & 1)


def cell_state(theory, cell):
    """A state satisfying every ``(primitive test, value)`` literal of ``cell``.

    Candidates are drawn from the constants in the cell (incnat ``x > n``:
    ``0``, ``n``, ``n + 1``; bitvec ``x = T``: both values) and checked with
    the semantics' ``eval_pred``; ``None`` if none satisfies the cell.
    """
    options = {}
    for alpha, _value in cell:
        values = options.setdefault(alpha.var, {0} if hasattr(alpha, "bound") else set())
        if hasattr(alpha, "bound"):
            values.update((alpha.bound, alpha.bound + 1))
        else:
            values.update((False, True))
    names = sorted(options)
    for values in itertools.product(*(sorted(options[name]) for name in names)):
        state = theory.initial_state()
        for name, value in zip(names, values):
            state = state.set(name, value)
        start = semantics.Trace.initial(state)
        if all(semantics.eval_pred(T.pprim(alpha), start, theory) == value
               for alpha, value in cell):
            return state
    return None


def replay(theory, cell, word, left, right, kind):
    """Does the witness ``(cell, word)`` separate ``left`` from ``right``?

    ``kind`` is ``"equiv"`` (exactly one side admits the word) or ``"incl"``
    (the left admits it, the right does not).
    """
    state = cell_state(theory, cell)
    if state is None:
        return False
    run = WordRun(theory, state, word)
    in_left, in_right = run.admits(left), run.admits(right)
    if kind == "equiv":
        return in_left != in_right
    return in_left and not in_right


_DESCRIBE = re.compile(
    r"^in (?:every cell|the cell \[(?P<cell>.*)\]) the two terms allow different "
    r"action words; distinguishing word: (?P<word>.*)$")


def parse_witness(kmt, text):
    """``(cell, word)`` from a counterexample's ``describe()`` text.

    Used on answers that arrive over the wire.  Only for theories whose
    printed actions contain no spaces (incnat's ``inc(x)``), since the word
    is printed space-separated.
    """
    match = _DESCRIBE.match(text)
    if match is None:
        raise ValueError(f"unrecognised counterexample: {text!r}")
    cell = []
    if match.group("cell"):
        for literal in match.group("cell").split(", "):
            test, value = literal.rsplit("=", 1)
            cell.append((kmt.parse_pred(test).alpha, value == "T"))
    word_text = match.group("word")
    word = () if word_text == "<empty word>" else parse_word(kmt, word_text.split(" "))
    return tuple(cell), word


def parse_word(kmt, letters):
    """Primitive actions from their printed forms, e.g. ``["inc(x)"]``."""
    return tuple(kmt.parse(letter).pi for letter in letters)
